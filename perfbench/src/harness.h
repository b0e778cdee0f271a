/**
 * @file
 * Workload-independent pieces of the zoo-model benchmark: percentiles
 * that treat failed operations as infinitely late, failure and goodput
 * accounting, the output oracle comparison, the seeded open-loop
 * arrival schedule with generator-lag arithmetic, the benchmark's own
 * span log, and the one-line JSON result. Nothing here touches the
 * patdnn libraries, so tests/harness_test.cc checks it in isolation.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * p-th percentile (p in [0, 100]) with linear interpolation between
 * closest ranks. +inf samples (failed operations) sort last; a
 * percentile that interpolates against one is +inf. Empty -> 0.
 */
double percentile(std::vector<double> samples, double p);

/** Median of a sample (percentile 50). */
inline double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

/** What happened to one timed operation. */
enum class Outcome
{
    kOk,       ///< Answered, and the answer matched the oracle.
    kWrong,    ///< Answered, but the answer failed the oracle.
    kRefused,  ///< Refused at admission (typed Status).
    kErrored,  ///< The call threw or its future failed.
};

/** One timed operation: a session run, a batch run, or a request. */
struct Op
{
    double latency_ms = 0.0;  ///< Due time (or call start) to response.
    Outcome outcome = Outcome::kOk;
    int64_t images = 1;       ///< Samples the operation carried.
};

/** Operation counts of one workload run. */
struct Accounting
{
    int64_t attempted = 0;
    int64_t ok = 0;
    int64_t wrong = 0;
    int64_t refused = 0;
    int64_t errored = 0;

    int64_t failed() const { return wrong + refused + errored; }
    /** (wrong + refused + errored) / attempted; 0 when nothing ran. */
    double failFrac() const;
};

Accounting account(const std::vector<Op>& ops);

/** Latencies with every failed operation as +inf (SLO view). */
std::vector<double> sloLatencies(const std::vector<Op>& ops);

/** Latencies of operations that returned an answer, right or wrong
 * (refused and errored operations have no response time). */
std::vector<double> answeredLatencies(const std::vector<Op>& ops);

/**
 * Medians of `parts` contiguous, nearly equal parts of `xs`, taken in
 * the order the operations ran. Empty parts are skipped, so fewer
 * samples than parts give one median per sample.
 */
std::vector<double> partMedians(const std::vector<double>& xs, int parts);

/**
 * Closed-loop throughput of each of `parts` contiguous parts of `ops`:
 * images answered / seconds spent answering them. Refused and errored
 * operations carry no images and no time; parts without answered time
 * are skipped.
 */
std::vector<double> partThroughputs(const std::vector<Op>& ops, int parts);

/** Correct operations answered within `slo_ms`, per second of `seconds`. */
double goodputRps(const std::vector<Op>& ops, double slo_ms, double seconds);

/** Result of comparing one output tensor with the oracle's. */
struct OracleCheck
{
    bool ok = false;
    double max_abs_err = 0.0;  ///< max_i |got_i - want_i|.
    double scale = 0.0;        ///< max_i |want_i|.
};

/**
 * Normwise check: every element finite and
 * max_i |got_i - want_i| <= rtol * max_i |want_i|. An output that is
 * all zeros where the oracle's is not therefore fails, as does a single
 * element off by more than rtol of the output's scale.
 */
OracleCheck compareOutput(const float* got, const float* want, int64_t n, double rtol);

/**
 * Open-loop arrival offsets in ms for `rate_rps` over `seconds`: a
 * Poisson process conditioned on exactly round(rate * seconds)
 * arrivals (sorted uniform times), so every seed offers the same load.
 */
std::vector<double> poissonSchedule(double rate_rps, double seconds, uint64_t seed);

/** How late the generator sent an arrival: actual send time minus due
 * time (start + offset), in ms, floored at 0 (early sends are not
 * negative lateness). */
double lagMs(int64_t start_ns, double due_offset_ms, int64_t sent_ns);

/**
 * True when latencies grow over the run: the median of the last
 * quarter exceeds both twice the first quarter's median and the SLO.
 * Fewer than 8 samples never count as a backlog.
 */
bool backlogGrowing(const std::vector<double>& latencies_in_due_order, double slo_ms);

/** One span of the benchmark's own trace. */
struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int id = 0;
    int parent = -1;       ///< -1 = root.
    int64_t request = -1;  ///< Operation index, -1 = none.
    uint32_t tid = 0;
};

/**
 * In-memory span log around the calls the benchmark makes into the
 * program. Disabled logs record nothing and return id -1. Thread-safe.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a completed span; returns its id (-1 when disabled). */
    int add(const std::string& name, int64_t start_ns, int64_t end_ns,
            int parent = -1, int64_t request = -1);

    /** Open a span now; close it with end(). */
    int begin(const std::string& name, int parent = -1, int64_t request = -1);
    void end(int id);

    std::vector<Span> spans() const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;  ///< Guards spans_.
    std::vector<Span> spans_;
};

/** Steady-clock nanoseconds (the timebase of every span). */
int64_t nowNs();

/** One metric of the result line. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** The final stdout line:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
 * Values are printed with all significant digits; a non-finite value
 * is a harness bug and aborts. */
std::string resultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::map<std::string, Metric>& metrics);

}  // namespace perfbench

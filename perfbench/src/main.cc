/**
 * @file
 * Zoo-model benchmark: two workloads over the public API, every
 * output checked against an independent engine.
 *
 *   zoo_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Each workload builds its zoo model (buildByShortName), compiles it
 * (Compiler::compile), writes the artifact (saveModel) and runs the
 * model restored by loadModel, so deploy-path bugs show up as wrong
 * outputs. Expected outputs come from CSR-sparse under the same
 * CompileOptions (the same surviving weights) for PatDNN, and from
 * TFLite-like for kPatDnnDense; they are computed once, outside the
 * timed and set-up windows.
 *
 * Only VGG-16 runs kPatDnn in the timed loop: the pattern engine
 * returns all zeros for 1x1 convs, which MobileNet-V2 is full of, so
 * mbv2-serve serves kPatDnnDense, and the traced run of each workload
 * reports the pattern engine's error against CSR-sparse on its model
 * (claim.pattern_oracle_rel_err).
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 turns on the
 * program's Tracer plus the benchmark's own spans around each public
 * call, and prints the per-layer metrics and the paper-claim records.
 * The last stdout line is one JSON object (harness.h, resultJson).
 * See perfbench/README.md for the metric definitions.
 */
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/patdnn.h"
#include "harness.h"

using namespace patdnn;
namespace pb = perfbench;

namespace {

// ---------------------------------------------------------------------------
// Frozen workload constants (recorded in perfbench/README.md).
// ---------------------------------------------------------------------------

constexpr int kThreads = 4;            ///< makeCpuDevice(4) everywhere.
/// Oracle tolerance: max |got - want| <= kRtol * max |want|, per output.
constexpr double kRtol = 1e-3;
constexpr double kServeRateRps = 10.0; ///< mbv2-serve headline rate.
constexpr double kSloMs = 33.0;        ///< p99 SLO: one frame at 30 fps.
constexpr int kReplicas = 2;
constexpr int64_t kMaxBatch = 8;
/// max_rps_at_slo probes, ascending; the search stops at the first miss.
constexpr double kProbeRates[] = {10, 15, 20, 30, 40, 50, 60};
constexpr double kProbeSeconds = 1.5;
constexpr double kMaxFailFracAtSlo = 0.01;
constexpr int kWarmupRuns = 1;
/// End-to-end timings: the run's operations, in the order they ran, are
/// cut into this many contiguous parts; a latency is the smallest part
/// median, a closed-loop throughput the largest part rate. Neighbour
/// load on a shared host comes in episodes of seconds to minutes that
/// slow every part they cover by up to 2x; the quietest part leaves the
/// episode out as long as a tenth of the window escapes it.
constexpr int kParts = 10;
/// mbv2-serve splits its window into this many [idle, serving] rounds.
constexpr int kServeRounds = 5;
const char* const kRouteName = "mbv2";

constexpr int64_t kBatch = 1;   ///< Samples per operation.
constexpr int kInputPool = 8;   ///< Distinct seeded inputs (oracle cost).

struct WorkloadSpec
{
    const char* name;
    const char* zoo;     ///< buildByShortName key.
    int setup_reps;      ///< Set-ups per run; setup_s is their median.
    bool serve;          ///< Router + open loop instead of a closed loop.
    /// Engine under test: deployed in set-up, timed by latency_p50_ms.
    /// kPatDnn runs alternate with kPatDnnDense runs of the same model
    /// in the closed loop (the Fig. 12 / Fig. 17 pair).
    FrameworkKind engine;
};

const WorkloadSpec kWorkloads[] = {
    {"vgg16-stream", "VGG", 3, false, FrameworkKind::kPatDnn},
    {"mbv2-serve", "MBNT", 5, true, FrameworkKind::kPatDnnDense},
};

/** The independent engine that gives `engine`'s expected outputs:
 * CSR-sparse under the same options for kPatDnn (the same surviving
 * weights), TFLite-like (direct conv) for kPatDnnDense. */
FrameworkKind
oracleFor(FrameworkKind engine)
{
    return engine == FrameworkKind::kPatDnn ? FrameworkKind::kCsrSparse
                                            : FrameworkKind::kTfliteLike;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
die(const std::string& msg)
{
    std::fprintf(stderr, "zoo_bench: %s\n", msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + k);
        std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else {
            die("unknown argument " + k);
        }
    }
    if (!have_workload || !(a.seconds > 0.0))
        die("usage: zoo_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    return a;
}

double
msSince(int64_t start_ns)
{
    return static_cast<double>(pb::nowNs() - start_ns) / 1e6;
}

// ---------------------------------------------------------------------------
// Deploy path: build -> compile -> save -> load.
// ---------------------------------------------------------------------------

struct Deployed
{
    std::shared_ptr<const CompiledModel> loaded;
    int64_t artifact_bytes = 0;
    int64_t conv_nonzeros = 0;
    int64_t conv_dense = 0;
    double reuse_x = 0.0;  ///< memplan.reuse_x gauge after the compile.
    double compile_ms = 0, save_ms = 0, load_ms = 0;
};

std::string
outDir()
{
    std::filesystem::create_directories(".bench_out");
    return ".bench_out";
}

Model
build(const WorkloadSpec& w, pb::SpanLog& spans, int parent, double* ms)
{
    int64_t t = pb::nowNs();
    Model model = buildByShortName(w.zoo, Dataset::kCifar10);
    *ms = msSince(t);
    spans.add("buildByShortName", t, pb::nowNs(), parent);
    return model;
}

/** Compile `model` for `kind`, save the artifact, and load it back. */
Deployed
deploy(const WorkloadSpec& w, const Model& model, FrameworkKind kind, pb::SpanLog& spans,
       int parent)
{
    Deployed d;
    const std::string path = outDir() + "/" + w.name + "-" + frameworkName(kind) + "-" +
                             std::to_string(::getpid()) + ".patdnn";
    int64_t t = pb::nowNs();
    Compiler compiler(makeCpuDevice(kThreads));
    auto compiled = compiler.compile(model, kind);
    d.compile_ms = msSince(t);
    spans.add("Compiler::compile", t, pb::nowNs(), parent);
    if (!compiled.ok())
        die("compile failed: " + compiled.status().toString());
    d.reuse_x = MetricsRegistry::global().gauge("memplan.reuse_x").value();
    d.conv_nonzeros = (*compiled)->convNonZeros();
    d.conv_dense = (*compiled)->convDense();

    t = pb::nowNs();
    Status saved = saveModel(**compiled, path);
    d.save_ms = msSince(t);
    spans.add("saveModel", t, pb::nowNs(), parent);
    if (!saved.ok())
        die("saveModel failed: " + saved.toString());
    d.artifact_bytes = static_cast<int64_t>(std::filesystem::file_size(path));

    t = pb::nowNs();
    auto loaded = loadModel(path, makeCpuDevice(kThreads));
    d.load_ms = msSince(t);
    spans.add("loadModel", t, pb::nowNs(), parent);
    if (!loaded.ok())
        die("loadModel failed: " + loaded.status().toString());
    d.loaded = std::move(*loaded);
    std::filesystem::remove(path);
    return d;
}

// ---------------------------------------------------------------------------
// Seeded inputs and the oracle.
// ---------------------------------------------------------------------------

std::vector<Tensor>
makeInputs(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> uni(-1.0f, 1.0f);
    std::vector<Tensor> pool;
    for (int i = 0; i < kInputPool; ++i) {
        Tensor x(Shape{kBatch, 3, 32, 32});
        for (int64_t j = 0; j < x.numel(); ++j)
            x[j] = uni(rng);
        pool.push_back(std::move(x));
    }
    return pool;
}

/** Outputs of `model` compiled for `kind` on every input: the oracle's
 * expected outputs (an engine independent of the one under test),
 * computed outside the timed and set-up windows. */
std::vector<Tensor>
outputsOf(const Model& model, FrameworkKind kind, const std::vector<Tensor>& inputs)
{
    Compiler compiler(makeCpuDevice(kThreads));
    auto compiled = compiler.compile(model, kind);
    if (!compiled.ok())
        die("oracle compile failed: " + compiled.status().toString());
    InferenceSession session(*compiled);
    std::vector<Tensor> out;
    for (const Tensor& x : inputs)
        out.push_back(session.run(x));
    return out;
}

pb::Outcome
judge(const Tensor& got, const Tensor& want)
{
    if (got.numel() != want.numel())
        return pb::Outcome::kWrong;
    return pb::compareOutput(got.data(), want.data(), got.numel(), kRtol).ok
               ? pb::Outcome::kOk
               : pb::Outcome::kWrong;
}

// ---------------------------------------------------------------------------
// Closed loop: one client, one session per engine, alternating order.
// ---------------------------------------------------------------------------

/** One engine under test in a closed loop. */
struct Side
{
    InferenceSession* session = nullptr;
    const std::vector<Tensor>* expected = nullptr;
    std::vector<pb::Op> ops;
    std::vector<pb::Op> traced_ops;  ///< Trace mode: ops with the Tracer on.
    RunProfile profile;              ///< Trace mode: merged per-run profiles.
    double profiled_wall_ms = 0.0;   ///< Trace mode: op time behind `profile`.
    std::vector<std::pair<int64_t, int64_t>> traced_windows;  ///< [start, end) ns.
};

void
runOne(Side& side, const Tensor& input, size_t idx, int64_t images, bool traced,
       pb::SpanLog& spans, int parent, int64_t request)
{
    pb::Op op;
    op.images = images;
    int64_t t0 = pb::nowNs();
    try {
        Tensor y = side.session->run(input);
        op.outcome = judge(y, (*side.expected)[idx]);
    } catch (const std::exception&) {
        op.outcome = pb::Outcome::kErrored;
    }
    int64_t t1 = pb::nowNs();
    op.latency_ms = static_cast<double>(t1 - t0) / 1e6;
    spans.add("InferenceSession::run", t0, t1, parent, request);
    if (spans.enabled()) {
        side.profile.merge(side.session->lastRunProfile());
        side.profiled_wall_ms += op.latency_ms;
        if (traced) {
            side.traced_ops.push_back(op);
            side.traced_windows.emplace_back(t0, t1);
            return;
        }
    }
    side.ops.push_back(op);
}

/**
 * Alternate the sides for `seconds`: pair j runs them in order for
 * even j and reversed for odd j. In trace mode the Tracer is on for
 * every other two pairs, so traced and untraced runs see both orders.
 */
void
closedLoop(std::vector<Side*> sides, const std::vector<Tensor>& inputs, double seconds,
           uint64_t seed, int64_t images, pb::SpanLog& spans, int parent)
{
    std::mt19937_64 rng(seed);
    const int64_t end = pb::nowNs() + static_cast<int64_t>(seconds * 1e9);
    int64_t request = 0;
    for (int64_t pair = 0; pb::nowNs() < end; ++pair) {
        bool traced = spans.enabled() && (pair / 2) % 2 == 1;
        Tracer::setEnabled(traced);
        size_t idx = static_cast<size_t>(rng() % inputs.size());
        for (size_t k = 0; k < sides.size(); ++k) {
            Side& s = *sides[pair % 2 == 0 ? k : sides.size() - 1 - k];
            runOne(s, inputs[idx], idx, images, traced, spans, parent, request++);
        }
    }
    Tracer::setEnabled(false);
}

// ---------------------------------------------------------------------------
// Open loop: Poisson arrivals through the ShardRouter.
// ---------------------------------------------------------------------------

/** The mbv2-serve deployment: replica servers (kept for their
 * ServerStats) behind one router. */
struct ServeFleet
{
    std::vector<std::shared_ptr<InferenceServer>> servers;
    std::unique_ptr<ShardRouter> router;
};

std::unique_ptr<ServeFleet>
makeFleet(std::shared_ptr<const CompiledModel> model)
{
    auto fleet = std::make_unique<ServeFleet>();
    RouterOptions ropts;
    ropts.policy = RoutePolicy::kConsistentHash;
    fleet->router = std::make_unique<ShardRouter>(ropts);
    ServerOptions sopts;
    sopts.workers = 1;
    sopts.max_batch = kMaxBatch;
    for (int r = 0; r < kReplicas; ++r) {
        auto server = std::make_shared<InferenceServer>(model, sopts);
        fleet->servers.push_back(server);
        fleet->router->addReplica(kRouteName, std::make_shared<LocalReplica>(server));
    }
    return fleet;
}

struct ServeRun
{
    std::vector<pb::Op> ops;    ///< In due order.
    std::vector<double> lags;   ///< Generator lateness per arrival, ms.
    double wall_s = 0.0;        ///< Schedule start to last response.
};

/** FIFO of accepted requests for one replica (each replica's single
 * worker completes its requests in submission order, so waiting on
 * them in order timestamps each response when it becomes ready). */
struct Collector
{
    struct Pending
    {
        size_t i = 0;          ///< Arrival index.
        int64_t sent_ns = 0;
        std::future<Tensor> fut;
    };
    std::mutex mutex;  ///< Guards queue and closed.
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool closed = false;
};

/** One Collector and its waiting thread per replica. The destructor
 * closes and joins them, so no thread outlives what it reads even when
 * the dispatcher throws. */
struct CollectorSet
{
    std::vector<Collector> collectors;
    std::vector<std::thread> threads;

    CollectorSet() : collectors(kReplicas) {}
    CollectorSet(const CollectorSet&) = delete;
    CollectorSet& operator=(const CollectorSet&) = delete;
    ~CollectorSet() { closeAndJoin(); }

    void
    closeAndJoin()
    {
        for (Collector& c : collectors) {
            {
                std::lock_guard<std::mutex> lk(c.mutex);
                c.closed = true;
            }
            c.cv.notify_one();
        }
        for (std::thread& t : threads)
            if (t.joinable())
                t.join();
    }
};

ServeRun
serveOpenLoop(ServeFleet& fleet, double rate, double seconds, uint64_t seed,
              const std::vector<Tensor>& inputs, const std::vector<Tensor>& expected,
              pb::SpanLog& spans, int parent)
{
    std::vector<double> due = pb::poissonSchedule(rate, seconds, seed);
    std::mt19937_64 rng(seed ^ 0x5bd1e995u);
    std::vector<uint64_t> keys(due.size());
    std::vector<size_t> idx(due.size());
    for (size_t i = 0; i < due.size(); ++i) {
        keys[i] = rng();
        idx[i] = static_cast<size_t>(rng() % inputs.size());
    }

    ServeRun run;
    run.ops.resize(due.size());
    run.lags.resize(due.size());
    const int64_t start = pb::nowNs() + 2'000'000;  // 2 ms to get going.
    auto dueNs = [&](size_t i) { return start + static_cast<int64_t>(due[i] * 1e6); };

    CollectorSet waiters;
    for (int r = 0; r < kReplicas; ++r) {
        waiters.threads.emplace_back([&, r] {
            Collector& c = waiters.collectors[static_cast<size_t>(r)];
            for (;;) {
                Collector::Pending p;
                {
                    std::unique_lock<std::mutex> lk(c.mutex);
                    c.cv.wait(lk, [&] { return c.closed || !c.queue.empty(); });
                    if (c.queue.empty())
                        return;
                    p = std::move(c.queue.front());
                    c.queue.pop_front();
                }
                pb::Op op;
                try {
                    Tensor y = p.fut.get();
                    op.outcome = judge(y, expected[idx[p.i]]);
                } catch (const std::exception&) {
                    op.outcome = pb::Outcome::kErrored;
                }
                int64_t done = pb::nowNs();
                op.latency_ms = static_cast<double>(done - dueNs(p.i)) / 1e6;
                run.ops[p.i] = op;
                spans.add("ShardRouter::trySubmit->ready", p.sent_ns, done, parent,
                          static_cast<int64_t>(p.i));
            }
        });
    }

    for (size_t i = 0; i < due.size(); ++i) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(dueNs(i))));
        int64_t sent = pb::nowNs();
        run.lags[i] = pb::lagMs(start, due[i], sent);
        std::future<Tensor> fut;
        int replica = -1;
        auto accepted =
            fleet.router->trySubmit(kRouteName, keys[i], inputs[idx[i]], &fut, {}, &replica);
        if (!accepted.ok() || replica < 0) {
            pb::Op op;
            op.outcome = pb::Outcome::kRefused;
            op.latency_ms = msSince(dueNs(i));
            run.ops[i] = op;
            continue;
        }
        Collector& c = waiters.collectors[static_cast<size_t>(replica)];
        {
            std::lock_guard<std::mutex> lk(c.mutex);
            c.queue.push_back({i, sent, std::move(fut)});
        }
        c.cv.notify_one();
    }
    waiters.closeAndJoin();
    run.wall_s = static_cast<double>(pb::nowNs() - start) / 1e9;
    return run;
}

/** Serving-stats delta between two snapshots of the whole fleet. */
struct FleetStats
{
    int64_t completed = 0, batches = 0, rejected = 0, deadline_exceeded = 0;
};

FleetStats
fleetStats(const ServeFleet& fleet)
{
    FleetStats s;
    for (const auto& server : fleet.servers) {
        ServerStats st = server->stats();
        s.completed += st.completed;
        s.batches += st.batches;
        s.rejected += st.rejected;
        s.deadline_exceeded += st.deadline_exceeded;
    }
    return s;
}

// ---------------------------------------------------------------------------
// Per-layer attribution helpers (trace mode).
// ---------------------------------------------------------------------------

/** Nonzero-weight MACs per call of every conv node, at `batch`. */
std::vector<double>
nodeMacs(const CompiledModel& model, int64_t batch)
{
    std::vector<CompiledLayerState> state = model.exportState();
    std::vector<double> macs(state.size(), 0.0);
    for (size_t i = 0; i < state.size(); ++i) {
        const CompiledLayerState& s = state[i];
        if (!s.live || s.kind != OpKind::kConv)
            continue;
        int64_t nnz = 0;
        if (s.fkw) {
            for (float v : s.fkw->weights)
                nnz += v != 0.0f ? 1 : 0;
        } else {
            nnz = s.weight.countNonZero();
        }
        macs[i] = static_cast<double>(nnz) * static_cast<double>(s.conv.outH()) *
                  static_cast<double>(s.conv.outW()) * static_cast<double>(batch);
    }
    return macs;
}

/** Effective GFLOP/s (2 FLOPs per nonzero MAC) of profile entry i. */
double
entryGflops(const RunProfileEntry& e, double macs_per_call)
{
    if (e.total_ns == 0)
        return 0.0;
    return 2.0 * macs_per_call * static_cast<double>(e.calls) / static_cast<double>(e.total_ns);
}

struct KindTotals
{
    double ms_per_run = 0.0;
    double gflops = 0.0;
};

KindTotals
kindTotals(const RunProfile& p, const std::vector<double>& macs, const std::string& kind)
{
    KindTotals k;
    if (p.runs == 0)
        return k;
    double ns = 0.0, flops = 0.0;
    for (size_t i = 0; i < p.entries.size(); ++i) {
        const RunProfileEntry& e = p.entries[i];
        if (e.kind != kind || e.calls == 0)
            continue;
        ns += static_cast<double>(e.total_ns);
        if (i < macs.size())
            flops += 2.0 * macs[i] * static_cast<double>(e.calls);
    }
    k.ms_per_run = ns / 1e6 / static_cast<double>(p.runs);
    k.gflops = ns > 0.0 ? flops / ns : 0.0;
    return k;
}

/** Durations (ms) of Tracer events named `name` whose span lies inside
 * one of `windows` (the benchmark's own spans around one engine's
 * runs) and whose numeric arg equals `batch`. */
std::vector<double>
containedDurations(const std::vector<TraceEvent>& events, const char* name, int64_t batch,
                   const std::vector<std::pair<int64_t, int64_t>>& windows)
{
    std::vector<double> out;
    for (const TraceEvent& e : events) {
        if (std::string(e.name) != name || e.arg_value != batch)
            continue;
        auto it = std::upper_bound(
            windows.begin(), windows.end(), std::make_pair(e.ts_ns, INT64_MAX));
        if (it == windows.begin())
            continue;
        --it;
        if (e.ts_ns >= it->first && e.ts_ns + e.dur_ns <= it->second)
            out.push_back(static_cast<double>(e.dur_ns) / 1e6);
    }
    return out;
}

/** Chrome trace_event JSON of the program's Tracer events plus the
 * benchmark's own spans (pid 2, with parent and request ids). */
void
writeTrace(const std::string& path, const std::vector<TraceEvent>& events,
           const std::vector<pb::Span>& spans)
{
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    bool first = true;
    char buf[512];
    for (const TraceEvent& e : events) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                      first ? "" : ",\n", e.name, e.cat, static_cast<double>(e.ts_ns) / 1e3,
                      static_cast<double>(e.dur_ns) / 1e3, e.tid);
        os << buf;
        first = false;
    }
    for (const pb::Span& s : spans) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":2,\"tid\":%u,\"args\":{\"id\":%d,\"parent\":%d,"
                      "\"request\":%lld}}",
                      first ? "" : ",\n", s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                      static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid, s.id, s.parent,
                      static_cast<long long>(s.request));
        os << buf;
        first = false;
    }
    os << "]}\n";
}

// ---------------------------------------------------------------------------
// The workload run.
// ---------------------------------------------------------------------------

struct Report
{
    std::map<std::string, pb::Metric> metrics;
    std::vector<pb::Op> all_ops;  ///< Every timed, checked operation.
};

void
put(Report& r, const std::string& name, double value, const char* unit)
{
    r.metrics[name] = {value, unit};
}

const char*
verdict(bool pass)
{
    return pass ? "PASS" : "FAIL";
}

/** Print one claim record; `result` is PASS, FAIL or N/A (a claim the
 * workload does not measure, whose metric then reads 0). */
void
claim(Report& r, const std::string& name, double measured, const char* unit,
      const char* result, const char* bar)
{
    std::printf("claim {\"claim\": \"%s\", \"measured\": %.6g, \"bar\": \"%s\", "
                "\"verdict\": \"%s\"}\n",
                name.c_str(), measured, bar, result);
    put(r, "claim." + name, measured, unit);
}

void
append(std::vector<pb::Op>& to, const std::vector<pb::Op>& from)
{
    to.insert(to.end(), from.begin(), from.end());
}

const char* const kVggConvs[] = {"conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1",
                                 "conv3_2", "conv3_3", "conv4_1", "conv4_2", "conv4_3",
                                 "conv5_1", "conv5_2", "conv5_3"};

Report
runWorkload(const WorkloadSpec& w, const Args& args)
{
    Report rep;
    pb::SpanLog spans(args.trace);
    if (args.trace)
        Tracer::setRingCapacity(1 << 16);
    const int root = spans.begin(std::string("workload ") + w.name);
    const bool pat = w.engine == FrameworkKind::kPatDnn;  // With a dense half.
    const int64_t run_start_ns = pb::nowNs();

    // --- Set-up, repeated; setup_s is the median. -------------------------
    std::vector<double> setup_s, build_ms, compile_ms, save_ms, load_ms;
    Model model;
    Deployed dut;  // The engine under test, as restored by loadModel.
    std::unique_ptr<InferenceSession> session;  // Closed loop / idle runs.
    std::unique_ptr<ServeFleet> fleet;
    std::vector<Tensor> warm = makeInputs(args.seed ^ 0xfeedu);
    for (int k = 0; k < w.setup_reps; ++k) {
        fleet.reset();
        session.reset();
        int span = spans.begin("setup", root);
        int64_t t0 = pb::nowNs();
        double build_one_ms = 0.0;
        model = build(w, spans, span, &build_one_ms);
        dut = deploy(w, model, w.engine, spans, span);
        int64_t tc = pb::nowNs();
        session = std::make_unique<InferenceSession>(dut.loaded);
        if (w.serve)
            fleet = makeFleet(dut.loaded);
        spans.add("construct", tc, pb::nowNs(), span);
        int64_t tw = pb::nowNs();
        for (int i = 0; i < kWarmupRuns; ++i)
            session->run(warm[0]);
        if (w.serve) {
            std::vector<std::future<Tensor>> futs;
            for (uint64_t key = 0; key < 2 * kMaxBatch; ++key)
                futs.push_back(fleet->router->submit(kRouteName, key, warm[0]));
            for (auto& f : futs)
                f.get();
        }
        spans.add("warmup", tw, pb::nowNs(), span);
        setup_s.push_back(static_cast<double>(pb::nowNs() - t0) / 1e9);
        spans.end(span);
        build_ms.push_back(build_one_ms);
        compile_ms.push_back(dut.compile_ms);
        save_ms.push_back(dut.save_ms);
        load_ms.push_back(dut.load_ms);
    }
    const size_t arena_bytes = session->activationBytes();
    const int64_t setup_end_ns = pb::nowNs();

    // --- Outside set-up: dense half, inputs, oracle. -----------------------
    int aux = spans.begin("dense+oracle", root);
    Deployed dense;
    std::unique_ptr<InferenceSession> dense_session;
    if (pat) {
        dense = deploy(w, model, FrameworkKind::kPatDnnDense, spans, aux);
        dense_session = std::make_unique<InferenceSession>(dense.loaded);
        for (int i = 0; i < kWarmupRuns; ++i)
            dense_session->run(warm[0]);
    }
    const int64_t oracle_start_ns = pb::nowNs();
    std::vector<Tensor> inputs = makeInputs(args.seed);
    std::vector<Tensor> want = outputsOf(model, oracleFor(w.engine), inputs);
    std::vector<Tensor> want_dense;
    if (pat)
        want_dense = outputsOf(model, oracleFor(FrameworkKind::kPatDnnDense), inputs);
    spans.end(aux);
    std::printf("phases %s: set-up x%d %.2f s, dense deploy %.2f s, oracle %.2f s\n", w.name,
                w.setup_reps, static_cast<double>(setup_end_ns - run_start_ns) / 1e9,
                static_cast<double>(oracle_start_ns - setup_end_ns) / 1e9,
                msSince(oracle_start_ns) / 1e3);

    // --- Measure. -----------------------------------------------------------
    Side ps, ds;  // Engine under test; dense half (kPatDnn only).
    ps.session = session.get();
    ps.expected = &want;
    ds.session = dense_session.get();
    ds.expected = &want_dense;
    std::vector<Side*> sides = {&ps};
    if (pat)
        sides.push_back(&ds);
    // Dense-engine timings: the dense half, or the engine under test
    // itself when that is kPatDnnDense.
    const Side& dside = pat ? ds : ps;
    const Deployed& ddep = pat ? dense : dut;
    std::vector<TraceEvent> events;        // Trace mode: closed-loop runs.
    std::vector<TraceEvent> serve_events;  // Trace mode: traced serving.
    auto drainTracer = [](std::vector<TraceEvent>& into) {
        std::vector<TraceEvent> ev = Tracer::collect();
        Tracer::clear();
        into.insert(into.end(), ev.begin(), ev.end());
    };
    ServeRun serve_plain, serve_traced;
    FleetStats fs0, fs1;
    RouterStats rs0, rs1;
    if (w.serve) {
        fs0 = fleetStats(*fleet);
        rs0 = fleet->router->stats(kRouteName);
    }
    // Closed loops measure in one stretch. mbv2-serve interleaves rounds
    // of [idle closed loop, open-loop serving] across the window, so both
    // of its timings sample all of it; in trace mode the Tracer is on for
    // the serving of odd rounds.
    const int rounds = w.serve ? kServeRounds : 1;
    for (int r = 0; r < rounds; ++r) {
        const uint64_t round_seed = args.seed + 100 * static_cast<uint64_t>(r);
        const double closed_s = (w.serve ? 0.2 : 1.0) * args.seconds / rounds;
        int measure = spans.begin("closed-loop", root);
        closedLoop(sides, inputs, closed_s, round_seed + 1, kBatch, spans, measure);
        spans.end(measure);
        if (args.trace)
            drainTracer(events);
        if (!w.serve)
            continue;
        const bool traced = args.trace && r % 2 == 1;
        int serve_span = spans.begin(traced ? "serve traced" : "serve", root);
        Tracer::setEnabled(traced);
        ServeRun part = serveOpenLoop(*fleet, kServeRateRps, 0.8 * args.seconds / rounds,
                                      round_seed + 2, inputs, want, spans, serve_span);
        Tracer::setEnabled(false);
        spans.end(serve_span);
        if (traced)
            drainTracer(serve_events);
        ServeRun& into = traced ? serve_traced : serve_plain;
        append(into.ops, part.ops);
        into.lags.insert(into.lags.end(), part.lags.begin(), part.lags.end());
        into.wall_s += part.wall_s;
    }

    std::vector<pb::Op> headline = ps.ops;  // Latency source for e2e metrics.
    double headline_images_per_s = 0.0;
    if (w.serve) {
        fs1 = fleetStats(*fleet);
        rs1 = fleet->router->stats(kRouteName);
        headline = serve_plain.ops;
        int64_t images = 0;
        for (const pb::Op& op : headline)
            images += op.outcome == pb::Outcome::kOk || op.outcome == pb::Outcome::kWrong ? 1 : 0;
        headline_images_per_s = static_cast<double>(images) / serve_plain.wall_s;
    } else {
        headline_images_per_s = pb::percentile(pb::partThroughputs(headline, kParts), 100);
    }

    append(rep.all_ops, ps.ops);
    append(rep.all_ops, ps.traced_ops);
    append(rep.all_ops, ds.ops);  // Empty without a dense half.
    append(rep.all_ops, ds.traced_ops);
    append(rep.all_ops, serve_plain.ops);
    append(rep.all_ops, serve_traced.ops);

    std::vector<double> lat = pb::answeredLatencies(headline);
    std::vector<double> dense_lat = pb::answeredLatencies(dside.ops);
    std::vector<double> slo_lat = pb::sloLatencies(headline);
    std::printf("samples %s: %zu headline operations, %zu dense runs\n", w.name,
                headline.size(), dside.ops.size());
    // Whole-window percentiles, the SLO view, in which every failed
    // operation is infinitely late, and the part medians are printed for
    // reading only: on a shared host the whole-window figures move with
    // neighbour load too much to gate on.
    std::printf("info latency_p50_ms %g, latency_p90_ms %g, latency_p99_ms %g, "
                "dense_latency_p50_ms %g, latency_p50_ms_failures_inf %g, "
                "latency_p99_ms_failures_inf %g\n",
                pb::percentile(lat, 50), pb::percentile(lat, 90), pb::percentile(lat, 99),
                pb::percentile(dense_lat, 50), pb::percentile(slo_lat, 50),
                pb::percentile(slo_lat, 99));
    auto printParts = [](const char* label, const std::vector<double>& xs) {
        std::printf("info %s part medians (ms):", label);
        for (double m : pb::partMedians(xs, kParts))
            std::printf(" %.3f", m);
        std::printf("\n");
    };
    printParts("latency", lat);
    printParts("dense_latency", dense_lat);

    if (!args.trace) {
        put(rep, "setup_s", pb::median(setup_s), "s");
        put(rep, "latency_p50_ms", pb::percentile(pb::partMedians(lat, kParts), 0), "ms");
        put(rep, "throughput_ips", headline_images_per_s, "1/s");
        put(rep, "dense_latency_p50_ms", pb::percentile(pb::partMedians(dense_lat, kParts), 0),
            "ms");
        put(rep, "model_mb", static_cast<double>(dut.artifact_bytes) / 1e6, "MB");
        put(rep, "arena_mb", static_cast<double>(arena_bytes) / 1e6, "MB");
        return rep;
    }

    // --- Trace mode: per-layer metrics. ------------------------------------
    put(rep, "nn.build_ms", pb::median(build_ms), "ms");
    put(rep, "core.compile_ms", pb::median(compile_ms), "ms");
    put(rep, "artifact.save_ms", pb::median(save_ms), "ms");
    put(rep, "artifact.load_ms", pb::median(load_ms), "ms");
    put(rep, "artifact.bytes", static_cast<double>(dut.artifact_bytes), "B");
    put(rep, "sparse.conv_nonzeros", static_cast<double>(dut.conv_nonzeros), "count");
    const double compression = static_cast<double>(dut.conv_dense) /
                               static_cast<double>(std::max<int64_t>(1, dut.conv_nonzeros));
    put(rep, "sparse.compression_x", compression, "x");
    put(rep, "memplan.arena_bytes",
        static_cast<double>(dut.loaded->memoryPlan().arenaBytes(kBatch)), "B");
    put(rep, "memplan.reuse_x", dut.reuse_x, "x");

    const std::vector<double> dut_macs = nodeMacs(*dut.loaded, kBatch);
    const std::vector<double> dense_macs = nodeMacs(*ddep.loaded, kBatch);
    for (const char* kind : {"pattern", "naive", "add", "pool", "fc"})
        put(rep, std::string("rt.") + kind + "_ms",
            kindTotals(ps.profile, dut_macs, kind).ms_per_run, "ms");
    for (const char* kind : {"im2col", "winograd"})
        put(rep, std::string("rt.") + kind + "_ms",
            kindTotals(dside.profile, dense_macs, kind).ms_per_run, "ms");
    const double runs = static_cast<double>(std::max<int64_t>(1, ps.profile.runs));
    const double entries_ms = static_cast<double>(ps.profile.totalNs()) / 1e6;
    const double attribution = ps.profiled_wall_ms > 0.0 ? entries_ms / ps.profiled_wall_ms : 0.0;
    put(rep, "rt.glue_ms", (ps.profiled_wall_ms - entries_ms) / runs, "ms");
    put(rep, "rt.attribution", attribution, "frac");
    put(rep, "rt.pattern_gflops", kindTotals(ps.profile, dut_macs, "pattern").gflops, "GFLOP/s");
    put(rep, "rt.im2col_gflops", kindTotals(dside.profile, dense_macs, "im2col").gflops,
        "GFLOP/s");
    put(rep, "rt.winograd_gflops", kindTotals(dside.profile, dense_macs, "winograd").gflops,
        "GFLOP/s");

    // Per-conv pattern vs dense GFLOP/s (Fig. 17 through the runtime's
    // own path); profiles are indexed by node id, as is exportState().
    // Without a dense half ds.profile is empty and no pair is formed.
    double min_ratio = pb::kInf;
    std::map<std::string, std::pair<double, double>> conv_gflops;
    for (size_t i = 0; i < ps.profile.entries.size() && i < ds.profile.entries.size(); ++i) {
        const RunProfileEntry& pe = ps.profile.entries[i];
        const RunProfileEntry& de = ds.profile.entries[i];
        if (pe.kind != "pattern" || (de.kind != "im2col" && de.kind != "winograd"))
            continue;
        double pg = entryGflops(pe, dut_macs[i]), dg = entryGflops(de, dense_macs[i]);
        conv_gflops[pe.name] = {pg, dg};
        if (dg > 0.0)
            min_ratio = std::min(min_ratio, pg / dg);
    }
    if (!std::isfinite(min_ratio))
        min_ratio = 0.0;
    for (const char* conv : kVggConvs) {
        auto it = conv_gflops.find(conv);
        bool vgg = std::string(w.zoo) == "VGG" && it != conv_gflops.end();
        put(rep, std::string("rt.vgg.") + conv + ".pattern_gflops", vgg ? it->second.first : 0.0,
            "GFLOP/s");
        put(rep, std::string("rt.vgg.") + conv + ".dense_gflops", vgg ? it->second.second : 0.0,
            "GFLOP/s");
    }

    // Serving layers.
    double inflation = 0.0, qw50 = 0.0, qw99 = 0.0, bf = 0.0, disp = 0.0, avg_batch = 0.0;
    double skew = 0.0, lag99 = 0.0, goodput = 0.0, max_rps = 0.0;
    if (w.serve) {
        std::vector<double> idle = containedDurations(events, "model.run", 1, ps.traced_windows);
        std::vector<double> loaded_runs, qw;
        double bf_sum = 0.0, disp_sum = 0.0;
        int64_t bf_n = 0, disp_n = 0;
        for (const TraceEvent& e : serve_events) {
            std::string n = e.name;
            double ms = static_cast<double>(e.dur_ns) / 1e6;
            if (n == "model.run" && e.arg_value == 1)
                loaded_runs.push_back(ms);
            else if (n == "queue_wait" && e.ts_ns > 0)
                qw.push_back(ms);
            else if (n == "batch_form")
                bf_sum += ms, ++bf_n;
            else if (n == "dispatch")
                disp_sum += ms, ++disp_n;
        }
        if (!idle.empty() && !loaded_runs.empty())
            inflation = pb::median(loaded_runs) / pb::median(idle);
        qw50 = pb::percentile(qw, 50);
        qw99 = pb::percentile(qw, 99);
        bf = bf_n ? bf_sum / static_cast<double>(bf_n) : 0.0;
        disp = disp_n ? disp_sum / static_cast<double>(disp_n) : 0.0;
        int64_t batches = fs1.batches - fs0.batches;
        avg_batch = batches ? static_cast<double>(fs1.completed - fs0.completed) /
                                  static_cast<double>(batches)
                            : 0.0;
        double routed_max = 0.0, routed_sum = 0.0;
        for (size_t r = 0; r < rs1.replicas.size(); ++r) {
            double d = static_cast<double>(rs1.replicas[r].routed - rs0.replicas[r].routed);
            routed_max = std::max(routed_max, d);
            routed_sum += d;
        }
        skew = routed_sum > 0.0 ? routed_max * static_cast<double>(rs1.replicas.size()) / routed_sum
                                : 0.0;
        std::vector<double> lags = serve_plain.lags;
        lags.insert(lags.end(), serve_traced.lags.begin(), serve_traced.lags.end());
        lag99 = pb::percentile(lags, 99);
        goodput = pb::goodputRps(serve_plain.ops, kSloMs, serve_plain.wall_s);

        // max_rps_at_slo: ascending frozen probes; stop at the first miss.
        int search = spans.begin("slo-search", root);
        for (double rate : kProbeRates) {
            ServeRun probe = serveOpenLoop(*fleet, rate, kProbeSeconds,
                                           args.seed + static_cast<uint64_t>(rate), inputs,
                                           want, spans, search);
            append(rep.all_ops, probe.ops);
            std::vector<double> pl = pb::sloLatencies(probe.ops);
            pb::Accounting pa = pb::account(probe.ops);
            bool pass = pb::percentile(pl, 99) <= kSloMs &&
                        pa.failFrac() <= kMaxFailFracAtSlo &&
                        !pb::backlogGrowing(pb::answeredLatencies(probe.ops), kSloMs);
            std::printf("probe %.0f rps: p99 %g ms, fail_frac %.3f -> %s\n", rate,
                        pb::percentile(pl, 99), pa.failFrac(), pass ? "meets SLO" : "misses SLO");
            if (!pass)
                break;
            max_rps = rate;
        }
        spans.end(search);
    } else {
        int64_t good_images = 0;
        double busy_s = 0.0;
        for (const pb::Op& op : ps.ops) {
            busy_s += op.latency_ms / 1e3;
            good_images += op.outcome == pb::Outcome::kOk ? op.images : 0;
        }
        goodput = busy_s > 0.0 ? static_cast<double>(good_images) / busy_s : 0.0;
    }
    put(rep, "pool.run_inflation", inflation, "x");
    put(rep, "serve.queue_wait_p50_ms", qw50, "ms");
    put(rep, "serve.queue_wait_p99_ms", qw99, "ms");
    put(rep, "serve.batch_form_ms", bf, "ms");
    put(rep, "serve.dispatch_ms", disp, "ms");
    put(rep, "serve.avg_batch", avg_batch, "count");
    put(rep, "serve.rejected", static_cast<double>(fs1.rejected - fs0.rejected), "count");
    put(rep, "serve.deadline_exceeded",
        static_cast<double>(fs1.deadline_exceeded - fs0.deadline_exceeded), "count");
    put(rep, "router.replica_skew", skew, "x");
    put(rep, "router.failovers", static_cast<double>(rs1.failovers - rs0.failovers), "count");
    put(rep, "gen.lag_p99_ms", lag99, "ms");

    // Tracing overhead: traced vs untraced latency p50 of the headline path.
    const std::vector<pb::Op>& traced_head = w.serve ? serve_traced.ops : ps.traced_ops;
    double p50_plain = pb::percentile(pb::answeredLatencies(headline), 50);
    double p50_traced = pb::percentile(pb::answeredLatencies(traced_head), 50);
    put(rep, "trace.overhead_frac", p50_plain > 0.0 ? p50_traced / p50_plain - 1.0 : 0.0, "frac");

    pb::Accounting acc = pb::account(headline);
    put(rep, "slo.fail_frac", acc.failFrac(), "frac");
    put(rep, "slo.goodput_rps", goodput, "1/s");
    put(rep, "slo.max_rps_at_slo", max_rps, "1/s");

    // Paper-claim records. Fig. 12, 16 and 17 compare PatDNN with dense,
    // which only the workloads that time kPatDnn measure.
    double pat_p50 = pb::percentile(pb::answeredLatencies(ps.ops), 50);
    double dense_p50 = pb::percentile(dense_lat, 50);
    double speedup = pat && pat_p50 > 0.0 ? dense_p50 / pat_p50 : 0.0;
    claim(rep, "fig12_speedup_x", speedup, "x", pat ? verdict(speedup > 1.0) : "N/A",
          "> 1 (dense p50 / PatDNN p50)");
    claim(rep, "fig17_min_ratio", min_ratio, "x", pat ? verdict(min_ratio >= 0.5) : "N/A",
          ">= 0.5 (min pattern/dense GFLOP/s over pattern convs)");
    claim(rep, "fig16_compression_x", pat ? compression : 0.0, "x",
          pat ? verdict(compression >= 8.0) : "N/A", ">= 8 (dense / nonzero conv weights)");
    claim(rep, "fig14_attribution", attribution, "frac", verdict(attribution >= 0.95),
          ">= 0.95 (profiled layer time / run time)");

    // The pattern engine against CSR-sparse (the same surviving weights)
    // on this workload's model, one input, outside every timed window.
    // It fails on MobileNet-V2 for as long as 1x1 convs come out
    // of the pattern engine as zeros.
    int probe = spans.begin("pattern-oracle-probe", root);
    const std::vector<Tensor> one = {inputs[0]};
    const Tensor probe_want = outputsOf(model, FrameworkKind::kCsrSparse, one)[0];
    const Tensor probe_got = outputsOf(model, FrameworkKind::kPatDnn, one)[0];
    spans.end(probe);
    pb::OracleCheck pc =
        pb::compareOutput(probe_got.data(), probe_want.data(), probe_got.numel(), kRtol);
    const double rel_err = pc.scale > 0.0 ? pc.max_abs_err / pc.scale : 1.0;
    claim(rep, "pattern_oracle_rel_err", rel_err, "frac", verdict(pc.ok),
          "<= 1e-3 (max |PatDNN - CSR-sparse| / max |CSR-sparse|)");

    spans.end(root);
    std::vector<TraceEvent> all_events = events;
    all_events.insert(all_events.end(), serve_events.begin(), serve_events.end());
    const std::string trace_path =
        outDir() + "/trace-" + w.name + "-seed" + std::to_string(args.seed) + ".json";
    writeTrace(trace_path, all_events, spans.spans());
    std::printf("trace written to %s (%zu program events, %zu benchmark spans)\n",
                trace_path.c_str(), all_events.size(), spans.spans().size());
    return rep;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args = parseArgs(argc, argv);
    const WorkloadSpec* spec = nullptr;
    for (const WorkloadSpec& w : kWorkloads)
        if (args.workload == w.name)
            spec = &w;
    if (spec == nullptr)
        die("unknown workload " + args.workload);

    std::printf("# zoo_bench %s seed=%llu seconds=%g trace=%d\n", spec->name,
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    Report rep = runWorkload(*spec, args);
    pb::Accounting acc = pb::account(rep.all_ops);
    for (const auto& [name, m] : rep.metrics)
        std::printf("metric %-40s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    std::printf("verdict %s: %s, attempted %lld, ok %lld, wrong %lld, refused %lld, "
                "errored %lld, fail_frac %.4f\n",
                spec->name, acc.failed() == 0 ? "correct" : "INCORRECT",
                static_cast<long long>(acc.attempted), static_cast<long long>(acc.ok),
                static_cast<long long>(acc.wrong), static_cast<long long>(acc.refused),
                static_cast<long long>(acc.errored), acc.failFrac());
    std::printf("%s\n", pb::resultJson(acc.failed() == 0 && acc.attempted > 0, acc.attempted,
                                       acc.failed(), rep.metrics)
                            .c_str());
    return 0;
}

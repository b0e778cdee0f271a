#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <sstream>
#include <thread>
#include <utility>

namespace perfbench {

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                  static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = rank - static_cast<double>(lo);
    if (frac == 0.0)
        return samples[lo];
    if (std::isinf(samples[hi]))
        return kInf;
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
Accounting::failFrac() const
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) / static_cast<double>(attempted);
}

Accounting
account(const std::vector<Op>& ops)
{
    Accounting a;
    a.attempted = static_cast<int64_t>(ops.size());
    for (const Op& op : ops) {
        switch (op.outcome) {
          case Outcome::kOk: ++a.ok; break;
          case Outcome::kWrong: ++a.wrong; break;
          case Outcome::kRefused: ++a.refused; break;
          case Outcome::kErrored: ++a.errored; break;
        }
    }
    return a;
}

std::vector<double>
sloLatencies(const std::vector<Op>& ops)
{
    std::vector<double> out;
    out.reserve(ops.size());
    for (const Op& op : ops)
        out.push_back(op.outcome == Outcome::kOk ? op.latency_ms : kInf);
    return out;
}

std::vector<double>
answeredLatencies(const std::vector<Op>& ops)
{
    std::vector<double> out;
    out.reserve(ops.size());
    for (const Op& op : ops)
        if (op.outcome == Outcome::kOk || op.outcome == Outcome::kWrong)
            out.push_back(op.latency_ms);
    return out;
}

namespace {

/** [begin, end) of part `k` of `n` items cut into `parts` parts. */
std::pair<size_t, size_t>
partRange(size_t n, int parts, int k)
{
    size_t p = static_cast<size_t>(std::max(1, parts));
    return {n * static_cast<size_t>(k) / p, n * static_cast<size_t>(k + 1) / p};
}

}  // namespace

std::vector<double>
partMedians(const std::vector<double>& xs, int parts)
{
    std::vector<double> out;
    for (int k = 0; k < std::max(1, parts); ++k) {
        auto [b, e] = partRange(xs.size(), parts, k);
        if (b < e)
            out.push_back(median(std::vector<double>(xs.begin() + static_cast<std::ptrdiff_t>(b),
                                                     xs.begin() + static_cast<std::ptrdiff_t>(e))));
    }
    return out;
}

std::vector<double>
partThroughputs(const std::vector<Op>& ops, int parts)
{
    std::vector<double> out;
    for (int k = 0; k < std::max(1, parts); ++k) {
        auto [b, e] = partRange(ops.size(), parts, k);
        double images = 0.0, seconds = 0.0;
        for (size_t i = b; i < e; ++i) {
            if (ops[i].outcome != Outcome::kOk && ops[i].outcome != Outcome::kWrong)
                continue;
            images += static_cast<double>(ops[i].images);
            seconds += ops[i].latency_ms / 1e3;
        }
        if (seconds > 0.0)
            out.push_back(images / seconds);
    }
    return out;
}

double
goodputRps(const std::vector<Op>& ops, double slo_ms, double seconds)
{
    if (seconds <= 0.0)
        return 0.0;
    int64_t good = 0;
    for (const Op& op : ops)
        if (op.outcome == Outcome::kOk && op.latency_ms <= slo_ms)
            ++good;
    return static_cast<double>(good) / seconds;
}

OracleCheck
compareOutput(const float* got, const float* want, int64_t n, double rtol)
{
    OracleCheck c;
    bool finite = true;
    for (int64_t i = 0; i < n; ++i) {
        double g = got[i], w = want[i];
        if (!std::isfinite(g))
            finite = false;
        c.scale = std::max(c.scale, std::fabs(w));
        c.max_abs_err = std::max(c.max_abs_err, std::fabs(g - w));
    }
    c.ok = finite && n > 0 && c.max_abs_err <= rtol * c.scale;
    return c;
}

std::vector<double>
poissonSchedule(double rate_rps, double seconds, uint64_t seed)
{
    int64_t n = std::llround(rate_rps * seconds);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> uni(0.0, seconds * 1000.0);
    std::vector<double> due(static_cast<size_t>(std::max<int64_t>(n, 0)));
    for (double& t : due)
        t = uni(rng);
    std::sort(due.begin(), due.end());
    return due;
}

double
lagMs(int64_t start_ns, double due_offset_ms, int64_t sent_ns)
{
    double lag = static_cast<double>(sent_ns - start_ns) / 1e6 - due_offset_ms;
    return std::max(0.0, lag);
}

bool
backlogGrowing(const std::vector<double>& lat, double slo_ms)
{
    if (lat.size() < 8)
        return false;
    size_t q = lat.size() / 4;
    std::vector<double> first(lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(q));
    std::vector<double> last(lat.end() - static_cast<std::ptrdiff_t>(q), lat.end());
    double m_last = median(last);
    return m_last > 2.0 * median(first) && m_last > slo_ms;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

uint32_t
threadTag()
{
    return static_cast<uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                                 100000u);
}

}  // namespace

int
SpanLog::add(const std::string& name, int64_t start_ns, int64_t end_ns, int parent,
             int64_t request)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lk(mutex_);
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.request = request;
    s.tid = threadTag();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

int
SpanLog::begin(const std::string& name, int parent, int64_t request)
{
    int64_t now = nowNs();
    return add(name, now, now, parent, request);
}

void
SpanLog::end(int id)
{
    if (!enabled_ || id < 0)
        return;
    int64_t now = nowNs();
    std::lock_guard<std::mutex> lk(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return spans_;
}

std::string
resultJson(bool correct, int64_t attempted, int64_t failed,
           const std::map<std::string, Metric>& metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
            std::abort();
        }
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", m.value);
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
           << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

}  // namespace perfbench

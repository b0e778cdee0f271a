// Self-tests of the benchmark harness arithmetic (perfbench/src/harness.h).
// Build and run: python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace pb = perfbench;

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                              \
    do {                                                                          \
        if (!(cond)) {                                                            \
            std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, __LINE__, \
                         #cond);                                                  \
            ++g_failures;                                                         \
        }                                                                         \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

pb::Op
op(double ms, pb::Outcome outcome)
{
    pb::Op o;
    o.latency_ms = ms;
    o.outcome = outcome;
    return o;
}

void
percentilesCountFailuresAsInfinite()
{
    EXPECT(near(pb::percentile({1, 2, 3, 4}, 75), 3.25));
    EXPECT(near(pb::percentile({5}, 99), 5));
    EXPECT(pb::percentile({}, 50) == 0.0);
    // 10 ops, 2 failed: p50 stays finite, p90 interpolates into a
    // failure and is infinite, p80 sits exactly on the last success.
    std::vector<pb::Op> ops;
    for (int i = 1; i <= 8; ++i)
        ops.push_back(op(i, pb::Outcome::kOk));
    ops.push_back(op(1, pb::Outcome::kWrong));
    ops.push_back(op(0, pb::Outcome::kRefused));
    std::vector<double> slo = pb::sloLatencies(ops);
    EXPECT(near(pb::percentile(slo, 50), 5.5));
    EXPECT(near(pb::percentile(slo, 100.0 * 7 / 9), 8));
    EXPECT(std::isinf(pb::percentile(slo, 90)));
    // Half or more failed: the median itself is infinitely late.
    std::vector<pb::Op> bad = {op(1, pb::Outcome::kOk), op(1, pb::Outcome::kWrong),
                               op(1, pb::Outcome::kErrored)};
    EXPECT(std::isinf(pb::median(pb::sloLatencies(bad))));
    // The answered view keeps right and wrong answers only.
    std::vector<double> answered = pb::answeredLatencies(ops);
    EXPECT(answered.size() == 9);
    EXPECT(near(pb::percentile(answered, 50), 4));
}

void
goodputAndFailFracAccounting()
{
    std::vector<pb::Op> ops = {op(10, pb::Outcome::kOk),      op(40, pb::Outcome::kOk),
                               op(5, pb::Outcome::kWrong),    op(0, pb::Outcome::kRefused),
                               op(0, pb::Outcome::kErrored), op(33, pb::Outcome::kOk)};
    pb::Accounting a = pb::account(ops);
    EXPECT(a.attempted == 6);
    EXPECT(a.ok == 3 && a.wrong == 1 && a.refused == 1 && a.errored == 1);
    EXPECT(a.failed() == 3);
    EXPECT(near(a.failFrac(), 0.5));
    // Correct and within 33 ms (inclusive): 10 and 33 -> 2 over 2 s.
    EXPECT(near(pb::goodputRps(ops, 33.0, 2.0), 1.0));
    // A wrong answer is never goodput, however fast.
    EXPECT(pb::goodputRps({op(1, pb::Outcome::kWrong)}, 33.0, 1.0) == 0.0);
    EXPECT(pb::account({}).failFrac() == 0.0);
}

void
oracleFlagsOneFlippedElement()
{
    std::vector<float> want = {0.5f, -1.25f, 2.0f, 0.0f, 3.5f, -0.75f};
    std::vector<float> got = want;
    EXPECT(pb::compareOutput(got.data(), want.data(), 6, 1e-3).ok);
    // Rounding-level differences pass.
    got[2] += 1e-5f;
    EXPECT(pb::compareOutput(got.data(), want.data(), 6, 1e-3).ok);
    // One sign-flipped element fails.
    got = want;
    got[1] = -got[1];
    pb::OracleCheck c = pb::compareOutput(got.data(), want.data(), 6, 1e-3);
    EXPECT(!c.ok);
    EXPECT(near(c.max_abs_err, 2.5));
    EXPECT(near(c.scale, 3.5));
    // One flipped bit of the largest element's exponent fails.
    got = want;
    got[4] = 7.0f;
    EXPECT(!pb::compareOutput(got.data(), want.data(), 6, 1e-3).ok);
    // An all-zero output (what a skipped layer produces) fails.
    std::vector<float> zeros(6, 0.0f);
    EXPECT(!pb::compareOutput(zeros.data(), want.data(), 6, 1e-3).ok);
    // A NaN anywhere fails.
    got = want;
    got[3] = std::nanf("");
    EXPECT(!pb::compareOutput(got.data(), want.data(), 6, 1e-3).ok);
}

void
generatorLagArithmetic()
{
    const int64_t start = 1'000'000'000;
    // Due at +10 ms, sent at +12.5 ms -> 2.5 ms late.
    EXPECT(near(pb::lagMs(start, 10.0, start + 12'500'000), 2.5));
    // Sent early is zero lateness, not negative.
    EXPECT(pb::lagMs(start, 10.0, start + 9'000'000) == 0.0);
    // On time.
    EXPECT(pb::lagMs(start, 0.0, start) == 0.0);
}

void
scheduleIsSeededAndSized()
{
    std::vector<double> a = pb::poissonSchedule(50.0, 2.0, 7);
    std::vector<double> b = pb::poissonSchedule(50.0, 2.0, 7);
    std::vector<double> c = pb::poissonSchedule(50.0, 2.0, 8);
    EXPECT(a.size() == 100);
    EXPECT(a == b);
    EXPECT(a != c);
    bool sorted_in_range = true;
    for (size_t i = 0; i < a.size(); ++i)
        sorted_in_range &= a[i] >= 0.0 && a[i] < 2000.0 && (i == 0 || a[i - 1] <= a[i]);
    EXPECT(sorted_in_range);
}

void
backlogDetection()
{
    std::vector<double> steady(40, 10.0);
    EXPECT(!pb::backlogGrowing(steady, 33.0));
    std::vector<double> growing;
    for (int i = 0; i < 40; ++i)
        growing.push_back(10.0 + 5.0 * i);
    EXPECT(pb::backlogGrowing(growing, 33.0));
    // Growth that stays under the SLO is not a backlog.
    std::vector<double> mild;
    for (int i = 0; i < 40; ++i)
        mild.push_back(5.0 + 0.5 * i);
    EXPECT(!pb::backlogGrowing(mild, 33.0));
}

void
partStatistics()
{
    // Five parts of four; the third part is a burst of neighbour load.
    std::vector<double> lat = {10, 11, 10, 12, 10, 10, 11, 11, 40, 50, 45, 60,
                               10, 12, 11, 10, 11, 10, 10, 12};
    std::vector<double> meds = pb::partMedians(lat, 5);
    EXPECT(meds.size() == 5);
    EXPECT(near(meds[0], 10.5) && near(meds[2], 47.5) && near(meds[4], 10.5));
    // One part is the plain median; fewer samples than parts still work.
    EXPECT(near(pb::partMedians(lat, 1)[0], pb::median(lat)));
    EXPECT(pb::partMedians({7, 3}, 5) == std::vector<double>({7, 3}));
    EXPECT(pb::partMedians({}, 5).empty());
    // Part rates: 4 images over 0.5 s -> 8/s, then 4 over 1 s; the
    // refused ops of the last part carry no images and no time.
    std::vector<pb::Op> ops;
    for (double ms : {250.0, 250.0, 500.0, 500.0}) {
        pb::Op o = op(ms, pb::Outcome::kWrong);
        o.images = 2;
        ops.push_back(o);
    }
    ops.push_back(op(1, pb::Outcome::kRefused));
    ops.push_back(op(1, pb::Outcome::kRefused));
    EXPECT(pb::partThroughputs(ops, 3) == std::vector<double>({8.0, 4.0}));
    EXPECT(near(pb::partThroughputs(ops, 1)[0], 8.0 / 1.5));
}

void
resultLineShape()
{
    std::string line = pb::resultJson(true, 12, 0, {{"latency_p50_ms", {1.25, "ms"}}});
    EXPECT(line == "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
                   "{\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
}

}  // namespace

int
main()
{
    percentilesCountFailuresAsInfinite();
    goodputAndFailFracAccounting();
    oracleFlagsOneFlippedElement();
    generatorLagArithmetic();
    scheduleIsSeededAndSized();
    backlogDetection();
    partStatistics();
    resultLineShape();
    if (g_failures != 0) {
        std::fprintf(stderr, "harness_test: %d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("harness_test: all checks passed\n");
    return 0;
}

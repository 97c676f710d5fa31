// Self-test of the benchmark's statistics: the percentile sample rule,
// the geometric mean and span self-time subtraction. Metric units live in
// BENCHMARK.json; run.py attaches them and refuses a metric it lacks.
//
//   .bench_build/perfbench/perfbench_stats_test
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void
expect(bool ok, const char* what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
throws(const std::function<void()>& f)
{
    try {
        f();
    } catch (const std::invalid_argument&) {
        return true;
    }
    return false;
}

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)  // unsorted on purpose
        v.push_back(i);
    return v;
}

void
percentiles()
{
    using perfbench::minSamplesFor;
    using perfbench::percentile;
    expect(minSamplesFor(0.50) == 20, "p50 needs 20 samples");
    expect(minSamplesFor(0.90) == 100, "p90 needs 100 samples");
    expect(minSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
    expect(percentile(iota(20), 0.50) == 10, "p50 of 1..20 is 10");
    expect(percentile(iota(100), 0.90) == 90, "p90 of 1..100 is 90");
    expect(percentile(iota(1000), 0.99) == 990, "p99 of 1..1000 is 990");
    expect(throws([] { percentile(iota(19), 0.50); }),
           "p50 of 19 samples is refused");
    expect(throws([] { percentile(iota(99), 0.90); }),
           "p90 of 99 samples is refused");
    expect(throws([] { percentile(iota(999), 0.99); }),
           "p99 of 999 samples is refused");
    expect(throws([] { percentile(iota(50), 1.0); }), "q = 1 is refused");
    expect(perfbench::median({3, 1, 2}) == 2, "odd median");
    expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
}

void
geometricMean()
{
    expect(std::fabs(perfbench::gmean({1, 4, 16}) - 4.0) < 1e-12,
           "gmean of 1, 4, 16 is 4");
    expect(std::fabs(perfbench::gmean({7}) - 7.0) < 1e-12, "gmean of one value");
    expect(throws([] { perfbench::gmean({}); }), "gmean of nothing");
    expect(throws([] { perfbench::gmean({1, 0}); }), "gmean with a zero");
    expect(throws([] { perfbench::gmean({1, -2}); }), "gmean with a negative");
}

void
selfTime()
{
    using perfbench::Span;
    std::vector<Span> s = {
        {"op", 100, 200, -1, 0, false},
        {"a", 110, 140, 0, 0, false},   // nested
        {"b", 130, 150, 0, 0, false},   // overlaps a: union 110..150
        {"c", 190, 230, 0, 0, false},   // clipped to 190..200
        {"r", 500, 515, 0, 0, true},    // replayed: counts in full
        {"x", 120, 180, -1, 1, false},  // another root: not a child
        {"g", 112, 118, 1, 0, false},   // grandchild: a's, not op's
    };
    // 100 - (40 + 10) - 15 = 35
    expect(perfbench::selfTimeNs(s, 0) == 35, "op self time");
    expect(perfbench::selfTimeNs(s, 1) == 24, "a self time");
    expect(perfbench::selfTimeNs(s, 6) == 6, "leaf self time");
    std::vector<Span> over = {{"op", 0, 10, -1, 0, false},
                              {"r", 20, 40, 0, 0, true}};
    expect(perfbench::selfTimeNs(over, 0) == 0, "self time never negative");
}

}  // namespace

int
main()
{
    percentiles();
    geometricMean();
    selfTime();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench stats self-test: all checks passed\n");
    return 0;
}

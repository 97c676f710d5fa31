// Statistics and span bookkeeping for the end-to-end benchmark. Kept free
// of any dependency on the program under test so the self-test can check
// it on its own.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/** Samples a percentile must leave above its rank to be reported. */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/** 1-based nearest rank of percentile q in n sorted samples. */
inline std::size_t
nearestRank(double q, std::size_t n)
{
    // The epsilon keeps q * n that should be whole (0.9 * 100) from
    // rounding up past its rank.
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

/** Smallest sample count whose percentile q has kMinSamplesBeyond above. */
inline std::size_t
minSamplesFor(double q)
{
    std::size_t n = kMinSamplesBeyond + 1;
    while (n - nearestRank(q, n) < kMinSamplesBeyond)
        ++n;
    return n;
}

/**
 * Nearest-rank percentile (q in (0, 1)). Throws std::invalid_argument
 * unless at least kMinSamplesBeyond samples lie above the rank: a tail
 * percentile read off a handful of samples is the maximum in disguise.
 */
inline double
percentile(std::vector<double> v, double q)
{
    if (!(q > 0.0 && q < 1.0))
        throw std::invalid_argument("percentile: q must be in (0, 1)");
    if (v.size() < minSamplesFor(q)) {
        std::string msg = "percentile: p";
        msg += std::to_string(q * 100.0);
        msg += " of ";
        msg += std::to_string(v.size());
        msg += " samples has fewer than ";
        msg += std::to_string(kMinSamplesBeyond);
        msg += " samples beyond it";
        throw std::invalid_argument(msg);
    }
    std::size_t rank = nearestRank(q, v.size());
    std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                     v.end());
    return v[rank - 1];
}

/** Geometric mean of strictly positive values. */
inline double
gmean(const std::vector<double>& v)
{
    if (v.empty())
        throw std::invalid_argument("gmean: no values");
    double log_sum = 0.0;
    for (double x : v) {
        if (!(x > 0.0) || !std::isfinite(x))
            throw std::invalid_argument("gmean: value not positive finite");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

inline double
mean(const std::vector<double>& v)
{
    if (v.empty())
        throw std::invalid_argument("mean: no values");
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Median of any non-empty sample (mid-point of the two middle values). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median: no values");
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * One timed interval, recorded from the benchmark's side of a call.
 * `parent` is the index of the causing span in its log (-1 for a root);
 * spans of one operation share `op`. A `replayed` span re-ran part of
 * its parent's work through a layer's public function after the parent
 * ended, so it lies outside the parent's interval but still counts
 * against the parent's self time.
 */
struct Span {
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;
    int64_t op = -1;
    bool replayed = false;

    int64_t durationNs() const { return endNs - startNs; }
};

/**
 * Self time of `spans[index]`: its duration minus what its children
 * cover — the union of nested children clipped to its interval, plus
 * the full duration of replayed children. Never negative.
 */
inline int64_t
selfTimeNs(const std::vector<Span>& spans, std::size_t index)
{
    const Span& p = spans.at(index);
    std::vector<std::pair<int64_t, int64_t>> nested;
    int64_t replayed = 0;
    for (const Span& c : spans) {
        if (c.parent != static_cast<int>(index))
            continue;
        if (c.replayed) {
            replayed += c.durationNs();
            continue;
        }
        int64_t s = std::max(c.startNs, p.startNs);
        int64_t e = std::min(c.endNs, p.endNs);
        if (e > s)
            nested.emplace_back(s, e);
    }
    std::sort(nested.begin(), nested.end());
    int64_t covered = 0;
    int64_t cur_s = 0;
    int64_t cur_e = 0;
    bool open = false;
    for (auto [s, e] : nested) {
        if (open && s <= cur_e) {
            cur_e = std::max(cur_e, e);
            continue;
        }
        if (open)
            covered += cur_e - cur_s;
        cur_s = s;
        cur_e = e;
        open = true;
    }
    if (open)
        covered += cur_e - cur_s;
    return std::max<int64_t>(0, p.durationNs() - covered - replayed);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace magma::obs {

// ------------------------------------------------------------- level ---

std::string
metricsLevelName(MetricsLevel level)
{
    switch (level) {
    case MetricsLevel::Off:
        return "off";
    case MetricsLevel::Counters:
        return "counters";
    case MetricsLevel::Trace:
        return "trace";
    case MetricsLevel::Profile:
        return "profile";
    }
    return "counters";
}

MetricsLevel
metricsLevelFromName(const std::string& name)
{
    if (name == "off")
        return MetricsLevel::Off;
    if (name == "counters")
        return MetricsLevel::Counters;
    if (name == "trace")
        return MetricsLevel::Trace;
    if (name == "profile")
        return MetricsLevel::Profile;
    throw std::invalid_argument("unknown metrics level '" + name +
                                "' (expected off|counters|trace|profile)");
}

namespace {

std::atomic<int>&
levelCell()
{
    // -1 = not yet initialized from the environment.
    static std::atomic<int> cell{-1};
    return cell;
}

int
levelFromEnv()
{
    // getenv is safe here: called once from metricsLevel()'s static
    // initializer, and nothing in this process calls setenv.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("MAGMA_METRICS")) {
        try {
            return static_cast<int>(metricsLevelFromName(env));
        } catch (const std::invalid_argument&) {
            // An unparsable value must not abort the host process;
            // fall through to the default.
        }
    }
    return static_cast<int>(MetricsLevel::Counters);
}

}  // namespace

MetricsLevel
metricsLevel()
{
    // Memory order: relaxed is sufficient — the cell carries a small
    // enum with no dependent data behind it, and racing first calls
    // all compute the same value from the environment (either store
    // wins, idempotently). setMetricsLevel() from tests runs while no
    // search threads are live.
    int v = levelCell().load(std::memory_order_relaxed);
    if (v < 0) {
        v = levelFromEnv();
        levelCell().store(v, std::memory_order_relaxed);
    }
    return static_cast<MetricsLevel>(v);
}

void
setMetricsLevel(MetricsLevel level)
{
    levelCell().store(static_cast<int>(level), std::memory_order_relaxed);
}

double
nowSeconds()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

// --------------------------------------------------------- Histogram ---

Histogram::Histogram()
{
    for (auto& b : buckets_)
        b.store(0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

int
Histogram::bucketIndex(double v)
{
    if (!(v > 0.0) || !std::isfinite(v))
        return 0;
    int exp = 0;
    double frac = std::frexp(v, &exp);  // frac in [0.5, 1)
    if (exp < kMinExp)
        return 1;  // tiny positives saturate into the bottom bucket
    if (exp >= kMaxExp)
        return kNumBuckets - 1;  // huge values saturate into the top
    int sub = static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets);
    sub = std::min(sub, kSubBuckets - 1);
    return 1 + (exp - kMinExp) * kSubBuckets + sub;
}

double
Histogram::bucketValue(int index)
{
    if (index <= 0)
        return 0.0;
    int linear = index - 1;
    int exp = kMinExp + linear / kSubBuckets;
    int sub = linear % kSubBuckets;
    // Midpoint of the sub-bucket's fraction range within [0.5, 1).
    double frac =
        0.5 + (static_cast<double>(sub) + 0.5) / (2.0 * kSubBuckets);
    return std::ldexp(frac, exp);
}

void
Histogram::record(double v)
{
    buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    double cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

double
Histogram::min() const
{
    double v = min_.load(std::memory_order_relaxed);
    return std::isfinite(v) ? v : 0.0;
}

double
Histogram::max() const
{
    double v = max_.load(std::memory_order_relaxed);
    return std::isfinite(v) ? v : 0.0;
}

double
Histogram::mean() const
{
    int64_t n = count();
    return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

HistogramBuckets
Histogram::buckets() const
{
    HistogramBuckets out;
    for (int i = 0; i < kNumBuckets; ++i) {
        uint64_t c = buckets_[i].load(std::memory_order_relaxed);
        if (c != 0)
            out.emplace_back(i, c);
    }
    return out;
}

double
Histogram::quantileOf(const HistogramBuckets& buckets, int64_t count,
                      double min, double max, double q)
{
    if (count <= 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-th sample, 1-based: ceil(q * count), at least 1.
    int64_t rank = static_cast<int64_t>(
        std::ceil(q * static_cast<double>(count)));
    rank = std::clamp<int64_t>(rank, 1, count);
    // The extreme ranks answer with the EXACT tracked extremes — this is
    // what makes the single-sample edge case precise instead of
    // bucket-blurred.
    if (rank >= count)
        return max;
    if (rank == 1)
        return min;
    int64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        seen += static_cast<int64_t>(buckets[i].second);
        if (seen < rank)
            continue;
        // The underflow bucket has no representative value (it counts
        // non-positives), and ranks inside the topmost occupied bucket
        // cannot exceed the exact max — answer exactly at both ends so
        // a saturated top bucket never fabricates a value.
        if (buckets[i].first == 0)
            return min;
        if (i + 1 == buckets.size())
            return max;
        return bucketValue(buckets[i].first);
    }
    return max;
}

double
Histogram::quantile(double q) const
{
    return quantileOf(buckets(), count(), min(), max(), q);
}

void
Histogram::reset()
{
    for (auto& b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

// --------------------------------------------------- MetricsRegistry ---

Counter&
MetricsRegistry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto& slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
MetricsRegistry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto& slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram&
MetricsRegistry::histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto& slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

const Counter*
MetricsRegistry::findCounter(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge*
MetricsRegistry::findGauge(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram*
MetricsRegistry::findHistogram(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

void
MetricsRegistry::addGaugeProvider(std::function<void(MetricsRegistry&)> fn)
{
    std::lock_guard<std::mutex> lk(mu_);
    providers_.push_back(std::move(fn));
}

void
MetricsRegistry::visit(
    const std::function<void(const std::string&, const Counter&)>& c,
    const std::function<void(const std::string&, const Gauge&)>& g,
    const std::function<void(const std::string&, const Histogram&)>& h)
{
    // Providers register/update gauges, which needs the mutex — run them
    // on a copied list first, then read under the lock.
    std::vector<std::function<void(MetricsRegistry&)>> providers;
    {
        std::lock_guard<std::mutex> lk(mu_);
        providers = providers_;
    }
    for (auto& p : providers)
        p(*this);

    std::lock_guard<std::mutex> lk(mu_);
    if (c)
        for (const auto& [name, m] : counters_)
            c(name, *m);
    if (g)
        for (const auto& [name, m] : gauges_)
            g(name, *m);
    if (h)
        for (const auto& [name, m] : histograms_)
            h(name, *m);
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [name, m] : counters_)
        m->reset();
    for (auto& [name, m] : gauges_)
        m->reset();
    for (auto& [name, m] : histograms_)
        m->reset();
}

MetricsRegistry&
MetricsRegistry::global()
{
    static MetricsRegistry* reg = new MetricsRegistry();  // never dtor'd
    return *reg;
}

}  // namespace magma::obs

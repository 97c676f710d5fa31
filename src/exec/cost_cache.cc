#include "exec/cost_cache.h"

#include <mutex>

#include "obs/metrics.h"
#include "obs/scope.h"

namespace magma::exec {

cost::CostResult
CostCache::analyze(const cost::CostModel& model, const dnn::LayerShape& layer,
                   int batch, const cost::SubAccelConfig& cfg, int bw_bucket)
{
    obs::Scope scope("exec.cost_cache.probe");
    const cost::CostKey key =
        cost::costKey(cost::layerKey(layer, batch), cost::configKey(cfg),
                      model.energy(), bw_bucket);

    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    cost::CostResult r = model.analyze(layer, batch, cfg);

    std::unique_lock<std::shared_mutex> lock(mu_);
    // A racing miss may have inserted first; keep the existing entry so
    // every reader observes one canonical value.
    auto [it, inserted] = map_.emplace(key, r);
    return it->second;
}

CostCacheStats
CostCache::stats() const
{
    CostCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> lock(mu_);
    s.entries = static_cast<int64_t>(map_.size());
    return s;
}

void
CostCache::clear()
{
    {
        std::unique_lock<std::shared_mutex> lock(mu_);
        map_.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
}

CostCache&
CostCache::global()
{
    static CostCache cache;
    // Pull-model gauges: the cache keeps its own atomics and mirrors
    // them into the registry only when a snapshot is taken, so the
    // analyze() hot path pays nothing for observability.
    static bool registered = [] {
        obs::MetricsRegistry::global().addGaugeProvider(
            [](obs::MetricsRegistry& reg) {
                CostCacheStats s = CostCache::global().stats();
                reg.gauge("exec.cost_cache.hits")
                    .set(static_cast<double>(s.hits));
                reg.gauge("exec.cost_cache.misses")
                    .set(static_cast<double>(s.misses));
                reg.gauge("exec.cost_cache.entries")
                    .set(static_cast<double>(s.entries));
                reg.gauge("exec.cost_cache.hit_rate").set(s.hitRate());
            });
        return true;
    }();
    (void)registered;
    return cache;
}

}  // namespace magma::exec

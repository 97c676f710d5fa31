#include "exec/cost_cache.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>

#include "cost/dataflow.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace magma::exec {
namespace {

/**
 * Append a double's exact bit pattern (hex) — std::to_string would round
 * to 6 decimals and let nearby configs collide on one key.
 */
void
appendBits(std::string& key, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    key += buf;
}

}  // namespace

CostCache::CostCache(int shards)
    : shards_(new Shard[shards > 0 ? shards : 1]),
      num_shards_(shards > 0 ? shards : 1)
{}

std::string
CostCache::makeKey(const cost::CostModel& model,
                   const dnn::LayerShape& layer, int batch,
                   const cost::SubAccelConfig& cfg, int bw_bucket)
{
    const cost::EnergyParams& e = model.energy();
    std::string key = layer.toString();
    key += '|';
    key += std::to_string(batch);
    key += '|';
    key += cost::dataflowName(cfg.dataflow);
    key += '|';
    key += std::to_string(cfg.rows);
    key += 'x';
    key += std::to_string(cfg.cols);
    key += '|';
    appendBits(key, cfg.slBytes);
    appendBits(key, cfg.sgBytes);
    appendBits(key, cfg.freqGhz);
    appendBits(key, cfg.bytesPerElem);
    appendBits(key, cfg.nocElemsPerCycle);
    appendBits(key, cfg.nocLatency);
    key += cfg.flexibleShape ? '1' : '0';
    appendBits(key, e.macPj);
    appendBits(key, e.slPj);
    appendBits(key, e.sgPj);
    appendBits(key, e.dramPjPerByte);
    key += std::to_string(bw_bucket);
    return key;
}

CostCache::Shard&
CostCache::shardFor(const std::string& key)
{
    size_t h = std::hash<std::string>{}(key);
    return shards_[h % num_shards_];
}

cost::CostResult
CostCache::analyze(const cost::CostModel& model, const dnn::LayerShape& layer,
                   int batch, const cost::SubAccelConfig& cfg, int bw_bucket)
{
    obs::Scope scope("exec.cost_cache.probe");
    std::string key = makeKey(model, layer, batch, cfg, bw_bucket);
    Shard& shard = shardFor(key);

    {
        std::shared_lock<std::shared_mutex> lock(shard.mu);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    cost::CostResult r = model.analyze(layer, batch, cfg);

    std::unique_lock<std::shared_mutex> lock(shard.mu);
    // A racing miss may have inserted first; keep the existing entry so
    // every reader observes one canonical value.
    auto [it, inserted] = shard.map.emplace(key, r);
    return it->second;
}

CostCacheStats
CostCache::stats() const
{
    CostCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    for (int i = 0; i < num_shards_; ++i) {
        std::shared_lock<std::shared_mutex> lock(shards_[i].mu);
        s.entries += static_cast<int64_t>(shards_[i].map.size());
    }
    return s;
}

void
CostCache::clear()
{
    for (int i = 0; i < num_shards_; ++i) {
        std::unique_lock<std::shared_mutex> lock(shards_[i].mu);
        shards_[i].map.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
}

CostCache&
CostCache::global()
{
    static CostCache cache(16);
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

#include "exec/eval_engine.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/scope.h"

namespace magma::exec {
namespace {

/** Engine-wide metrics, resolved once; per-batch cost is atomics. */
struct EngineMetrics {
    obs::Counter& batches;
    obs::Counter& candidates;
    obs::Counter& singles;
};

EngineMetrics&
engineMetrics()
{
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    static EngineMetrics m{reg.counter("exec.eval.batches"),
                           reg.counter("exec.eval.candidates"),
                           reg.counter("exec.eval.singles")};
    return m;
}

void
countBatch(size_t count)
{
    if (!obs::countersOn())
        return;
    EngineMetrics& m = engineMetrics();
    m.batches.add();
    m.candidates.add(static_cast<int64_t>(count));
}

/**
 * Candidates per pool iteration: each lane gets one contiguous chunk, a
 * whole number of lane-kernel packs where the batch allows, so pooled
 * lanes step four candidates per pass too.
 */
size_t
chunkSize(size_t count, int lanes)
{
    constexpr size_t kPack = sched::EvalScratch::kLanes;
    const size_t packs = (count + kPack - 1) / kPack;
    return kPack * ((packs + lanes - 1) / static_cast<size_t>(lanes));
}

}  // namespace

template <class Score>
void
EvalEngine::forEachChunk(size_t count, const Score& score) const
{
    if (pool_->numThreads() == 1) {
        // Serial path: skip the pool's std::function dispatch — the
        // whole batch on lane 0's scratch.
        score(0, count, scratch_[0]);
        return;
    }
    const size_t chunk = chunkSize(count, pool_->numThreads());
    if (chunk == 0)
        return;  // an empty batch
    const int64_t chunks = static_cast<int64_t>((count + chunk - 1) / chunk);
    pool_->parallelForLane(chunks, [&](int lane, int64_t c) {
        const size_t first = static_cast<size_t>(c) * chunk;
        score(first, std::min(chunk, count - first), scratch_[lane]);
    });
}

std::vector<double>
EvalEngine::evaluateBatch(const sched::Mapping* batch, size_t count,
                          double cutoff, uint8_t* bounded) const
{
    countBatch(count);
    // span payload: i = batch size
    obs::Scope scope("exec.eval.batch", static_cast<int64_t>(count));
    std::vector<double> fitness(count);
    const double makespan_cutoff = flat_.makespanCutoff(cutoff);
    forEachChunk(count, [&](size_t first, size_t n, sched::EvalScratch& s) {
        flat_.fitnessBatch(batch + first, n, makespan_cutoff, s,
                           fitness.data() + first,
                           bounded ? bounded + first : nullptr);
    });
    return fitness;
}

std::vector<sched::SimPoint>
EvalEngine::simulateBatch(const sched::Mapping* batch, size_t count) const
{
    countBatch(count);
    // span payload: i = batch size
    obs::Scope scope("exec.eval.sim_batch", static_cast<int64_t>(count));
    std::vector<sched::SimPoint> out(count);
    forEachChunk(count, [&](size_t first, size_t n, sched::EvalScratch& s) {
        flat_.simPointBatch(batch + first, n, s, out.data() + first);
    });
    return out;
}

double
EvalEngine::fitnessOne(const sched::Mapping& m) const
{
    if (obs::countersOn())
        engineMetrics().singles.add();
    return flat_.fitness(m, scratch_[0]);
}

}  // namespace magma::exec

#include "exec/eval_engine.h"

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

}  // namespace

std::vector<double>
EvalEngine::evaluateBatch(const sched::Mapping* batch, size_t count,
                          double cutoff, uint8_t* bounded) const
{
    countBatch(count);
    // span payload: i = batch size
    obs::Scope scope("exec.eval.batch", static_cast<int64_t>(count));
    std::vector<double> fitness(count);
    const double makespan_cutoff = flat_.makespanCutoff(cutoff);
    auto score = [&](size_t i, sched::EvalScratch& s) {
        fitness[i] = flat_.fitness(batch[i], s, makespan_cutoff);
        if (bounded)
            bounded[i] = s.bounded();
    };
    if (pool_->numThreads() == 1) {
        // Serial path: skip the pool's std::function dispatch — one
        // tight loop over lane 0's scratch.
        sched::EvalScratch& s = scratch_[0];
        for (size_t i = 0; i < count; ++i)
            score(i, s);
    } else {
        pool_->parallelForLane(
            static_cast<int64_t>(count), [&](int lane, int64_t i) {
                score(static_cast<size_t>(i), scratch_[lane]);
            });
    }
    return fitness;
}

std::vector<sched::SimPoint>
EvalEngine::simulateBatch(const sched::Mapping* batch, size_t count) const
{
    countBatch(count);
    // span payload: i = batch size
    obs::Scope scope("exec.eval.sim_batch", static_cast<int64_t>(count));
    std::vector<sched::SimPoint> out(count);
    if (pool_->numThreads() == 1) {
        sched::EvalScratch& s = scratch_[0];
        for (size_t i = 0; i < count; ++i)
            out[i] = flat_.simPoint(batch[i], s);
    } else {
        pool_->parallelForLane(
            static_cast<int64_t>(count), [&](int lane, int64_t i) {
                out[i] = flat_.simPoint(batch[i], scratch_[lane]);
            });
    }
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

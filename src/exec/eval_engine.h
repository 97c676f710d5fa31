#ifndef MAGMA_EXEC_EVAL_ENGINE_H_
#define MAGMA_EXEC_EVAL_ENGINE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "exec/thread_pool.h"
#include "sched/evaluator.h"
#include "sched/flat_eval.h"
#include "sched/mapping.h"

namespace magma::exec {

/**
 * Batch fitness-evaluation engine: fans a generation of candidate
 * mappings out over a ThreadPool and returns their fitness values in
 * submission order.
 *
 * Evaluation kernel (sched::EvalMode): by default candidates are scored
 * through the allocation-free sched::FlatEvaluator fast path — the
 * engine compiles the evaluator's tables once at construction and keeps
 * one reusable sched::EvalScratch per worker lane, so a whole
 * generation is evaluated without a single heap allocation in the inner
 * loop. EvalMode::Reference falls back to MappingEvaluator::fitness.
 * Both kernels are bitwise identical on every candidate (the flat
 * evaluator's parity contract), so the mode only changes wall-clock.
 *
 * Why this is safe without per-candidate locking: after construction a
 * MappingEvaluator is immutable — `fitness` reads the Job Analysis Table
 * and runs the BW-Allocator simulation on purely local state — except for
 * the sample meter, which is a relaxed atomic shared by both kernels.
 * Each lane owns its scratch exclusively (ThreadPool::parallelForLane),
 * so there is no per-thread evaluator clone to keep in sync.
 *
 * Determinism: result[i] is always the fitness of batch[i], computed by
 * code bitwise-equal to the serial reference path, so a batch evaluation
 * is identical to evaluating the same mappings one-by-one (IEEE
 * arithmetic on a fixed input is scheduling-independent).
 */
class EvalEngine {
  public:
    /**
     * `threads <= 0` selects ThreadPool::defaultThreads() (MAGMA_THREADS
     * env var, else hardware concurrency).
     */
    explicit EvalEngine(const sched::MappingEvaluator& eval,
                        int threads = 0,
                        sched::EvalMode mode = sched::EvalMode::Flat)
        : eval_(&eval), owned_pool_(std::make_unique<ThreadPool>(threads)),
          pool_(owned_pool_.get())
    {
        initKernel(mode);
    }

    /**
     * Borrow an external pool instead of owning one — lets a long-lived
     * service (src/serve/) reuse a single worker-lane pool across many
     * back-to-back searches over different evaluators, avoiding thread
     * churn per request. The pool must outlive the engine and must not
     * have another batch in flight during evaluateBatch.
     */
    EvalEngine(const sched::MappingEvaluator& eval, ThreadPool& pool,
               sched::EvalMode mode = sched::EvalMode::Flat)
        : eval_(&eval), pool_(&pool)
    {
        initKernel(mode);
    }

    int numThreads() const { return pool_->numThreads(); }
    const sched::MappingEvaluator& evaluator() const { return *eval_; }
    ThreadPool& pool() { return *pool_; }
    sched::EvalMode mode() const
    {
        return flat_ ? sched::EvalMode::Flat : sched::EvalMode::Reference;
    }

    /**
     * Fitness of `batch[first..first+count)`; result[i] corresponds to
     * batch[first + i]. Each evaluated mapping counts one sample on the
     * evaluator's meter, exactly like serial `fitness` calls.
     *
     * `cutoff` is a fitness: the flat kernel may stop a candidate proven
     * to score below it at its load bound (FlatEvaluator::fitness), and
     * result[i] is then an upper bound that is still below `cutoff`. The
     * cutoff is converted to a makespan once per batch. The Reference
     * kernel ignores it. When `bounded` is given, bounded[i] says whether
     * candidate i stopped at its bound. The default -inf scores every
     * candidate exactly.
     */
    std::vector<double> evaluateBatch(
        const sched::Mapping* batch, size_t count,
        double cutoff = -std::numeric_limits<double>::infinity(),
        uint8_t* bounded = nullptr) const;

    std::vector<double> evaluateBatch(
        const std::vector<sched::Mapping>& batch) const
    {
        return evaluateBatch(batch.data(), batch.size());
    }

    /**
     * Makespan + total energy of `batch[first..first+count)` from ONE
     * schedule simulation per candidate, in submission order — the
     * substrate of mo::VectorFitness: every Section IV-C objective is a
     * closed-form function of the (makespan, joules) pair
     * (sched::objectiveFromSimulation), so a whole objective vector
     * costs a single simulation instead of one per objective. Counts one
     * sample per candidate, exactly like evaluateBatch; the makespans
     * are bitwise identical across kernels and thread counts.
     */
    std::vector<sched::SimPoint> simulateBatch(const sched::Mapping* batch,
                                               size_t count) const;

    std::vector<sched::SimPoint> simulateBatch(
        const std::vector<sched::Mapping>& batch) const
    {
        return simulateBatch(batch.data(), batch.size());
    }

    /**
     * Score a single candidate through the engine's kernel on the
     * calling thread (lane 0) — the serial path of SearchRecorder when a
     * flat engine exists. Counts one sample. Must not be called while a
     * batch is in flight on the same engine.
     */
    double fitnessOne(const sched::Mapping& m) const;

    /**
     * Exact fitness of a candidate that a batch stopped at its bound, on
     * the calling thread (lane 0); counts no sample, since the batch
     * already did. Only the flat kernel bounds, so only a flat engine
     * re-scores. Must not be called while a batch is in flight.
     */
    double rescore(const sched::Mapping& m) const;

  private:
    void initKernel(sched::EvalMode mode)
    {
        if (mode == sched::EvalMode::Flat) {
            flat_ = std::make_unique<sched::FlatEvaluator>(*eval_);
            scratch_.resize(static_cast<size_t>(pool_->numThreads()));
        }
    }

    const sched::MappingEvaluator* eval_;
    std::unique_ptr<ThreadPool> owned_pool_;  // null when borrowing
    ThreadPool* pool_;
    std::unique_ptr<sched::FlatEvaluator> flat_;  // null in Reference mode
    /** One per lane; mutated during logically-const evaluation. */
    mutable std::vector<sched::EvalScratch> scratch_;
};

}  // namespace magma::exec

#endif  // MAGMA_EXEC_EVAL_ENGINE_H_

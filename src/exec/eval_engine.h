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
 * Candidates are scored through the allocation-free
 * sched::FlatEvaluator — the engine compiles the evaluator's tables
 * once at construction and keeps one reusable sched::EvalScratch per
 * worker lane, so a whole generation is evaluated without a single heap
 * allocation in the inner loop. A batch is one FlatEvaluator batch call
 * on the serial path and one per contiguous chunk on the pool, so every
 * lane runs the lane kernel (four candidates per pass where the host has
 * AVX2). The flat kernel is bitwise identical to
 * MappingEvaluator::fitness on every candidate (its parity contract);
 * the MappingEvaluator stays the oracle the tests compare against.
 *
 * Why this is safe without per-candidate locking: the flat kernel is
 * immutable after construction, and each lane owns its scratch
 * exclusively (ThreadPool::parallelForLane), so there is no per-thread
 * evaluator clone to keep in sync.
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
                        int threads = 0)
        : eval_(&eval), owned_pool_(std::make_unique<ThreadPool>(threads)),
          pool_(owned_pool_.get()), flat_(eval),
          scratch_(static_cast<size_t>(pool_->numThreads()))
    {
    }

    /**
     * Borrow an external pool instead of owning one — api::solve does,
     * so a serve lane or a dyn engine reuses one pool across many
     * back-to-back searches over different evaluators, avoiding thread
     * churn per request. The pool must outlive the engine and must not
     * have another batch in flight during evaluateBatch.
     */
    EvalEngine(const sched::MappingEvaluator& eval, ThreadPool& pool)
        : eval_(&eval), pool_(&pool), flat_(eval),
          scratch_(static_cast<size_t>(pool.numThreads()))
    {
    }

    int numThreads() const { return pool_->numThreads(); }
    const sched::MappingEvaluator& evaluator() const { return *eval_; }
    ThreadPool& pool() { return *pool_; }

    /**
     * Fitness of `batch[first..first+count)`; result[i] corresponds to
     * batch[first + i].
     *
     * `cutoff` is a fitness: the flat kernel may stop a candidate proven
     * to score below it at its load bound (FlatEvaluator::fitness), and
     * result[i] is then an upper bound that is still below `cutoff`. The
     * cutoff is converted to a makespan once per batch. When `bounded`
     * is given, bounded[i] says whether
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
     * costs a single simulation instead of one per objective. The
     * makespans are bitwise identical to MappingEvaluator's at any thread
     * count.
     */
    std::vector<sched::SimPoint> simulateBatch(const sched::Mapping* batch,
                                               size_t count) const;

    std::vector<sched::SimPoint> simulateBatch(
        const std::vector<sched::Mapping>& batch) const
    {
        return simulateBatch(batch.data(), batch.size());
    }

    /**
     * Score a single candidate on the calling thread (lane 0) — the
     * serial path of SearchRecorder. Must not be called while a batch is
     * in flight on the same engine.
     */
    double fitnessOne(const sched::Mapping& m) const;

  private:
    /**
     * Calls `score(first, n, scratch)` on the batch's contiguous chunks:
     * the whole batch on lane 0 when the pool has one lane, else one
     * chunk per pool iteration with the running lane's scratch.
     */
    template <class Score>
    void forEachChunk(size_t count, const Score& score) const;

    const sched::MappingEvaluator* eval_;
    std::unique_ptr<ThreadPool> owned_pool_;  // null when borrowing
    ThreadPool* pool_;
    sched::FlatEvaluator flat_;
    /** One per lane; mutated during logically-const evaluation. */
    mutable std::vector<sched::EvalScratch> scratch_;
};

}  // namespace magma::exec

#endif  // MAGMA_EXEC_EVAL_ENGINE_H_

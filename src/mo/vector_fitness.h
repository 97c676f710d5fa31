#ifndef MAGMA_MO_VECTOR_FITNESS_H_
#define MAGMA_MO_VECTOR_FITNESS_H_

#include <vector>

#include "mo/pareto.h"
#include "sched/evaluator.h"
#include "sched/mapping.h"

namespace magma::exec {
class EvalEngine;
}  // namespace magma::exec

namespace magma::mo {

/**
 * Vector-objective evaluation: scores each candidate ONCE — one schedule
 * simulation through exec::EvalEngine::simulateBatch, on the same
 * sched::FlatEvaluator kernel every scalar optimizer uses — and
 * extracts all requested objectives from the resulting (makespan,
 * joules) pair via sched::objectiveFromSimulation.
 *
 * Parity contract: element k of an evaluated vector is bitwise equal to
 * the scalar fitness a MappingEvaluator fixed on objectives()[k] would
 * return for the same mapping (the three formula paths share one
 * switch), so a multi-objective run costs one simulation per candidate
 * instead of one per objective with zero quality drift.
 *
 * Budget accounting: one sample per candidate, like every scalar path.
 * Results are in submission order and identical at any thread count.
 */
class VectorFitness {
  public:
    /**
     * Scores `engine.evaluator()`'s problem on `engine`, which must
     * outlive this.
     */
    VectorFitness(const exec::EvalEngine& engine,
                  std::vector<sched::Objective> objectives);

    const std::vector<sched::Objective>& objectives() const
    {
        return objectives_;
    }
    int arity() const { return static_cast<int>(objectives_.size()); }

    /**
     * Objective vectors of a whole generation, submission order; one
     * sample and one simulation per candidate.
     */
    std::vector<ObjectiveVector> evaluateBatch(
        const std::vector<sched::Mapping>& ms) const;

    /** Single-candidate convenience (still one sample). */
    ObjectiveVector evaluate(const sched::Mapping& m) const;

    /** Extraction only: objective vector of an already-simulated pair. */
    ObjectiveVector fromSimPoint(const sched::SimPoint& sp) const;

  private:
    const exec::EvalEngine* engine_;
    std::vector<sched::Objective> objectives_;
    int64_t total_flops_;
};

}  // namespace magma::mo

#endif  // MAGMA_MO_VECTOR_FITNESS_H_

#include "mo/vector_fitness.h"

#include "exec/eval_engine.h"

namespace magma::mo {

VectorFitness::VectorFitness(const exec::EvalEngine& engine,
                             std::vector<sched::Objective> objectives)
    : engine_(&engine),
      objectives_(std::move(objectives)),
      total_flops_(engine.evaluator().group().totalFlops())
{
}

ObjectiveVector
VectorFitness::fromSimPoint(const sched::SimPoint& sp) const
{
    ObjectiveVector v(objectives_.size());
    for (size_t k = 0; k < objectives_.size(); ++k)
        v[k] = sched::objectiveFromSimulation(
            objectives_[k], sp.makespanSeconds, sp.joules, total_flops_);
    return v;
}

std::vector<ObjectiveVector>
VectorFitness::evaluateBatch(const std::vector<sched::Mapping>& ms) const
{
    std::vector<sched::SimPoint> sims = engine_->simulateBatch(ms);
    std::vector<ObjectiveVector> out;
    out.reserve(sims.size());
    for (const sched::SimPoint& sp : sims)
        out.push_back(fromSimPoint(sp));
    return out;
}

ObjectiveVector
VectorFitness::evaluate(const sched::Mapping& m) const
{
    return evaluateBatch({m}).front();
}

}  // namespace magma::mo

#include "mo/vector_fitness.h"

#include <cassert>

#include "exec/eval_engine.h"

namespace magma::mo {

VectorFitness::VectorFitness(const sched::MappingEvaluator& eval,
                             std::vector<sched::Objective> objectives,
                             int threads, exec::EvalEngine* engine)
    : eval_(&eval),
      objectives_(std::move(objectives)),
      engine_(engine),
      total_flops_(eval.group().totalFlops())
{
    if (engine_) {
        // A borrowed engine must wrap the same evaluator, like
        // SearchOptions::engine.
        assert(&engine_->evaluator() == &eval);
    } else {
        owned_engine_ = std::make_unique<exec::EvalEngine>(eval, threads);
        engine_ = owned_engine_.get();
    }
}

VectorFitness::~VectorFitness() = default;

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

#ifndef MAGMA_M3E_PROBLEM_H_
#define MAGMA_M3E_PROBLEM_H_

#include <memory>

#include "accel/platform.h"
#include "cost/cost_model.h"
#include "dnn/workload.h"
#include "sched/evaluator.h"

namespace magma::m3e {

/**
 * One fully wired mapping problem: a job group, a platform, a cost model
 * and the evaluator built over them (the M3E set-up + pre-process steps of
 * Section IV-E). Owns everything the evaluator references, so benchmarks,
 * examples and tests need a single object.
 *
 * Non-copyable/non-movable: the evaluator keeps pointers into the owned
 * group/platform, so instances live behind unique_ptr.
 */
class Problem {
  public:
    Problem(dnn::JobGroup group, accel::Platform platform,
            sched::BwPolicy policy = sched::BwPolicy::Proportional,
            sched::Objective objective = sched::Objective::Throughput);
    Problem(const Problem&) = delete;
    Problem& operator=(const Problem&) = delete;

    const dnn::JobGroup& group() const { return group_; }
    const accel::Platform& platform() const { return platform_; }
    const cost::CostModel& costModel() const { return model_; }
    sched::MappingEvaluator& evaluator() { return *evaluator_; }
    const sched::MappingEvaluator& evaluator() const { return *evaluator_; }

  private:
    dnn::JobGroup group_;
    accel::Platform platform_;
    cost::CostModel model_;
    std::unique_ptr<sched::MappingEvaluator> evaluator_;
};

/**
 * Convenience factory: generate a task group (seeded) on a Table III
 * setting with a given system BW, optimizing `objective` under `policy`
 * (api::buildProblem also builds the Fig. 14 flexible variant).
 */
std::unique_ptr<Problem> makeProblem(
    dnn::TaskType task, accel::Setting setting, double system_bw_gbps,
    int group_size, uint64_t seed = 1,
    sched::Objective objective = sched::Objective::Throughput,
    sched::BwPolicy policy = sched::BwPolicy::Proportional);

}  // namespace magma::m3e

#endif  // MAGMA_M3E_PROBLEM_H_

#include "m3e/problem.h"

#include <algorithm>

#include "exec/cost_cache.h"

namespace magma::m3e {

Problem::Problem(dnn::JobGroup group, accel::Platform platform,
                 sched::BwPolicy policy, sched::Objective objective)
    : group_(std::move(group)), platform_(std::move(platform))
{
    // The process-wide cost cache serves flexible-shape platforms only.
    // There a query searches every array shape (about 1.4 us), and the
    // cache cuts a five-problem Mix/S4 set-up from 0.8 to 0.5 ms; on a
    // fixed array a query takes about 0.14 us, less than the cache's
    // probe and insert (0.08 ms set-up without it, 0.17 ms with it).
    const bool flexible =
        std::any_of(platform_.subAccels.begin(), platform_.subAccels.end(),
                    [](const cost::SubAccelConfig& c) {
                        return c.flexibleShape;
                    });
    evaluator_ = std::make_unique<sched::MappingEvaluator>(
        group_, platform_, model_, policy,
        flexible ? &exec::CostCache::global() : nullptr, objective);
}

std::unique_ptr<Problem>
makeProblem(dnn::TaskType task, accel::Setting setting,
            double system_bw_gbps, int group_size, uint64_t seed,
            sched::Objective objective, sched::BwPolicy policy)
{
    dnn::WorkloadGenerator gen(seed);
    return std::make_unique<Problem>(
        gen.makeGroup(task, group_size),
        accel::makeSetting(setting, system_bw_gbps), policy, objective);
}

}  // namespace magma::m3e

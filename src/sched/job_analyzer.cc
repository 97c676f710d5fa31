#include "sched/job_analyzer.h"

#include <unordered_map>

#include "cost/cost_key.h"
#include "exec/cost_cache.h"

namespace magma::sched {

JobAnalysisTable
JobAnalyzer::analyze(const dnn::JobGroup& group,
                     const accel::Platform& platform) const
{
    const int jobs = group.size();
    const int accels = platform.numSubAccels();
    JobAnalysisTable table(jobs, accels);
    last_unique_ = 0;

    // Number the distinct (shape, batch) pairs in first-seen job order;
    // `first_job` holds one representative job per pair.
    // try_emplace builds a node only for a new pair, so a repeated job
    // costs a probe and no allocation.
    // Determinism audit: keyed try_emplace only, never iterated — hash
    // order cannot reach the table or any serialized output.
    std::unordered_map<cost::LayerKey, int, cost::LayerKey::Hash> ids;
    ids.reserve(static_cast<size_t>(jobs));
    std::vector<int> shape_of(static_cast<size_t>(jobs));
    std::vector<int> first_job;
    for (int j = 0; j < jobs; ++j) {
        const dnn::Job& job = group.jobs[j];
        auto [it, fresh] =
            ids.try_emplace(cost::layerKey(job.layer, job.batch),
                            static_cast<int>(first_job.size()));
        if (fresh)
            first_job.push_back(j);
        shape_of[j] = it->second;
    }

    std::vector<cost::ConfigKey> configs(static_cast<size_t>(accels));
    std::vector<JobProfile> column(first_job.size());
    for (int a = 0; a < accels; ++a) {
        const cost::SubAccelConfig& cfg = platform.subAccels[a];
        configs[a] = cost::configKey(cfg);
        // The cost model reads exactly the ConfigKey fields, so a core
        // configured like an earlier one gets that core's column as is.
        int twin = 0;
        while (twin < a && !(configs[twin] == configs[a]))
            ++twin;
        if (twin < a) {
            for (int j = 0; j < jobs; ++j)
                table.at(j, a) = table.lookup(j, twin);
            continue;
        }
        for (size_t s = 0; s < first_job.size(); ++s) {
            const dnn::Job& job = group.jobs[first_job[s]];
            cost::CostResult r =
                cache_ ? cache_->analyze(*model_, job.layer, job.batch, cfg)
                       : model_->analyze(job.layer, job.batch, cfg);
            JobProfile& p = column[s];
            p.noStallSeconds = r.noStallSeconds(cfg);
            p.reqBwGbps = r.reqBwGbps;
            p.dramBytes = r.dramBytes;
            p.energyPj = r.energyPj;
            p.macs = r.macs;
        }
        last_unique_ += static_cast<int64_t>(first_job.size());
        for (int j = 0; j < jobs; ++j)
            table.at(j, a) = column[shape_of[j]];
    }
    return table;
}

}  // namespace magma::sched

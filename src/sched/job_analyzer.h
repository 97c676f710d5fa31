#ifndef MAGMA_SCHED_JOB_ANALYZER_H_
#define MAGMA_SCHED_JOB_ANALYZER_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "accel/platform.h"
#include "cost/cost_model.h"
#include "dnn/workload.h"

namespace magma::exec {
class CostCache;
}  // namespace magma::exec

namespace magma::sched {

/**
 * One entry of the Job Analysis Table (Section IV-D4): the profile of one
 * job on one sub-accelerator.
 */
struct JobProfile {
    double noStallSeconds = 0.0;  ///< latency with unlimited memory BW
    double reqBwGbps = 0.0;       ///< minimum BW to stay compute bound
    double dramBytes = 0.0;
    double energyPj = 0.0;
    int64_t macs = 0;
};

/**
 * The Job Analysis Table: per-(job, sub-accelerator) profiles, built once
 * before the optimization loop so fitness evaluation never re-queries the
 * cost model (Section IV-D4's "quick look-up table").
 */
class JobAnalysisTable {
  public:
    JobAnalysisTable() = default;
    JobAnalysisTable(int jobs, int accels)
        : accels_(accels), profiles_(static_cast<size_t>(jobs) * accels)
    {}

    const JobProfile& lookup(int job, int accel) const
    {
        return profiles_[static_cast<size_t>(job) * accels_ + accel];
    }

    JobProfile& at(int job, int accel)
    {
        return profiles_[static_cast<size_t>(job) * accels_ + accel];
    }

    /** Copy `rows`, a table over the same sub-accelerators, into this
     * table's jobs [first_job, first_job + rows.numJobs()). */
    void copyRows(int first_job, const JobAnalysisTable& rows)
    {
        assert(rows.accels_ == accels_);
        std::copy(rows.profiles_.begin(), rows.profiles_.end(),
                  profiles_.begin() +
                      static_cast<std::ptrdiff_t>(first_job) * accels_);
    }

    int numAccels() const { return accels_; }
    int numJobs() const
    {
        return accels_ ? static_cast<int>(profiles_.size()) / accels_ : 0;
    }

  private:
    int accels_ = 0;
    std::vector<JobProfile> profiles_;
};

/**
 * The Job Analyzer (Section IV-D2): profiles every job of a group on every
 * sub-accelerator through the cost model. Batched-job groups repeat
 * layers and platforms repeat cores, so it issues one query per distinct
 * (layer shape, batch) and distinct sub-accelerator configuration
 * (cost::LayerKey x cost::ConfigKey) and copies the result to every
 * matching cell.
 */
class JobAnalyzer {
  public:
    /**
     * `cache`, when given, memoizes cost-model results process-wide
     * (exec::CostCache) so repeated analyze() calls over the same layers
     * skip the cost model on a hit. It pays only where a query costs
     * more than the probe: m3e::Problem attaches it for flexible-shape
     * platforms alone.
     */
    explicit JobAnalyzer(const cost::CostModel& model,
                         exec::CostCache* cache = nullptr)
        : model_(&model), cache_(cache)
    {}

    /** Build the analysis table for a group on a platform. */
    JobAnalysisTable analyze(const dnn::JobGroup& group,
                             const accel::Platform& platform) const;

    /** Number of distinct cost-model queries the last analyze() issued. */
    int64_t lastUniqueQueries() const { return last_unique_; }

  private:
    const cost::CostModel* model_;
    exec::CostCache* cache_ = nullptr;
    mutable int64_t last_unique_ = 0;
};

}  // namespace magma::sched

#endif  // MAGMA_SCHED_JOB_ANALYZER_H_

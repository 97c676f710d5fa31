#ifndef MAGMA_DYN_RECONFIG_H_
#define MAGMA_DYN_RECONFIG_H_

#include <string>
#include <utility>
#include <vector>

#include "dnn/workload.h"
#include "sched/mapping.h"

namespace magma::dyn {

/**
 * Reconfiguration-cost knobs: what a job pays, inside the schedule
 * simulation, when an event forces it onto a (new) sub-accelerator.
 *
 * A job is "re-tiled" when it survived the event but its accel gene
 * changed, and "new" when it just arrived (or was swapped in). Both
 * stall their sub-accelerator for `retileStallSeconds` (control
 * reconfiguration: new tiling schedule, drained pipelines) plus — when
 * `chargeWeightReload` — the time to stream the job's weights over the
 * BW regime (weightElems * bytesPerElem / system BW). Unmoved surviving
 * jobs pay nothing: their tiles and weights are already resident.
 * `chargeArrivals=false` restricts charging to re-tiled survivors (an
 * ablation knob: arrival loads overlap with admission in some systems).
 *
 * The charge is applied as a per-job setup phase in BwAllocator::run
 * (zero BW demand, wall-clock rate), so it delays everything queued
 * behind the job — churn degrades real schedule quality, which is what
 * makes steady-state quality vs. churn a measured trade-off.
 */
struct ReconfigSpec {
    double retileStallSeconds = 50e-6;  ///< per re-tiled/new job
    bool chargeWeightReload = true;
    bool chargeArrivals = true;
    double bytesPerElem = 1.0;  ///< cost model's operand width
};

/** One event's reconfiguration bill, plus the per-job setup vector the
 * schedule simulation charges (indexed like the new group's jobs). */
struct ReconfigCharge {
    int movedJobs = 0;  ///< survivors whose sub-accelerator changed
    int newJobs = 0;    ///< arrivals/swap-ins
    int keptJobs = 0;   ///< survivors staying put (charged nothing)
    double reloadBytes = 0.0;        ///< total weight bytes re-streamed
    double totalStallSeconds = 0.0;  ///< sum of setupSeconds
    std::vector<double> setupSeconds;
};

/**
 * Bill the transition to `next` (over `group`) from a job
 * correspondence: `match[i]` is the position job i held in the group
 * before the event (-1 for a new job), and `prev_accel[k]` is the
 * sub-accelerator that position occupied. `system_bw_gbps` converts
 * reload bytes to seconds. This is what dyn::EventEngine bills.
 */
ReconfigCharge computeReconfig(const std::vector<int>& match,
                               const std::vector<int>& prev_accel,
                               const dnn::JobGroup& group,
                               const sched::Mapping& next,
                               double system_bw_gbps,
                               const ReconfigSpec& spec);

/**
 * The same bill keyed by stable job identities: `ids` names the jobs of
 * `group`, and `prev_accel_of` maps a job identity to the
 * sub-accelerator it occupied before the event (jobs absent from it are
 * new; of repeated identities the first counts).
 */
ReconfigCharge computeReconfig(
    const std::vector<std::pair<std::string, int>>& prev_accel_of,
    const std::vector<std::string>& ids, const dnn::JobGroup& group,
    const sched::Mapping& next, double system_bw_gbps,
    const ReconfigSpec& spec);

}  // namespace magma::dyn

#endif  // MAGMA_DYN_RECONFIG_H_

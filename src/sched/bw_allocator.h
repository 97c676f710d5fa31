#ifndef MAGMA_SCHED_BW_ALLOCATOR_H_
#define MAGMA_SCHED_BW_ALLOCATOR_H_

#include <algorithm>
#include <string>
#include <vector>

#include "sched/job_analyzer.h"
#include "sched/mapping.h"

namespace magma::sched {

/**
 * One constant-allocation segment of the executed schedule, for the Fig. 15
 * style visualizations: between `start` and `end` seconds, `job` ran on
 * `accel` with `allocBw` GB/s granted.
 */
struct ScheduleEvent {
    double start = 0.0;
    double end = 0.0;
    int job = -1;
    int accel = -1;
    double allocBw = 0.0;
};

/** Outcome of simulating one decoded mapping. */
struct ScheduleResult {
    double makespanSeconds = 0.0;
    /** Per-job completion time (seconds). */
    std::vector<double> finishTime;
    /** Timeline segments; filled only when requested. */
    std::vector<ScheduleEvent> events;
};

/**
 * Allocation policy ablation: the paper's proportional-share policy
 * (Algorithm 1) versus the naive heuristic it argues against
 * (Section IV-D1: "evenly allocate the same amount of BW to all the
 * sub-accelerators") — a STATIC per-core share of systemBW / numCores,
 * which strands the unused share of compute-bound cores.
 */
enum class BwPolicy { Proportional, EvenSplit };

/** Policy name ("proportional", "even-split"). */
std::string bwPolicyName(BwPolicy p);

/** Parse a bwPolicyName(); throws std::invalid_argument. */
BwPolicy bwPolicyFromName(const std::string& name);

/**
 * Demand at or below which a job counts as needing no bandwidth: it runs
 * at full speed under either policy and adds nothing to the live demand.
 */
inline constexpr double kZeroDemandGbps = 1e-18;

/**
 * The two clocks of the event simulation, shared by BwAllocator::run and
 * FlatEvaluator so that both perform the same floating-point operations.
 * `now` is wall time and `v` virtual time: the no-stall seconds every
 * BW-bound job has progressed. While the stretch max(1, T / B) holds, wall
 * time is w0 + (v - v0) * stretch; the anchor (w0, v0) moves when the
 * stretch changes or a wall phase ends.
 */
struct EventClock {
    double now = 0.0;
    double v = 0.0;
    double w0 = 0.0;
    double v0 = 0.0;
    double stretch = 1.0;

    /**
     * Set the summed live demand `total_req` under system BW `bw`:
     * proportional shares (Algorithm 1) grant every BW-bound job
     * req * B / T, so the virtual clock runs at min(1, B / T).
     */
    void setDemand(double total_req, double bw)
    {
        const double s = (total_req > bw) ? total_req / bw : 1.0;
        if (s != stretch) {
            w0 = now;
            v0 = v;
            stretch = s;
        }
    }

    /**
     * Advance to the next event, the earlier of the least virtual end
     * `next_v` (slot av) and the least wall end `next_w` (slot aw), a wall
     * end on ties. Returns the slot whose phase ends there; -1, with the
     * clocks unchanged, when both slots are -1.
     */
    int advance(double next_v, int av, double next_w, int aw)
    {
        const double t = w0 + (next_v - v0) * stretch;
        if (aw >= 0 && next_w <= t) {
            if (av >= 0)
                v = std::min(v0 + (next_w - w0) / stretch, next_v);
            now = w0 = next_w;
            v0 = v;
            return aw;
        }
        if (av >= 0) {
            now = t;
            v = next_v;
        }
        return av;
    }
};

/**
 * The BW Allocator (Algorithm 1).
 *
 * Event-driven simulation: at any instant the head job of every non-empty
 * sub-accelerator queue is live. If the summed demand T of the live jobs
 * exceeds the system BW B, bandwidth is granted in proportion to demand,
 * so every live job progresses at the same rate B / T of its no-stall
 * speed; otherwise every job runs at full speed. Each BW-bound job thus
 * ends at a fixed virtual time (EventClock), and each job completion is
 * one event, after which the queue pops and T changes. Setup phases, jobs
 * of zero demand and every job under the even split (whose rate
 * min(1, (B / N) / req) is fixed at launch) end at a fixed wall time
 * instead. docs/architecture.md gives the rule in full.
 */
class BwAllocator {
  public:
    explicit BwAllocator(double system_bw_gbps,
                         BwPolicy policy = BwPolicy::Proportional)
        : system_bw_(system_bw_gbps), policy_(policy)
    {}

    /**
     * Simulate `decoded` queues of `group` using profiles from `table`.
     * Set `record_timeline` to fill ScheduleResult::events.
     *
     * `setup_seconds`, when given, holds a per-job reconfiguration stall
     * (indexed by job id, one entry per job): before a job starts
     * executing, its sub-accelerator sits in a setup phase of that many
     * seconds — progressing at wall-clock rate, demanding no bandwidth —
     * which models re-tiling stalls and weight reloads (src/dyn/'s
     * ReconfigCost). A zero entry skips the phase, so null (the default)
     * and an all-zero vector give bitwise the same result.
     */
    ScheduleResult run(const DecodedMapping& decoded,
                       const JobAnalysisTable& table,
                       bool record_timeline = false,
                       const std::vector<double>* setup_seconds =
                           nullptr) const;

    double systemBw() const { return system_bw_; }
    BwPolicy policy() const { return policy_; }

  private:
    double system_bw_;
    BwPolicy policy_;
};

}  // namespace magma::sched

#endif  // MAGMA_SCHED_BW_ALLOCATOR_H_

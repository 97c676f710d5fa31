#ifndef MAGMA_SCHED_EVALUATOR_H_
#define MAGMA_SCHED_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/platform.h"
#include "cost/cost_model.h"
#include "dnn/workload.h"
#include "sched/bw_allocator.h"
#include "sched/job_analyzer.h"
#include "sched/mapping.h"

namespace magma::exec {
class CostCache;
}  // namespace magma::exec

namespace magma::sched {

/**
 * Optimization objectives (Section IV-C): throughput is the paper's
 * default, but M3E accepts other objectives or formulations. All are
 * expressed as maximization problems.
 */
enum class Objective {
    Throughput,      ///< GFLOP/s = total FLOPs / makespan (paper default)
    Latency,         ///< 1 / makespan-seconds (minimize completion time)
    Energy,          ///< 1 / total-Joules (minimize energy)
    EnergyDelay,     ///< 1 / (Joules x seconds) — inverse EDP
    PerfPerWatt,     ///< GFLOP/s per Watt of average power
};

/** Objective name for logs and harnesses. */
std::string objectiveName(Objective o);

/**
 * Parse an objective from its objectiveName(), also accepting the short
 * CLI spellings "edp" and "perf-per-watt"; throws std::invalid_argument.
 */
Objective objectiveFromName(const std::string& name);

/**
 * Comma-joined objectiveName() list ("throughput,energy"), the value
 * form of the api::SearchSpec `objectives` key and the mo:: front
 * artifacts. Empty list -> empty string.
 */
std::string objectiveListName(const std::vector<Objective>& objectives);

/**
 * Parse an objectiveListName() (short spellings allowed per element);
 * empty/blank input yields an empty list. Throws std::invalid_argument
 * on any bad element.
 */
std::vector<Objective> objectiveListFromName(const std::string& names);

/**
 * Makespan + total energy of one simulated schedule — the pair every
 * Section IV-C objective is a closed-form function of. Produced in bulk
 * by exec::EvalEngine::simulateBatch so the multi-objective layer
 * (src/mo/) extracts a whole vector of objectives from a single
 * simulation instead of re-simulating per objective.
 */
struct SimPoint {
    double makespanSeconds = 0.0;
    double joules = 0.0;
};

/**
 * Objective value from one simulated schedule's makespan and energy —
 * the single formula switch shared by MappingEvaluator::objectiveValue,
 * FlatEvaluator::objectiveValue and mo::VectorFitness, so the three
 * paths cannot drift: extracting objective `o` from a SimPoint is
 * bitwise equal to the scalar fitness of an evaluator fixed on `o`.
 * `joules` is only read by the energy-bearing objectives, so scalar hot
 * paths pass 0.0 for Throughput/Latency and skip the energy sum.
 */
double objectiveFromSimulation(Objective o, double makespan_seconds,
                               double joules, int64_t total_flops);

/** Whether `o`'s formula reads the energy term (joules). */
bool objectiveNeedsEnergy(Objective o);

/**
 * The M3E evaluation phase in one object (Fig. 3): decoder -> BW allocator
 * -> fitness. Construction runs the pre-process step (Job Analyzer builds
 * the Job Analysis Table); `fitness` is then a pure table-driven
 * simulation, cheap enough for 10K-100K-sample searches.
 *
 * The default fitness is throughput in GFLOP/s — the paper's objective
 * everywhere — computed as total group FLOPs / makespan; other Section
 * IV-C objectives are selected at construction (the `objective` ctor
 * parameter, threaded through m3e::Problem/makeProblem and the api::
 * specs).
 *
 * Thread-safety: the evaluator is immutable after construction, so
 * `fitness`/`evaluate` may be called concurrently from many threads.
 */
class MappingEvaluator {
  public:
    /**
     * `cost_cache`, when given, memoizes the Job Analyzer's cost-model
     * queries across evaluator instances; it pays only where a query
     * costs more than a probe, as on flexible-shape platforms (see
     * m3e::Problem). `objective` is what `fitness` maximizes; it is
     * fixed for the evaluator's lifetime.
     */
    MappingEvaluator(const dnn::JobGroup& group,
                     const accel::Platform& platform,
                     const cost::CostModel& model,
                     BwPolicy policy = BwPolicy::Proportional,
                     exec::CostCache* cost_cache = nullptr,
                     Objective objective = Objective::Throughput);

    /**
     * An evaluator over a given Job Analysis Table in place of the one
     * the Job Analyzer would build: for tests that need cells no cost
     * model produces, such as zero demand. `table` must hold
     * group.size() x platform.numSubAccels() cells.
     */
    MappingEvaluator(const dnn::JobGroup& group,
                     const accel::Platform& platform, JobAnalysisTable table,
                     BwPolicy policy = BwPolicy::Proportional,
                     Objective objective = Objective::Throughput);

    Objective objective() const { return objective_; }
    BwPolicy bwPolicy() const { return allocator_.policy(); }

    /** Objective value of an encoded mapping. */
    double fitness(const Mapping& m) const;

    /** Full simulation; optionally records the Fig. 15 timeline. */
    ScheduleResult evaluate(const Mapping& m,
                            bool record_timeline = false) const;

    /**
     * Full simulation with a per-job reconfiguration stall charged
     * inside the schedule (see BwAllocator::run's `setup_seconds`):
     * the src/dyn/ engine's accounting step, where re-tiled jobs pay
     * their re-tiling stall and weight-reload time before executing.
     * `setup_seconds` must have one entry per job of the group. With an
     * all-zero vector the result equals evaluate(m) bitwise.
     */
    ScheduleResult evaluateWithSetup(const Mapping& m,
                                     const std::vector<double>&
                                         setup_seconds,
                                     bool record_timeline = false) const;

    const JobAnalysisTable& table() const { return table_; }
    const dnn::JobGroup& group() const { return *group_; }
    const accel::Platform& platform() const { return *platform_; }
    int groupSize() const { return group_->size(); }
    int numAccels() const { return platform_->numSubAccels(); }

    /** Throughput implied by a makespan for this group. */
    double throughputGflops(double makespan_seconds) const;

    /**
     * Total energy (Joules) of a mapping: sum of each job's cost-model
     * energy on its assigned sub-accelerator.
     */
    double totalJoules(const Mapping& m) const;

  private:
    /** Objective value from a simulated schedule + mapping. */
    double objectiveValue(const Mapping& m, const ScheduleResult& r) const;

    const dnn::JobGroup* group_;
    const accel::Platform* platform_;
    JobAnalysisTable table_;
    BwAllocator allocator_;
    Objective objective_ = Objective::Throughput;
};

}  // namespace magma::sched

#endif  // MAGMA_SCHED_EVALUATOR_H_

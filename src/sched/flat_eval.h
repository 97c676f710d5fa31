#ifndef MAGMA_SCHED_FLAT_EVAL_H_
#define MAGMA_SCHED_FLAT_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sched/bw_allocator.h"
#include "sched/evaluator.h"
#include "sched/mapping.h"

namespace magma::sched {

/**
 * Per-thread reusable evaluation state. All buffers are sized once (first
 * use, or an explicit ensure()) and reused for every subsequent candidate,
 * so the steady-state hot loop performs zero heap allocation. One scratch
 * must only be used by one thread at a time; exec::EvalEngine keeps one
 * per worker lane.
 *
 * After a fitness() or simPoint() call the scratch holds the candidate's
 * makespan until the next call overwrites it. After a fitness() that
 * stopped at its makespan cutoff, the makespan is the load bound
 * (bounded()). A batch call leaves neither value defined.
 *
 * The decode and slot buffers hold kLanes candidates, so the lane
 * kernel of FlatEvaluator::fitnessBatch can step four at once; the
 * one-candidate kernel uses lane 0.
 */
class EvalScratch {
  public:
    /** Candidates the lane kernel steps together. */
    static constexpr int kLanes = 4;

    EvalScratch() = default;

    /** Size every buffer for a (jobs x accels) problem; idempotent. */
    void ensure(int jobs, int accels);

    double makespanSeconds() const { return makespan_; }
    /**
     * Whether the last call stopped at the load bound instead of
     * simulating: makespanSeconds() is then the bound, not the makespan.
     */
    bool bounded() const { return bounded_; }

  private:
    friend class FlatEvaluator;

    int jobs_ = -1;
    int accels_ = -1;

    // Decoded queues, flattened: positions [queue_begin_[a] ..
    // queue_begin_[a+1]) are sub-accelerator a's job queue in ascending
    // priority order (ties in job-id order) — the contiguous form of
    // DecodedMapping::queues. Lane l's offsets sit at l * (accels + 1)
    // and count from l * jobs, where its part of the queue-ordered
    // columns below starts.
    std::vector<int32_t> queue_begin_;  // kLanes * (accels + 1)
    std::vector<int32_t> fill_;         // accels: decode fill cursors
    // Decode's global sort: every job in (priority, job id) order, built
    // by a counting sort on priority buckets and an insertion fix-up.
    std::vector<int32_t> order_;         // jobs
    std::vector<int32_t> bucket_;        // jobs: each job's bucket
    std::vector<int32_t> bucket_begin_;  // buckets + 1
    // The Job Analysis Table cells of each queue position's (job,
    // sub-accelerator) pair, gathered in queue order by the decode, so a
    // launch reads position `cursor` directly.
    std::vector<double> queue_no_stall_;  // kLanes * jobs: no-stall s
    std::vector<double> queue_req_bw_;    // kLanes * jobs: required BW

    // Event-driven simulation state (one slot per sub-accelerator). The
    // live slot's job sits at queue position cursor_[a] - 1. A BW-bound
    // job has a virtual end and its demand; any other job has a wall end;
    // a drained slot has both ends +inf and demand 0. The lane kernel
    // interleaves the lanes, slot a of lane l at a * kLanes + l, so one
    // vector load reads a slot of every lane.
    std::vector<int32_t> cursor_;     // kLanes * accels: next position
    std::vector<double> virt_end_;    // virtual end time of live job
    std::vector<double> wall_end_;    // wall end time of live job
    std::vector<double> demand_;      // required BW of BW-bound live job

    double makespan_ = 0.0;
    bool bounded_ = false;
};

/**
 * Allocation-free fast-path evaluator (the "Turbo-Charged Mapper" idea
 * applied to M3E's Fig. 3 evaluation phase): compiles the Job Analysis
 * Table, platform BW regime and objective of a reference MappingEvaluator
 * into contiguous structure-of-arrays buffers at construction, then
 * scores candidates through a caller-provided EvalScratch with zero heap
 * allocation and no virtual dispatch in the inner schedule-simulation
 * loop.
 *
 * It only scores: the full simulations (finish times, the Fig. 15
 * timeline, reconfiguration stalls) run on the reference evaluator.
 *
 * Parity contract: for every mapping, fitness() and simPoint() return
 * results bitwise identical to the reference MappingEvaluator's fitness,
 * makespan and totalJoules — the simulation replays the exact
 * floating-point operation sequence of BwAllocator::run and
 * MappingEvaluator::objectiveValue, so every search scores exactly as it
 * would through the reference evaluator.
 *
 * Thread-safety: immutable after construction; concurrent calls are safe
 * as long as each thread passes its own EvalScratch.
 *
 * Lifetime: the compiled columns are copies, so the FlatEvaluator keeps
 * no reference to the evaluator it was built from.
 */
class FlatEvaluator {
  public:
    explicit FlatEvaluator(const MappingEvaluator& ref);

    /**
     * Objective value of a candidate. Zero-alloc: afterwards `s` holds
     * only the makespan.
     *
     * `makespan_cutoff` (see makespanCutoff()) skips the decode and the
     * events of a candidate proven to score below the cutoff. The load
     * bound L' — the busiest queue's summed no-stall seconds, less a
     * rounding margin — is a lower bound on the makespan
     * (docs/architecture.md). When L' >= the cutoff the result is the
     * objective of L' — an upper bound on the fitness, below the
     * cutoff's fitness — and s.bounded() is set. The default +inf
     * simulates every candidate.
     */
    double fitness(const Mapping& m, EvalScratch& s,
                   double makespan_cutoff =
                       std::numeric_limits<double>::infinity()) const;

    /**
     * The makespan cutoff of fitness() for a fitness cutoff: the least
     * makespan that scores strictly below `fitness_cutoff`. +inf, which
     * bounds nothing, when the objective reads more than the makespan
     * (only Throughput and Latency qualify), when `fitness_cutoff` is not
     * a finite positive value, or past the group size the rounding
     * margin covers.
     */
    double makespanCutoff(double fitness_cutoff) const;

    /** Makespan and energy of a candidate for the multi-objective layer. */
    SimPoint simPoint(const Mapping& m, EvalScratch& s) const;

    /**
     * fitness() of `ms[0..n)` into `out[0..n)`, bitwise equal to n
     * fitness() calls on the same cutoff. When `bounded` is non-null,
     * bounded[i] says whether candidate i stopped at its load bound.
     * Candidates the bound does not stop run through the lane kernel
     * four at a time where laneKernel() holds; the rest, and every
     * candidate elsewhere, run through the one-candidate kernel.
     */
    void fitnessBatch(const Mapping* ms, size_t n, double makespan_cutoff,
                      EvalScratch& s, double* out,
                      uint8_t* bounded = nullptr) const;

    /** simPoint() of `ms[0..n)` into `out[0..n)`, as fitnessBatch(). */
    void simPointBatch(const Mapping* ms, size_t n, EvalScratch& s,
                       SimPoint* out) const;

    /**
     * Whether the batch calls step four candidates per pass on this
     * host: an x86-64 CPU with AVX2, checked once per process.
     */
    static bool laneKernel();

  private:
    /**
     * Decode `m` into lane `lane` of s's flattened queues (exact decode()
     * order) and gather each position's table cells into the lane's
     * queue-ordered columns. Linear passes: a counting sort of all jobs
     * on priority buckets, an insertion fix-up within buckets, then one
     * distribute walk into the queues (docs/architecture.md gives the
     * exactness argument).
     */
    void decodeInto(const Mapping& m, EvalScratch& s, int lane) const;

    /** The schedule simulation of `m` into `s.makespan_`. */
    void simulateEvents(const Mapping& m, EvalScratch& s) const;

    /**
     * The makespans of `lane[0..kLanes)` into `makespan`: one lockstep
     * event loop over all of them where laneKernel() holds, else one
     * simulateEvents() each.
     */
    void simulateLanes(const Mapping* const* lane, EvalScratch& s,
                       double* makespan) const;

    /**
     * Calls `sink(i, makespan, bounded)` once for every candidate of
     * `ms[0..n)`: the load bound when it reaches `makespan_cutoff`, else
     * the simulated makespan.
     */
    template <class Sink>
    void forEachMakespan(const Mapping* ms, size_t n,
                         double makespan_cutoff, EvalScratch& s,
                         Sink&& sink) const;

    /**
     * Sets `s.makespan_` to the load bound and returns true when the
     * bound reaches `makespan_cutoff` (see fitness()).
     */
    bool stopsAtBound(const Mapping& m, EvalScratch& s,
                      double makespan_cutoff) const;

    /** Objective value of `m` at makespan `makespan`. */
    double objectiveValue(const Mapping& m, double makespan) const;

    /** Total energy (Joules) of a mapping; same sum order as reference. */
    double totalJoules(const Mapping& m) const;

    /** The load bound L' of `m`; uses `s`'s slot arrays as scratch. */
    double loadBound(const Mapping& m, EvalScratch& s) const;

    int jobs_ = 0;
    int accels_ = 0;
    double system_bw_ = 0.0;
    BwPolicy policy_ = BwPolicy::Proportional;
    Objective objective_ = Objective::Throughput;
    int64_t total_flops_ = 0;
    // Decode bucket count: a power of two, about two per job.
    int buckets_ = 1;

    // Job Analysis Table columns, [job * accels_ + accel].
    std::vector<double> no_stall_seconds_;
    std::vector<double> req_bw_gbps_;
    std::vector<double> energy_pj_;
};

}  // namespace magma::sched

#endif  // MAGMA_SCHED_FLAT_EVAL_H_

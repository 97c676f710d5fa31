#ifndef MAGMA_OPT_WARM_START_H_
#define MAGMA_OPT_WARM_START_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dnn/workload.h"
#include "sched/mapping.h"

namespace magma::opt {

/**
 * Warm start (Section V-C): solution-transfer primitives plus the seed
 * builders api::seedSearch runs inside api::solve for the serve layer
 * (src/serve/) and the dynamic-workload engine (src/dyn/). Each primitive adapts a stored
 * solution to a new group, and `seedsAround` turns the adapted base into
 * a seed population (the base verbatim plus mutated copies), so the
 * population starts clustered around previous knowledge but keeps
 * diversity for further optimization (Trf-N-ep in Table V).
 */
namespace transfer {

/**
 * Search population for a group of `group_size` jobs: the paper's
 * population-tracks-group-size rule (Section V-B2), clamped to [8, 100].
 */
int populationFor(int group_size);

/**
 * Sample budget of a warm-started search: `requested` when positive,
 * else a quarter of `cold_budget` (the Table V regime: transferred
 * solutions need a fraction of the cold cost) but at least one
 * generation of `population`. serve::MapRequest::warmBudget and
 * dyn::DynConfig::remapBudget are the `requested` of their front ends.
 */
int64_t warmBudget(int64_t requested, int population, int64_t cold_budget);

/**
 * Positional adaptation: tile/truncate the stored genome onto
 * `group_size` jobs by index, clamping accel genes into the new
 * platform's range.
 */
sched::Mapping adaptPositional(const sched::Mapping& stored, int group_size,
                               int num_accels);

/**
 * Job-matched adaptation: each job of `target` inherits the gene of a
 * stored job in the same similarity bucket — an exact tier first (model
 * + full layer signature + batch, so a job surviving from the stored
 * group keeps its own gene; this is what makes departure-shrunk groups
 * adapt explicitly instead of falling back to fuzzy matching), then
 * task + layer type + log-size class, then a coarser task + layer type
 * fallback; unmatched jobs draw random genes from `rng`. Shrinking job
 * counts (target smaller than stored) are first-class: surviving jobs
 * hit the exact tier and departed jobs' genes are simply dropped.
 */
sched::Mapping adaptJobMatched(const sched::Mapping& stored,
                               const dnn::JobGroup& stored_group,
                               const dnn::JobGroup& target, int num_accels,
                               common::Rng& rng);

/**
 * Identity-preserving adaptation for callers that KNOW the job
 * correspondence (the src/dyn/ event engine tracks every job's bundle
 * identity across Arrive/Depart/Swap events): target job i inherits the
 * gene of stored job `match[i]` verbatim; `match[i] < 0` marks a new
 * job, which draws its gene from the job-matched similarity buckets of
 * `stored_group` (random when nothing matches). Accel genes are clamped
 * into the new platform's range. `match` must have one entry per target
 * job, each < stored.size() (checked).
 */
sched::Mapping adaptMatched(const sched::Mapping& stored,
                            const dnn::JobGroup& stored_group,
                            const dnn::JobGroup& target,
                            const std::vector<int>& match, int num_accels,
                            common::Rng& rng);

/** `base` verbatim plus `count - 1` lightly mutated copies. */
std::vector<sched::Mapping> seedsAround(const sched::Mapping& base,
                                        int count, int num_accels,
                                        common::Rng& rng);

/**
 * Seeds from a stored solution (the warm-start store tier): job-matched
 * adaptation onto `target` when `stored_group` is known, positional
 * adaptation onto target.size() jobs when it is empty (a groupless
 * entry carries no job identities), then `seedsAround` for `count`
 * seeds.
 */
std::vector<sched::Mapping> seedsFromStored(const sched::Mapping& stored,
                                            const dnn::JobGroup& stored_group,
                                            const dnn::JobGroup& target,
                                            int count, int num_accels,
                                            common::Rng& rng);

/**
 * Seeds from Pareto-archive members (generic knowledge: other groups,
 * possibly other objectives): the first `count` members adapted
 * positionally onto `group_size` jobs, then topped up round-robin with
 * lightly mutated copies to exactly `count` seeds, so the population
 * keeps the archive's diversity (seedsAround would cluster everything
 * around one member). `members` must be non-empty.
 */
std::vector<sched::Mapping> seedsFromArchive(
    const std::vector<sched::Mapping>& members, int group_size, int count,
    int num_accels, common::Rng& rng);

}  // namespace transfer

}  // namespace magma::opt

#endif  // MAGMA_OPT_WARM_START_H_

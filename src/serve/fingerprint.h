#ifndef MAGMA_SERVE_FINGERPRINT_H_
#define MAGMA_SERVE_FINGERPRINT_H_

#include <string>

#include "accel/platform.h"
#include "api/spec.h"
#include "dnn/workload.h"
#include "sched/evaluator.h"

namespace magma::serve {

/**
 * Workload fingerprint — the MappingStore key (a finer key than the
 * paper's task type, Section V-C). Two groups with the same
 * fingerprint are "the same workload" for warm-start purposes.
 *
 * `key` covers everything transfer quality depends on: the task type, the
 * platform regime (name + core count + system bandwidth), the objective
 * being optimized, the layer-type histogram and the log-size-class
 * signature of the group's jobs. `coarse` drops the histogram/signature,
 * keeping task + platform regime + objective — the fallback tier for
 * independently drawn groups of the same task distribution (the Table V
 * transfer case, where job-matched adaptation bridges the composition
 * difference). Bandwidth and objective stay in BOTH tiers: a mapping
 * tuned for one regime (or its fitness value) is not comparable under
 * another, so cross-regime transfer is never attempted.
 *
 * Keys are single tokens (no whitespace) so the store's text persistence
 * can treat them as one field.
 */
struct Fingerprint {
    std::string key;
    std::string coarse;
};

/** Fingerprint of a job group on a platform under an objective.
 * Deterministic: the same inputs always produce the same keys. */
Fingerprint fingerprintOf(
    const dnn::JobGroup& group, const accel::Platform& platform,
    sched::Objective objective = sched::Objective::Throughput);

/**
 * Same, for the platform a declarative ProblemSpec describes — what the
 * MappingService keys its store by for spec-carried requests. Equals the
 * platform overload on api::buildPlatform(spec) exactly.
 */
Fingerprint fingerprintOf(
    const dnn::JobGroup& group, const api::ProblemSpec& spec,
    sched::Objective objective = sched::Objective::Throughput);

/**
 * Coalescing key (ServiceConfig::coalesce): two in-flight requests with
 * equal keys would run the SAME search apart from the optimizer seed, so
 * the service collapses them into one. Extends the fine fingerprint with
 * every SearchSpec/request field that reaches the result — method,
 * budget, eval mode, warm-start gate, write-back and warm budget —
 * EXCEPT the seed: the leader's seed is honored, followers adopt its
 * result (marked MapResponse::coalesced). Tenant and priority are
 * admission metadata, not search inputs, so they never split a key.
 */
std::string coalesceKeyOf(const Fingerprint& fp,
                          const api::SearchSpec& search, bool write_back,
                          int64_t warm_budget);

}  // namespace magma::serve

#endif  // MAGMA_SERVE_FINGERPRINT_H_

#ifndef MAGMA_SERVE_REQUEST_H_
#define MAGMA_SERVE_REQUEST_H_

#include <cstdint>
#include <string>

#include "api/spec.h"
#include "dnn/workload.h"
#include "sched/mapping.h"

namespace magma::serve {

/**
 * One mapping request submitted to the MappingService (the online version
 * of the Section V-C scenario: groups of jobs keep arriving and the
 * mapper amortizes search cost by transferring previous solutions).
 *
 * Since the api/ redesign a request *is* a declarative experiment plus
 * admission metadata: `problem` (api::ProblemSpec) describes the
 * workload/platform, `search` (api::SearchSpec) the optimization — the
 * same artifacts `m3e_cli --spec` runs offline, so a spec file can be
 * replayed through the service verbatim. The workload is either an
 * explicit `group`, or — when `group` is empty — generated from the
 * problem spec (task, groupSize, workloadSeed) via WorkloadGenerator.
 *
 * Everything that influences the result is carried in the request, so a
 * request with a fixed `search.seed` yields a bitwise identical mapping
 * regardless of queue interleaving (given the same store view, see
 * `search.warmStart`/`writeBack`).
 */
struct MapRequest {
    // -- admission ------------------------------------------------------
    std::string tenant = "default";
    int priority = 0;  ///< lower is more urgent; FIFO + fair within a level
    /**
     * Staleness bound, honored at dequeue: a request that has already
     * waited longer than this when a lane picks it up is shed (its
     * future resolves with MapResponse::shed) instead of searched —
     * the caller has presumably timed out, so the search would be
     * wasted work. 0 disables the check.
     */
    double deadlineSeconds = 0.0;

    // -- experiment -----------------------------------------------------
    api::ProblemSpec problem;  ///< workload + platform + BW regime
    /**
     * Method, objective, budget, seed and warm toggle. The service's
     * cold-search budget default stays at the pre-redesign 2000 (not
     * SearchSpec's offline 10K): online requests are latency-bound.
     * `threads` and the record* flags are governed by the service, not
     * the spec: evaluation lanes come from ServiceConfig::
     * threadsPerRequest, and convergence recording is enabled internally
     * when a warm start needs the Trf-0-ep probe.
     */
    api::SearchSpec search = [] {
        api::SearchSpec s;
        s.sampleBudget = 2000;
        return s;
    }();
    /** Explicit jobs; when non-empty it overrides the generated group of
     * the problem spec (problem.task should still describe it). */
    dnn::JobGroup group;

    // -- warm start -----------------------------------------------------
    /** search.warmStart gates seeding from the MappingStore on a hit. */
    bool writeBack = true;  ///< publish improved solutions to the store
    /** Budget on a store hit; <= 0 selects a quarter of
     * search.sampleBudget (opt::transfer::warmBudget). */
    int64_t warmBudget = 0;
};

/** Outcome of one served request. */
struct MapResponse {
    sched::Mapping best;
    double bestFitness = 0.0;
    int64_t samplesUsed = 0;

    bool warmStart = false;  ///< store hit: search was seeded
    bool exactHit = false;   ///< hit on the full fingerprint (not coarse)
    /** Store missed but the search was seeded from the service's
     * Pareto archive (ServiceConfig::archive) at the full cold budget. */
    bool archiveSeeded = false;
    std::string fingerprint; ///< fingerprint key of the served workload
    /** Best transferred-seed fitness before refinement (Trf-0-ep); the
     * Herald-like member api::seedSearch adds is not a transferred seed. */
    double trf0Fitness = 0.0;

    int64_t serveOrder = 0;      ///< global admission index (fairness probe)
    double waitSeconds = 0.0;    ///< time spent queued
    double serviceSeconds = 0.0; ///< time spent searching

    /**
     * This response was fanned out from a coalesced leader search
     * (ServiceConfig::coalesce): the mapping is the leader's, bitwise,
     * and samplesUsed is 0 — this request spent nothing itself.
     */
    bool coalesced = false;
    /**
     * Load-shed: admission control dropped the request (bounded queue,
     * per-priority limit, or missed deadline at dequeue). No search ran;
     * every result field other than waitSeconds is default-initialized.
     */
    bool shed = false;
};

}  // namespace magma::serve

#endif  // MAGMA_SERVE_REQUEST_H_

#ifndef MAGMA_SERVE_SERVICE_H_
#define MAGMA_SERVE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/mapping_store.h"
#include "serve/request.h"

namespace magma::exec {
class ThreadPool;
}  // namespace magma::exec

namespace magma::mo {
class ParetoArchive;
}  // namespace magma::mo

namespace magma::serve {

/** MappingService knobs. */
struct ServiceConfig {
    /** Concurrent requests in flight (worker lanes). */
    int workers = 1;
    /**
     * Evaluation lanes per request (exec::ThreadPool size inside each
     * worker): 1 = serial, 0 = auto (MAGMA_THREADS env var, else hardware
     * concurrency), N > 1 = exactly N. Each worker lane owns one pool for
     * its lifetime, so back-to-back requests reuse warm threads.
     */
    int threadsPerRequest = 1;
    /** Warm-start store bound (LRU-evicted past this). */
    int storeCapacity = 64;
    /**
     * When non-empty: the store's snapshot path. Construction runs crash
     * recovery (snapshot + "<storePath>.log" replay, tolerating a torn
     * final record), attaches the append-log — every write-back and
     * eviction is then fsync'd durably — and folds the replayed log into
     * a fresh snapshot. stop() compacts again, and so does a write-back
     * that finds the log stopped by a failed append. Warm-start
     * knowledge survives process restarts AND kill -9 mid-write.
     */
    std::string storePath;
    /**
     * Collapse identical in-flight work: a submitted request whose
     * coalescing key (fingerprint + every result-reaching search field
     * except the seed, see coalesceKeyOf) matches a queued or in-flight
     * request becomes a follower — it occupies no queue slot and runs no
     * search; when the leader finishes, every follower's future resolves
     * with a copy of the leader's response marked MapResponse::coalesced.
     * Followers inherit the leader's outcome in full: its exception, or
     * its shed flag when admission control drops the leader. Off by
     * default — coalesced responses depend on what is in flight at
     * submit time, so replays are only request-for-request reproducible
     * with coalescing off.
     */
    bool coalesce = false;
    /**
     * Admission control: with a positive bound, a submit() that would
     * push the queue past `maxQueueDepth` waiting requests sheds one
     * request instead of growing the queue — the oldest request of the
     * lowest-priority level (numerically highest; ties within the level
     * go to the oldest seq), or the incoming request itself when it is
     * lower-priority than everything waiting. Shed futures resolve with
     * MapResponse::shed (not an exception). 0 = unbounded.
     */
    int64_t maxQueueDepth = 0;
    /**
     * Optional per-priority depth limits, checked before the global
     * bound: when level P already holds `priorityDepthLimits[P]` waiting
     * requests, an arriving P-request sheds the oldest waiting request
     * of level P (the arrival is admitted — freshest-wins within a
     * level). Levels without an entry are unlimited.
     */
    std::map<int, int64_t> priorityDepthLimits;
    /** Start worker lanes immediately; false requires an explicit
     * start() (lets tests enqueue a whole trace before admission). */
    bool autoStart = true;
    /**
     * Registry the service records into: per-tenant wait/service
     * histograms ("serve.wait_seconds.<tenant>"), request counters and
     * queue-depth gauges. Null selects obs::MetricsRegistry::global();
     * benches pass a local registry so back-to-back configurations
     * don't bleed into one aggregate. Must outlive the service.
     */
    obs::MetricsRegistry* registry = nullptr;
    /**
     * Third warm-start tier: when a request misses both MappingStore
     * tiers (exact and coarse), the member mappings of this Pareto
     * archive — typically a persisted multi-objective front over the
     * same platform family (mo::ParetoArchive::load) — are adapted
     * positionally onto the request's group and seed the search at the
     * FULL cold budget (archive members are generic knowledge, not
     * same-workload solutions, so the budget is not cut the way store
     * hits cut it). Null disables the tier. Must outlive the service;
     * the service never mutates it, so the tier keeps requests
     * deterministic the way a frozen store does.
     */
    const mo::ParetoArchive* archive = nullptr;
};

/** Aggregate service counters. */
struct ServiceStats {
    int64_t submitted = 0;
    int64_t served = 0;  ///< fulfilled successfully (excludes `failed`)
    int64_t failed = 0;  ///< futures resolved with an exception
    int64_t coldServed = 0;
    int64_t warmServed = 0;     ///< served seeded from the store
    int64_t archiveSeeded = 0;  ///< store misses seeded from cfg.archive
    int64_t coalesced = 0;  ///< fulfilled as followers of a coalesced leader
    int64_t shed = 0;       ///< dropped by admission control or deadline
    int64_t queueDepth = 0;  ///< currently waiting
    int64_t inFlight = 0;    ///< currently being searched
    int64_t samplesSpent = 0;
    /** Sum over warm requests of (cold budget - samples actually spent) —
     * the search cost the store amortized away (the Table V effect). */
    int64_t samplesSaved = 0;
};

/**
 * Online mapping service (the production form of Section V-C's serving
 * scenario): accepts MapRequests, queues them under per-tenant fair
 * admission, and serves them on a fixed set of worker lanes, each lane
 * running the search the request's SearchSpec names (default MAGMA,
 * with the paper's population-tracks-group-size rule; any
 * api::OptimizerRegistry method works, an unknown name fails the
 * request's future) over the exec engine.
 *
 * Admission order: strict priority levels first (lower value first);
 * within a level, lanes round-robin across the currently waiting tenants
 * by admission count (the tenant admitted least often goes next, ties to
 * the earliest waiting head request), FIFO within a tenant. A tenant
 * joining (or re-joining) the queue is rebased to the current round, so
 * a flood from one tenant cannot starve another — and a late joiner
 * cannot monopolize the lanes to "catch up" either.
 *
 * Warm starts, three tiers: each request's workload is fingerprinted
 * and looked up in the MappingStore — exact fine-fingerprint hits
 * first, then the best coarse (task + platform) entry; on a hit the
 * search is seeded with the transferred solution (job-matched
 * adaptation) and runs on the reduced warm budget. When BOTH store
 * tiers miss and ServiceConfig::archive is set, the archive's member
 * mappings seed the search at the full cold budget (the
 * mo::ParetoArchive::seedMappings tier). Every request runs api::solve,
 * whose seedSearch cascade also puts the Herald-like mapping into every
 * population, a cold one included. Completed searches write improved
 * solutions back to the store, so concurrent tenants of one workload
 * type compound each other's knowledge.
 *
 * Production controls (all off by default): request coalescing collapses
 * identical in-flight work (ServiceConfig::coalesce), admission control
 * sheds load past the queue bounds (maxQueueDepth /
 * priorityDepthLimits), and MapRequest::deadlineSeconds sheds requests
 * that waited past their staleness bound at dequeue. Shed futures
 * resolve with MapResponse::shed rather than an exception — shedding is
 * an answer, not a failure. See docs/serving.md for the runbook.
 *
 * Determinism: a request's response mapping is a pure function of the
 * request fields and the store view it observed. With warm starts
 * disabled — or against a frozen store (writeBack=false everywhere) —
 * fixed seeds produce bitwise identical mappings at any worker count and
 * any queue interleaving (tests/test_serve.cc locks this in).
 */
class MappingService {
  public:
    explicit MappingService(ServiceConfig cfg = {});
    ~MappingService();  ///< stop()s (draining the queue) if still running

    MappingService(const MappingService&) = delete;
    MappingService& operator=(const MappingService&) = delete;

    /** Enqueue a request; the future resolves when it has been served. */
    std::future<MapResponse> submit(MapRequest req);

    /** Launch worker lanes (no-op when already running). */
    void start();

    /** Block until the queue is empty and no request is in flight. */
    void drain();

    /**
     * Drain, join the worker lanes and — when cfg.storePath is set —
     * persist the store. The service accepts no submissions afterwards.
     */
    void stop();

    MappingStore& store() { return store_; }
    const ServiceConfig& config() const { return cfg_; }
    ServiceStats stats() const;

  private:
    struct Pending {
        MapRequest req;
        std::promise<MapResponse> promise;
        uint64_t seq = 0;  ///< arrival order
        std::chrono::steady_clock::time_point enqueued;
        /** Non-empty iff this request leads a coalescing key (it is the
         * one that searches; followers live in followers_[key]). */
        std::string coalesceKey;
    };

    void workerLoop();
    /** Pop the next request per the admission policy. Caller holds mu_. */
    Pending popNext();
    /** Whether the tenant has a waiting request. Caller holds mu_. */
    bool tenantQueued(const std::string& tenant) const;
    bool queueEmpty() const;  ///< caller holds mu_
    /** Serve one request on this lane's pool. */
    MapResponse serveOne(const MapRequest& req, exec::ThreadPool& lane_pool);

    /** Record one finished request into the registry (see cfg.registry). */
    void recordServed(const std::string& tenant, bool failed,
                      double wait_seconds, double service_seconds);

    /** Remove the oldest waiting request of `level` (min seq across its
     * tenants) from the queue, with admission bookkeeping. Caller holds
     * mu_; the caller still owns fulfilling the promise. */
    Pending removeOldestLocked(int level);
    /** Move `victim` plus its coalescing followers (shed cascades to
     * them) into `out` and bump stats_.shed. Caller holds mu_. */
    void collectShedLocked(Pending&& victim, std::vector<Pending>& out);
    /** Resolve shed promises (MapResponse::shed) + counters. No lock. */
    void fulfillShed(std::vector<Pending>& sheds);

    ServiceConfig cfg_;
    obs::MetricsRegistry* reg_ = nullptr;  ///< cfg.registry or global
    MappingStore store_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;   ///< queue gained work / stopping
    std::condition_variable idle_cv_;   ///< queue drained + nothing in flight
    /** priority level -> tenant -> FIFO of waiting requests. */
    std::map<int, std::map<std::string, std::deque<Pending>>> queue_;
    /** Admission counts of currently waiting tenants (rebased on join,
     * dropped when a tenant's last waiting request is admitted). */
    std::map<std::string, int64_t> admitted_;
    /** Coalescing keys with a queued or in-flight leader. */
    std::set<std::string> leader_keys_;
    /** Followers waiting on each leader's result. */
    std::map<std::string, std::vector<Pending>> followers_;
    uint64_t next_seq_ = 0;
    int64_t next_serve_order_ = 0;
    int64_t queue_depth_ = 0;
    int64_t in_flight_ = 0;
    bool running_ = false;
    bool stopping_ = false;
    ServiceStats stats_;

    std::vector<std::thread> workers_;
};

}  // namespace magma::serve

#endif  // MAGMA_SERVE_SERVICE_H_

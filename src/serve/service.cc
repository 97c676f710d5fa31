#include "serve/service.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>

#include "api/registry.h"
#include "api/runner.h"
#include "exec/thread_pool.h"
#include "m3e/problem.h"
#include "mo/pareto.h"
#include "obs/scope.h"
#include "serve/fingerprint.h"

namespace magma::serve {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace

MappingService::MappingService(ServiceConfig cfg)
    : cfg_(cfg),
      reg_(cfg.registry ? cfg.registry : &obs::MetricsRegistry::global()),
      store_(cfg.storeCapacity)
{
    cfg_.workers = std::max(1, cfg_.workers);
    if (!cfg_.storePath.empty()) {
        const std::string log_path = cfg_.storePath + ".log";
        try {
            // Crash recovery: snapshot, then the append-log's complete
            // records (a torn final record ends the replay cleanly).
            store_.recover(cfg_.storePath, log_path);
        } catch (const std::exception& e) {
            // A corrupt store must not keep the service down; start
            // cold instead.
            std::fprintf(stderr,
                         "MappingService: ignoring store '%s': %s\n",
                         cfg_.storePath.c_str(), e.what());
            store_.clear();
        }
        if (store_.openLog(log_path)) {
            // Fold the replayed records into a fresh snapshot and
            // truncate the log — this also discards any torn tail, so
            // new records never append behind one.
            if (!store_.compact(cfg_.storePath))
                std::fprintf(stderr,
                             "MappingService: could not compact store "
                             "'%s'\n",
                             cfg_.storePath.c_str());
        } else {
            std::fprintf(stderr,
                         "MappingService: could not open store log "
                         "'%s'\n",
                         log_path.c_str());
        }
    }
    if (cfg_.autoStart)
        start();
}

MappingService::~MappingService()
{
    stop();
}

void
MappingService::start()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (running_ || stopping_)
        return;
    running_ = true;
    workers_.reserve(cfg_.workers);
    for (int w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

std::future<MapResponse>
MappingService::submit(MapRequest req)
{
    Pending p;
    p.req = std::move(req);
    p.enqueued = std::chrono::steady_clock::now();
    std::future<MapResponse> future = p.promise.get_future();

    // The coalescing key needs the materialized workload; pay for the
    // generator and platform build outside the queue lock. This mirrors
    // serveOne()'s fingerprint exactly, so a follower adopts precisely
    // the result its own search would have produced (apart from seed).
    // The group goes into the request, so serveOne() does not generate
    // it again.
    std::string coalesce_key;
    if (cfg_.coalesce) {
        if (p.req.group.jobs.empty()) {
            dnn::WorkloadGenerator gen(p.req.problem.workloadSeed);
            p.req.group = gen.makeGroup(p.req.problem.task,
                                        p.req.problem.groupSize);
        }
        Fingerprint fp = fingerprintOf(p.req.group, p.req.problem,
                                       p.req.search.objective);
        coalesce_key = coalesceKeyOf(fp, p.req.search, p.req.writeBack,
                                     p.req.warmBudget);
    }

    std::vector<Pending> to_shed;
    bool enqueued = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_)
            throw std::runtime_error("MappingService: submit after stop()");
        p.seq = next_seq_++;
        ++stats_.submitted;
        if (obs::countersOn())
            reg_->counter("serve.submitted").add();

        // Coalesce: ride an existing leader instead of queueing. A
        // follower holds no queue slot, so admission control below never
        // sees it.
        if (!coalesce_key.empty() && leader_keys_.count(coalesce_key)) {
            followers_[coalesce_key].push_back(std::move(p));
            return future;
        }

        const int prio = p.req.priority;
        const std::string tenant = p.req.tenant;

        // Admission control, per-priority bound first: level P full means
        // its OLDEST waiting request is shed (freshest-wins in-level).
        if (auto lim = cfg_.priorityDepthLimits.find(prio);
            lim != cfg_.priorityDepthLimits.end() && lim->second > 0) {
            int64_t level_depth = 0;
            if (auto q = queue_.find(prio); q != queue_.end())
                for (const auto& [t, fifo] : q->second)
                    level_depth += static_cast<int64_t>(fifo.size());
            if (level_depth >= lim->second)
                collectShedLocked(removeOldestLocked(prio), to_shed);
        }

        // Global bound: shed the oldest request of the lowest-priority
        // waiting level — or the incoming request itself when everything
        // waiting outranks it.
        bool incoming_shed = false;
        if (cfg_.maxQueueDepth > 0 && queue_depth_ >= cfg_.maxQueueDepth &&
            !queue_.empty()) {
            int worst = queue_.rbegin()->first;
            if (worst >= prio) {
                collectShedLocked(removeOldestLocked(worst), to_shed);
            } else {
                collectShedLocked(std::move(p), to_shed);
                incoming_shed = true;
            }
        }

        if (!incoming_shed) {
            if (!coalesce_key.empty()) {
                p.coalesceKey = coalesce_key;
                leader_keys_.insert(coalesce_key);
            }
            bool newly_active = !tenantQueued(tenant);
            queue_[prio][tenant].push_back(std::move(p));
            if (newly_active) {
                // The tenant joins the round-robin at the CURRENT round:
                // rebase its admission count to the minimum among the
                // tenants already waiting. Without this, a late joiner
                // (count 0) would be served exclusively until it caught
                // up with long-running tenants — starving them — and a
                // returning tenant with an old high count would itself
                // be starved.
                bool found = false;
                int64_t min_other = 0;
                for (const auto& [q_prio, tenants] : queue_) {
                    for (const auto& [t, fifo] : tenants) {
                        if (t == tenant || fifo.empty())
                            continue;
                        int64_t c = 0;
                        if (auto it = admitted_.find(t);
                            it != admitted_.end())
                            c = it->second;
                        if (!found || c < min_other) {
                            min_other = c;
                            found = true;
                        }
                    }
                }
                admitted_[tenant] = found ? min_other : 0;
            }
            ++queue_depth_;
            enqueued = true;
        }
        if (obs::countersOn())
            reg_->gauge("serve.queue_depth")
                .set(static_cast<double>(queue_depth_));
    }
    fulfillShed(to_shed);
    if (enqueued)
        work_cv_.notify_one();
    return future;
}

bool
MappingService::tenantQueued(const std::string& tenant) const
{
    for (const auto& [prio, tenants] : queue_) {
        auto it = tenants.find(tenant);
        if (it != tenants.end() && !it->second.empty())
            return true;
    }
    return false;
}

bool
MappingService::queueEmpty() const
{
    return queue_depth_ == 0;
}

MappingService::Pending
MappingService::popNext()
{
    // Strict priority levels; within a level, the tenant admitted least
    // often goes next (ties to the earliest waiting head request), FIFO
    // within a tenant.
    auto& level = queue_.begin()->second;
    std::string best_tenant;
    int64_t best_admitted = 0;
    uint64_t best_seq = 0;
    for (auto& [tenant, fifo] : level) {
        int64_t admitted = 0;
        if (auto it = admitted_.find(tenant); it != admitted_.end())
            admitted = it->second;
        uint64_t head_seq = fifo.front().seq;
        if (best_tenant.empty() || admitted < best_admitted ||
            (admitted == best_admitted && head_seq < best_seq)) {
            best_tenant = tenant;
            best_admitted = admitted;
            best_seq = head_seq;
        }
    }

    auto fifo_it = level.find(best_tenant);
    Pending p = std::move(fifo_it->second.front());
    fifo_it->second.pop_front();
    if (fifo_it->second.empty())
        level.erase(fifo_it);
    if (level.empty())
        queue_.erase(queue_.begin());
    ++admitted_[best_tenant];
    // Forget counts of tenants that left the queue — they rejoin at the
    // current round via submit()'s rebase, and the map stays bounded by
    // the number of concurrently waiting tenants.
    if (!tenantQueued(best_tenant))
        admitted_.erase(best_tenant);
    --queue_depth_;
    return p;
}

MappingService::Pending
MappingService::removeOldestLocked(int level)
{
    auto level_it = queue_.find(level);
    auto& tenants = level_it->second;
    auto best = tenants.end();
    for (auto it = tenants.begin(); it != tenants.end(); ++it)
        if (best == tenants.end() ||
            it->second.front().seq < best->second.front().seq)
            best = it;

    Pending victim = std::move(best->second.front());
    best->second.pop_front();
    const std::string tenant = best->first;
    if (best->second.empty())
        tenants.erase(best);
    if (tenants.empty())
        queue_.erase(level_it);
    // Same bookkeeping as an admission, minus the admission count: a
    // shed is not a turn taken.
    if (!tenantQueued(tenant))
        admitted_.erase(tenant);
    --queue_depth_;
    return victim;
}

void
MappingService::collectShedLocked(Pending&& victim,
                                  std::vector<Pending>& out)
{
    const size_t before = out.size();
    if (!victim.coalesceKey.empty()) {
        // Shedding a coalesced leader cascades to its followers: nobody
        // is left waiting on a search that will never run.
        leader_keys_.erase(victim.coalesceKey);
        auto node = followers_.extract(victim.coalesceKey);
        if (!node.empty())
            for (Pending& f : node.mapped())
                out.push_back(std::move(f));
    }
    out.push_back(std::move(victim));
    stats_.shed += static_cast<int64_t>(out.size() - before);
}

void
MappingService::fulfillShed(std::vector<Pending>& sheds)
{
    if (sheds.empty())
        return;
    if (obs::countersOn())
        reg_->counter("serve.shed")
            .add(static_cast<int64_t>(sheds.size()));
    for (Pending& p : sheds) {
        MapResponse resp;
        resp.shed = true;
        resp.waitSeconds = secondsSince(p.enqueued);
        p.promise.set_value(std::move(resp));
    }
    sheds.clear();
}

void
MappingService::workerLoop()
{
    // Each lane owns its evaluation pool for its whole lifetime, so
    // back-to-back requests reuse warm threads instead of spawning a
    // pool per search. A 1-lane pool starts no thread.
    exec::ThreadPool lane_pool(cfg_.threadsPerRequest);

    while (true) {
        Pending p;
        int64_t serve_order = 0;
        bool have = false;
        bool exit_lane = false;
        std::vector<Pending> expired;
        {
            obs::Scope scope("serve.queue_wait");
            std::unique_lock<std::mutex> lk(mu_);
            work_cv_.wait(lk,
                          [this] { return stopping_ || !queueEmpty(); });
            while (!queueEmpty()) {
                p = popNext();
                // Deadline, honored at dequeue: the caller's staleness
                // bound passed while the request waited, so the search
                // would be wasted work — shed instead.
                if (p.req.deadlineSeconds > 0.0 &&
                    secondsSince(p.enqueued) > p.req.deadlineSeconds) {
                    collectShedLocked(std::move(p), expired);
                    continue;
                }
                have = true;
                break;
            }
            if (have) {
                serve_order = next_serve_order_++;
                ++in_flight_;
            } else {
                exit_lane = stopping_;
                if (in_flight_ == 0)
                    idle_cv_.notify_all();
            }
        }
        fulfillShed(expired);
        if (exit_lane)
            return;
        if (!have)
            continue;

        double wait_seconds = secondsSince(p.enqueued);
        auto t0 = std::chrono::steady_clock::now();
        MapResponse resp;
        std::exception_ptr error;
        {
            // span payload: i = serve order, a = queue-wait seconds,
            // b = service seconds
            obs::Scope scope("serve.request", serve_order);
            try {
                resp = serveOne(p.req, lane_pool);
                resp.serveOrder = serve_order;
                resp.waitSeconds = wait_seconds;
                resp.serviceSeconds = secondsSince(t0);
                scope.payload(wait_seconds, resp.serviceSeconds);
            } catch (...) {
                error = std::current_exception();
            }
        }

        // Commit the counters before fulfilling the future, so a caller
        // that reads stats() right after future.get() sees this request.
        // A coalesced leader also takes its followers along here — they
        // inherit this outcome, success or failure.
        std::vector<Pending> followers;
        {
            std::lock_guard<std::mutex> lk(mu_);
            --in_flight_;
            if (!p.coalesceKey.empty()) {
                leader_keys_.erase(p.coalesceKey);
                auto node = followers_.extract(p.coalesceKey);
                if (!node.empty())
                    followers = std::move(node.mapped());
            }
            if (error) {
                stats_.failed += 1 + static_cast<int64_t>(followers.size());
            } else {
                ++stats_.served;
                resp.warmStart ? ++stats_.warmServed : ++stats_.coldServed;
                if (resp.archiveSeeded)
                    ++stats_.archiveSeeded;
                stats_.samplesSpent += resp.samplesUsed;
                if (resp.warmStart)
                    stats_.samplesSaved += std::max<int64_t>(
                        0, p.req.search.sampleBudget - resp.samplesUsed);
                stats_.served += static_cast<int64_t>(followers.size());
                stats_.coalesced += static_cast<int64_t>(followers.size());
            }
            if (obs::countersOn()) {
                reg_->gauge("serve.queue_depth")
                    .set(static_cast<double>(queue_depth_));
                reg_->gauge("serve.in_flight")
                    .set(static_cast<double>(in_flight_));
            }
            if (queueEmpty() && in_flight_ == 0)
                idle_cv_.notify_all();
        }
        recordServed(p.req.tenant, error != nullptr, wait_seconds,
                     resp.serviceSeconds);
        if (obs::countersOn() && !followers.empty())
            reg_->counter("serve.coalesced")
                .add(static_cast<int64_t>(followers.size()));
        if (error) {
            for (Pending& f : followers)
                f.promise.set_exception(error);
            p.promise.set_exception(error);
        } else {
            for (Pending& f : followers) {
                MapResponse fanned = resp;  // the leader's result, bitwise
                fanned.coalesced = true;
                fanned.samplesUsed = 0;  // this request spent nothing
                fanned.waitSeconds = secondsSince(f.enqueued);
                f.promise.set_value(std::move(fanned));
            }
            p.promise.set_value(std::move(resp));
        }
    }
}

void
MappingService::recordServed(const std::string& tenant, bool failed,
                             double wait_seconds, double service_seconds)
{
    if (!obs::countersOn())
        return;
    // One registry lookup per request is negligible next to the search
    // the request just paid for; it also keeps the per-tenant names
    // dynamic without a local cache to invalidate.
    if (failed) {
        reg_->counter("serve.failed").add();
        return;
    }
    reg_->counter("serve.requests").add();
    reg_->histogram("serve.wait_seconds").record(wait_seconds);
    reg_->histogram("serve.service_seconds").record(service_seconds);
    reg_->histogram("serve.wait_seconds." + tenant).record(wait_seconds);
    reg_->histogram("serve.service_seconds." + tenant)
        .record(service_seconds);
}

MapResponse
MappingService::serveOne(const MapRequest& req, exec::ThreadPool& lane_pool)
{
    // Multi-objective specs are an offline (api::Runner) feature for
    // now: the serve response carries a single mapping, not a front.
    // Failing the request's future beats silently discarding the
    // objectives list and answering with a scalar search.
    if (!req.search.objectives.empty())
        throw std::invalid_argument(
            "MappingService: SearchSpec objectives= (multi-objective) is "
            "not served; use api::Runner for Pareto-front searches");

    // 1. Materialize the workload and platform from the request's
    // declarative specs.
    std::unique_ptr<m3e::Problem> problem =
        req.group.jobs.empty()
            ? api::buildProblem(req.problem, req.search.objective)
            : std::make_unique<m3e::Problem>(
                  req.group, api::buildPlatform(req.problem),
                  req.problem.bwPolicy, req.search.objective);
    Fingerprint fp = fingerprintOf(problem->group(), problem->platform(),
                                   req.search.objective);

    MapResponse resp;
    resp.fingerprint = fp.key;

    // 2. Warm start through the shared cascade: the store's solution
    // when the fingerprint (or its coarse tier) is known, else the
    // Pareto archive's members (generic knowledge, so a full-budget
    // quality head start; deterministic because the archive is
    // read-only to the service), else cold.
    api::WarmTiers tiers;
    if (req.search.warmStart) {
        tiers.lookup = [&]() -> std::optional<api::StoredSolution> {
            std::optional<MappingStore::Hit> hit;
            {
                obs::Scope scope("serve.store_lookup");
                hit = store_.lookup(fp);
            }
            if (!hit)
                return std::nullopt;
            resp.exactHit = hit->exact;
            return api::StoredSolution{std::move(hit->entry.mapping),
                                       std::move(hit->entry.group)};
        };
        tiers.archive = cfg_.archive;
        tiers.storeSeed = req.search.seed ^ 0x5eedbeefULL;
        tiers.archiveSeed = req.search.seed ^ 0xa2c417eULL;
        tiers.warmBudget = req.warmBudget;
    }

    // 3. Search on this lane's pool with the method the spec names (an
    // unknown name fails this request's future with the registry's
    // did-you-mean error). The service records nothing, so the spec's
    // record* keys (like its threads) stay out of the search.
    api::SearchSpec spec = req.search;
    spec.recordConvergence = spec.recordSamples = false;
    api::Solved solved;
    {
        obs::Scope scope("serve.search");
        solved = api::solve(problem->evaluator(), spec, &tiers, lane_pool);
    }
    const opt::SearchResult& res = solved.result;
    resp.best = res.best;
    resp.bestFitness = res.bestFitness;
    resp.samplesUsed = res.samplesUsed;
    resp.warmStart = solved.source == api::SeedSource::Store;
    resp.archiveSeeded = solved.source == api::SeedSource::Archive;
    resp.trf0Fitness = solved.trf0Fitness;

    // 4. Publish improved knowledge. Transfer quality is only meaningful
    // when refinement actually ran past the seeds — otherwise trf0 and
    // the final fitness are the same number by construction.
    if (req.writeBack) {
        obs::Scope scope("serve.store_write_back");
        store_.update(fp, problem->group().task, res.best, problem->group(),
                      res.bestFitness, res.samplesUsed);
        // A failed append stops the log. Folding the live store into a
        // fresh snapshot restarts it; if that fails too, the log stays
        // stopped and the next write-back retries.
        if (!cfg_.storePath.empty() && store_.logStopped())
            store_.compact(cfg_.storePath);
        bool refined =
            res.samplesUsed > static_cast<int64_t>(solved.seeds);
        if (resp.warmStart && refined && res.bestFitness > 0.0)
            store_.recordTransferQuality(resp.trf0Fitness /
                                         res.bestFitness);
    }
    return resp;
}

void
MappingService::drain()
{
    std::unique_lock<std::mutex> lk(mu_);
    if (!running_ && !queueEmpty())
        throw std::runtime_error(
            "MappingService::drain: service not started");
    idle_cv_.wait(lk, [this] {
        return (queueEmpty() && in_flight_ == 0) || stopping_;
    });
}

void
MappingService::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_)
            return;
        stopping_ = true;
        work_cv_.notify_all();
        idle_cv_.notify_all();
    }
    for (std::thread& w : workers_)
        w.join();
    workers_.clear();

    // A never-started service may still hold queued requests — and, with
    // coalescing, followers waiting on them: fail their futures rather
    // than leaving them hanging.
    std::map<int, std::map<std::string, std::deque<Pending>>> orphans;
    std::map<std::string, std::vector<Pending>> orphan_followers;
    {
        std::lock_guard<std::mutex> lk(mu_);
        orphans.swap(queue_);
        orphan_followers.swap(followers_);
        leader_keys_.clear();
        queue_depth_ = 0;
        running_ = false;
    }
    auto stopped = std::make_exception_ptr(std::runtime_error(
        "MappingService stopped before serving this request"));
    for (auto& [prio, tenants] : orphans)
        for (auto& [tenant, fifo] : tenants)
            for (Pending& p : fifo)
                p.promise.set_exception(stopped);
    for (auto& [key, fifo] : orphan_followers)
        for (Pending& p : fifo)
            p.promise.set_exception(stopped);

    // Fold the log into the snapshot (atomic rename) so the next process
    // recovers from a compact snapshot rather than a long replay; with
    // no log attached this still writes a plain snapshot.
    if (!cfg_.storePath.empty() && !store_.compact(cfg_.storePath))
        std::fprintf(stderr, "MappingService: could not save store '%s'\n",
                     cfg_.storePath.c_str());
}

ServiceStats
MappingService::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats s = stats_;
    s.queueDepth = queue_depth_;
    s.inFlight = in_flight_;
    return s;
}

}  // namespace magma::serve

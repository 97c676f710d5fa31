#include "dyn/engine.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "api/registry.h"
#include "dnn/workload.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "sched/evaluator.h"
#include "serve/fingerprint.h"

namespace magma::dyn {

namespace {

/** Per-event deterministic seed: replays depend on (trace, config)
 * only, never on wall clock or thread interleaving. */
uint64_t
eventSeed(uint64_t base_seed, int64_t event_index)
{
    return base_seed +
           0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(event_index + 1);
}

/** The engine's counters, resolved once. */
struct DynMetrics {
    obs::Counter& events;
    obs::Counter& remaps;
};

DynMetrics&
dynMetrics()
{
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    static DynMetrics m{reg.counter("dyn.events"), reg.counter("dyn.remaps")};
    return m;
}

}  // namespace

std::string
remapSourceName(RemapSource s)
{
    switch (s) {
    case RemapSource::Cold:
        return "cold";
    case RemapSource::Previous:
        return "previous";
    case RemapSource::Store:
        return "store";
    case RemapSource::Archive:
        return "archive";
    }
    return "?";
}

EventEngine::EventEngine(DynConfig cfg) : cfg_(std::move(cfg))
{
    // A re-map commits one running mapping, not a front; rejecting the
    // objectives list beats silently replaying a scalar search.
    if (!cfg_.search.objectives.empty())
        throw std::invalid_argument(
            "EventEngine: SearchSpec objectives= (multi-objective) is not "
            "replayed; use api::Runner for Pareto-front searches");
    pool_ = std::make_unique<exec::ThreadPool>(cfg_.search.threads);
}

void
EventEngine::reset(const api::ProblemSpec& base)
{
    base_ = base;
    platform_ = api::buildPlatform(base);
    ready_ = true;
    eventIndex_ = 0;
    bundles_.clear();
    mapping_ = sched::Mapping{};
    group_ = dnn::JobGroup{};
    match_.clear();
}

int
EventEngine::activeJobs() const
{
    int total = 0;
    for (const Bundle& b : bundles_)
        total += static_cast<int>(b.jobs.size());
    return total;
}

EventEngine::Bundle
EventEngine::makeBundle(std::string name, dnn::JobGroup jobs) const
{
    Bundle b{std::move(name), {},
             sched::JobAnalyzer(model_).analyze(jobs, platform_), -1};
    b.jobs = std::move(jobs.jobs);
    return b;
}

sched::JobAnalysisTable
EventEngine::table() const
{
    sched::JobAnalysisTable table(activeJobs(), platform_.numSubAccels());
    int first = 0;
    for (const Bundle& b : bundles_) {
        table.copyRows(first, b.rows);
        first += static_cast<int>(b.jobs.size());
    }
    return table;
}

EventRecord
EventEngine::step(const WorkloadEvent& ev)
{
    if (!ready_)
        throw std::logic_error("EventEngine::step before reset()");

    EventRecord rec;
    rec.event = ev;

    // 1. Update the active set. Swap keeps the bundle's slot (and thus
    // the group order) but regenerates its jobs, so swapped jobs are new
    // to the reconfig bill and the matched transfer, while every other
    // bundle's jobs keep their place.
    auto found = std::find_if(
        bundles_.begin(), bundles_.end(),
        [&](const Bundle& b) { return b.name == ev.bundle; });
    switch (ev.kind) {
    case EventKind::Arrive: {
        if (found != bundles_.end())
            throw std::invalid_argument(
                "EventEngine: arrive of active bundle '" + ev.bundle +
                "'");
        dnn::WorkloadGenerator gen(ev.seed);
        bundles_.push_back(
            makeBundle(ev.bundle, gen.makeGroup(ev.task, ev.jobs)));
        break;
    }
    case EventKind::Depart:
        if (found == bundles_.end())
            throw std::invalid_argument(
                "EventEngine: depart of inactive bundle '" + ev.bundle +
                "'");
        bundles_.erase(found);
        break;
    case EventKind::Swap: {
        if (found == bundles_.end())
            throw std::invalid_argument(
                "EventEngine: swap of inactive bundle '" + ev.bundle +
                "'");
        dnn::WorkloadGenerator gen(ev.seed ^ 0x5a5a5a5aULL);
        *found = makeBundle(ev.bundle, gen.makeGroup(ev.task, ev.jobs));
        break;
    }
    }

    const int64_t event_index = eventIndex_++;
    bool counters = obs::countersOn();
    if (counters)
        dynMetrics().events.add();

    // The new group, and where each of its jobs sat in the running
    // group (-1: brought in by this event).
    dnn::JobGroup group;
    group.task = base_.task;
    group.jobs.reserve(static_cast<size_t>(activeJobs()));
    match_.clear();
    for (const Bundle& b : bundles_) {
        for (size_t i = 0; i < b.jobs.size(); ++i) {
            group.jobs.push_back(b.jobs[i]);
            // Job ids are genome positions everywhere downstream
            // (decode's tie-break, the analysis table), so re-number the
            // concatenation; the offsets carry continuity.
            group.jobs.back().id = static_cast<int>(group.jobs.size()) - 1;
            match_.push_back(b.offset < 0 ? -1
                                          : b.offset + static_cast<int>(i));
        }
    }
    rec.activeJobs = group.size();
    if (group.jobs.empty()) {
        // The platform drained; nothing to map until the next arrival.
        mapping_ = sched::Mapping{};
        group_ = std::move(group);
        return rec;
    }

    sched::MappingEvaluator eval(group, platform_, table(), base_.bwPolicy,
                                 cfg_.search.objective);
    const uint64_t seed = eventSeed(cfg_.search.seed, event_index);

    // 2. Seed the re-map through the shared cascade, best knowledge
    // first: the running mapping (exact identity match), then the serve
    // store's fingerprint tiers, then Pareto-archive members, then cold.
    serve::Fingerprint fp =
        serve::fingerprintOf(group, platform_, cfg_.search.objective);
    api::WarmTiers tiers;
    if (cfg_.warmRemap) {
        tiers.previous = &mapping_;
        tiers.previousGroup = &group_;
        tiers.match = &match_;
        if (cfg_.store)
            tiers.lookup = [&]() -> std::optional<api::StoredSolution> {
                std::optional<serve::MappingStore::Hit> hit =
                    cfg_.store->lookup(fp);
                if (!hit)
                    return std::nullopt;
                return api::StoredSolution{std::move(hit->entry.mapping),
                                           std::move(hit->entry.group)};
            };
        tiers.archive = cfg_.archive;
        tiers.previousSeed = tiers.storeSeed = tiers.archiveSeed =
            seed ^ 0xad4f7ULL;
        tiers.warmBudget = cfg_.remapBudget;
    }

    // 3. Search on the engine's pool, at this event's seed. A replay
    // records nothing, so the spec's record* keys (like its threads)
    // stay out of the search.
    api::SearchSpec spec = cfg_.search;
    spec.seed = seed;
    spec.recordConvergence = spec.recordSamples = false;
    api::Solved solved;
    {
        // span payload: i = event index, a = best fitness,
        // b = samples used
        obs::Scope scope("dyn.remap.search", event_index);
        solved = api::solve(eval, spec, &tiers, *pool_);
        scope.payload(solved.result.bestFitness,
                      static_cast<double>(solved.result.samplesUsed));
    }
    opt::SearchResult& res = solved.result;
    rec.source = solved.source;
    rec.budget = solved.budget;
    if (counters)
        dynMetrics().remaps.add();

    // 4. Bill the transition and simulate the schedule with the stalls
    // inside it.
    rec.charge = computeReconfig(match_, mapping_.accelSel, group, res.best,
                                 base_.systemBwGbps, cfg_.reconfig);
    sched::ScheduleResult with_setup =
        eval.evaluateWithSetup(res.best, rec.charge.setupSeconds);
    sched::ScheduleResult steady = eval.evaluate(res.best);
    rec.samplesUsed = res.samplesUsed;
    rec.fitness = res.bestFitness;
    rec.makespanSeconds = with_setup.makespanSeconds;
    rec.steadyMakespanSeconds = steady.makespanSeconds;
    rec.mapping = res.best;

    if (cfg_.store)
        cfg_.store->update(fp, group.task, res.best, group,
                           res.bestFitness, res.samplesUsed);

    // 5. Commit the running solution.
    mapping_ = std::move(res.best);
    group_ = std::move(group);
    int first = 0;
    for (Bundle& b : bundles_) {
        b.offset = first;
        first += static_cast<int>(b.jobs.size());
    }
    return rec;
}

void
DynResult::add(EventRecord rec)
{
    totalSamples += rec.samplesUsed;
    totalStallSeconds += rec.charge.totalStallSeconds;
    totalReloadBytes += rec.charge.reloadBytes;
    finalMakespanSeconds = rec.steadyMakespanSeconds;
    finalFitness = rec.fitness;
    records.push_back(std::move(rec));
}

DynResult
EventEngine::replay(const WorkloadTrace& trace)
{
    trace.validate();
    reset(trace.base);
    DynResult result;
    result.records.reserve(trace.events.size());
    for (const WorkloadEvent& ev : trace.events)
        result.add(step(ev));
    return result;
}

}  // namespace magma::dyn

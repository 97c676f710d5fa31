// dyn_churn: closed loop over one seeded arrive/depart/swap event stream
// of Mix bundles on S2, one lane, with a store attached. Every event
// rebuilds the problem, adapts the running mapping to the new job set
// (opt::transfer::adaptMatched), runs a short warm-started search and
// simulates the result with reconfiguration stalls charged. The stream
// drains the platform at the end of each epoch, so the next epoch's first
// event is seeded from the store instead of the running mapping.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "dyn/engine.h"
#include "dyn/reconfig.h"
#include "dyn/trace.h"
#include "exec/cost_cache.h"
#include "opt/warm_start.h"
#include "replay.h"
#include "serve/fingerprint.h"
#include "serve/mapping_store.h"

namespace perfbench {

namespace {

constexpr double kEventsPerSecond = 650.0;  // about 1.5 ms per event
constexpr int64_t kBudget = 2000;  // cold budget; warm re-maps get 1/4
constexpr int kStoreCapacity = 64;
constexpr int kReplayOps = 64;
constexpr int kBundleSeeds = 16;  // recurring bundles give store hits

/** Seeded event stream in epochs: arrivals up to a few bundles, churn,
 * then departures down to an empty platform. */
dyn::WorkloadTrace
makeTrace(uint64_t seed, int count)
{
    dyn::WorkloadTrace tr;
    tr.base.task = dnn::TaskType::Mix;
    tr.base.setting = accel::Setting::S2;
    tr.base.systemBwGbps = 16.0;
    InputRng rng(subSeed(seed, 21));
    double t = 0.0;
    int next_name = 0;
    std::vector<std::string> active;
    auto add = [&](dyn::EventKind kind, const std::string& name) {
        dyn::WorkloadEvent ev;
        t += 0.25;
        ev.timeSeconds = t;
        ev.kind = kind;
        ev.bundle = name;
        if (kind != dyn::EventKind::Depart) {
            ev.task = dnn::TaskType::Mix;
            ev.jobs = 4 + rng.below(7);
            ev.seed = static_cast<uint64_t>(rng.below(kBundleSeeds)) + 1;
        }
        tr.events.push_back(ev);
    };
    auto arrive = [&] {
        active.emplace_back("b");
        active.back() += std::to_string(next_name++);
        add(dyn::EventKind::Arrive, active.back());
    };
    auto depart = [&](std::size_t k) {
        add(dyn::EventKind::Depart, active[k]);
        active.erase(active.begin() + static_cast<long>(k));
    };
    while (static_cast<int>(tr.events.size()) < count) {
        const int churn = 16 + rng.below(16);
        arrive();
        for (int j = 0; j < churn; ++j) {
            const double u = rng.uniform();
            const int n = static_cast<int>(active.size());
            if (n < 2 || (n < 5 && u < 0.35))
                arrive();
            else if (u < 0.7)
                add(dyn::EventKind::Swap, active[static_cast<std::size_t>(
                                              rng.below(n))]);
            else
                depart(static_cast<std::size_t>(rng.below(n)));
        }
        while (!active.empty())
            depart(active.size() - 1);
    }
    tr.events.resize(static_cast<std::size_t>(count));
    return tr;
}

/** The engine, its store and the parsed stream: what m3e_dyn loads. */
struct Replay {
    dyn::WorkloadTrace trace;
    std::unique_ptr<serve::MappingStore> store;
    std::unique_ptr<dyn::EventEngine> engine;
};

std::unique_ptr<Replay>
startReplay(const std::string& trace_text)
{
    auto r = std::make_unique<Replay>();
    r->trace = dyn::WorkloadTrace::fromText(trace_text);
    r->trace.validate();
    r->store = std::make_unique<serve::MappingStore>(kStoreCapacity);
    dyn::DynConfig cfg;
    cfg.search.method = "MAGMA";
    cfg.search.sampleBudget = kBudget;
    cfg.search.seed = 1;
    cfg.search.threads = 1;
    cfg.store = r->store.get();
    r->engine = std::make_unique<dyn::EventEngine>(cfg);
    r->engine->reset(r->trace.base);
    return r;
}

/**
 * Independent model of the engine's active job set: bundles in arrival
 * order, jobs renumbered across the concatenation, and identities
 * "bundle@generation#index" (a swap starts a new generation).
 */
class ActiveSet {
  public:
    explicit ActiveSet(dnn::TaskType task) : task_(task) {}

    void apply(const dyn::WorkloadEvent& ev)
    {
        auto it = std::find_if(bundles_.begin(), bundles_.end(),
                               [&](const Bundle& b) { return b.name == ev.bundle; });
        if (ev.kind == dyn::EventKind::Arrive) {
            dnn::WorkloadGenerator gen(ev.seed);
            bundles_.push_back({ev.bundle, 0, gen.makeGroup(ev.task, ev.jobs).jobs});
        } else if (ev.kind == dyn::EventKind::Depart) {
            bundles_.erase(it);
        } else {
            dnn::WorkloadGenerator gen(ev.seed ^ 0x5a5a5a5aULL);
            it->jobs = gen.makeGroup(ev.task, ev.jobs).jobs;
            ++it->gen;
        }
    }

    dnn::JobGroup group(std::vector<std::string>* ids) const
    {
        dnn::JobGroup g;
        g.task = task_;
        ids->clear();
        for (const Bundle& b : bundles_)
            for (std::size_t i = 0; i < b.jobs.size(); ++i) {
                g.jobs.push_back(b.jobs[i]);
                g.jobs.back().id = static_cast<int>(g.jobs.size()) - 1;
                ids->push_back(b.name + '@' + std::to_string(b.gen) + '#' +
                               std::to_string(i));
            }
        return g;
    }

  private:
    struct Bundle {
        std::string name;
        int gen = 0;
        std::vector<dnn::Job> jobs;
    };
    dnn::TaskType task_;
    std::vector<Bundle> bundles_;
};

}  // namespace

Outcome
runDyn(const Args& args)
{
    Outcome out;
    // Tracing halves the sequence (its untraced half is the baseline of
    // trace_overhead_frac); either way p99 keeps 10 samples beyond it.
    const int pass_count = std::max<int>(
        static_cast<int>(minSamplesFor(0.99)),
        static_cast<int>(args.seconds * kEventsPerSecond / (args.trace ? 2 : 1)));
    const std::string trace_text = makeTrace(args.seed, pass_count).toText();

    // Set-up repetitions after the first run between events of the
    // untraced pass, on objects of their own.
    std::vector<double> setup_s;
    auto setup = [&] { return startReplay(trace_text); };
    std::unique_ptr<Replay> rp = timeSetup(setup_s, setup);
    const std::vector<dyn::WorkloadEvent>& events = rp->trace.events;
    const int n_events = static_cast<int>(events.size());

    // With `log`, each step is recorded as a span as it runs (the traced
    // pass); without it, the set-up repetitions run between steps.
    auto runPass = [&](Replay& r, std::vector<double>& op_ms,
                       std::vector<dyn::EventRecord>& recs, SpanLog* log) {
        const int64_t t_start = nowNs();
        for (const dyn::WorkloadEvent& ev : events) {
            const int i = static_cast<int>(recs.size());
            if (!log && setupRepDue(i, n_events, setup_s.size()))
                timeSetup(setup_s, setup);
            ++out.attempted;
            const int64_t t0 = nowNs();
            try {
                recs.push_back(r.engine->step(ev));
            } catch (const std::exception& e) {
                std::fprintf(stderr, "event threw: %s\n", e.what());
                ++out.failed;
                recs.emplace_back();
            }
            const int64_t t1 = nowNs();
            if (log)
                log->add("dyn.EventEngine::step", t0, t1, -1, i);
            op_ms.push_back(nsToMs(t1 - t0));
        }
        return static_cast<double>(nowNs() - t_start) * 1e-9;
    };
    std::vector<double> op_ms;
    std::vector<dyn::EventRecord> recs;
    // The pass's wall time, less the set-up repetitions run inside it.
    double loop_s = runPass(*rp, op_ms, recs, nullptr);
    for (std::size_t r = 1; r < setup_s.size(); ++r)
        loop_s -= setup_s[r];

    // Correctness: rebuild every event's job set independently, charge
    // the reconfiguration, and re-score the mapping through the
    // reference evaluator, with and without the set-up stalls.
    const accel::Platform platform = api::buildPlatform(rp->trace.base);
    const cost::CostModel model;
    ActiveSet active(rp->trace.base.task);
    std::vector<std::pair<std::string, int>> placement;
    std::vector<double> quality;
    double stall_s = 0.0;
    std::vector<dnn::JobGroup> groups;         // per event, for replays
    std::vector<std::vector<std::string>> ids_of;
    for (std::size_t i = 0; i < events.size(); ++i) {
        active.apply(events[i]);
        std::vector<std::string> ids;
        dnn::JobGroup group = active.group(&ids);
        const dyn::EventRecord& rec = recs[i];
        bool ok = rec.activeJobs == group.size();
        if (ok && group.size() > 0) {
            sched::MappingEvaluator ref(group, platform, model,
                                        rp->trace.base.bwPolicy);
            dyn::ReconfigCharge charge = dyn::computeReconfig(
                placement, ids, group, rec.mapping,
                rp->trace.base.systemBwGbps, dyn::ReconfigSpec{});
            ok = rec.mapping.size() == group.size() &&
                 charge.totalStallSeconds == rec.charge.totalStallSeconds &&
                 ref.evaluateWithSetup(rec.mapping, charge.setupSeconds)
                         .makespanSeconds == rec.makespanSeconds &&
                 ref.evaluate(rec.mapping).makespanSeconds ==
                     rec.steadyMakespanSeconds &&
                 ref.fitness(rec.mapping) == rec.fitness;
            quality.push_back(ref.throughputGflops(rec.steadyMakespanSeconds));
            stall_s += rec.charge.totalStallSeconds;
            placement.clear();
            for (std::size_t j = 0; j < ids.size(); ++j)
                placement.emplace_back(ids[j], rec.mapping.accelSel[j]);
        } else {
            placement.clear();
        }
        if (!ok) {
            std::fprintf(stderr, "event %zu: result differs from reference\n",
                         i);
            ++out.failed;
        }
        if (args.trace) {
            groups.push_back(std::move(group));
            ids_of.push_back(std::move(ids));
        }
    }
    out.notes.push_back("events=" + std::to_string(events.size()) +
                        " reconfig_stall_ms=" + formatDouble(stall_s * 1e3));

    if (!args.trace) {
        putLatencyMetrics(out, op_ms, loop_s, setup_s);
        out.metrics["quality_gflops_gmean"] = gmean(quality);
        return out;
    }
    out.metrics["op_ms_p99"] = percentile(op_ms, 0.99);
    out.metrics["reconfig_stall_ms"] = stall_s * 1e3;

    // Traced pass: the same stream on a fresh engine and store, each
    // EventEngine::step a span; replays of its inputs are its children.
    std::unique_ptr<Replay> traced_rp = startReplay(trace_text);
    std::vector<double> traced_ms;
    std::vector<dyn::EventRecord> traced_recs;
    SpanLog& log = out.spans;
    runPass(*traced_rp, traced_ms, traced_recs, &log);
    std::map<dyn::RemapSource, std::vector<double>> step_ms;
    int64_t searched = 0, warm = 0, samples = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const dyn::EventRecord& rec = traced_recs[i];
        if (!(rec.mapping == recs[i].mapping))
            ++out.failed;  // a replay of the same stream must repeat
        if (rec.activeJobs == 0)
            continue;
        ++searched;
        warm += rec.source != dyn::RemapSource::Cold;
        samples += rec.samplesUsed;
        step_ms[rec.source].push_back(traced_ms[i]);
    }

    LayerSums sums;
    std::vector<double> build_ms, reconfig_us, adapt_us;
    std::vector<double> fp_us, lookup_us, update_us;
    // The store calls of a step, replayed on the traced engine's store,
    // which the pass left at capacity.
    serve::MappingStore& store = *traced_rp->store;
    auto us = [](int64_t ns) { return 1e-3 * static_cast<double>(ns); };
    int replayed = 0;
    for (std::size_t i = 1; i < events.size() && replayed < kReplayOps; ++i) {
        const dyn::EventRecord& rec = traced_recs[i];
        if (rec.activeJobs == 0 || rec.source != dyn::RemapSource::Previous)
            continue;
        ++replayed;
        const int parent = static_cast<int>(i);  // span index == event
        const int64_t op = static_cast<int64_t>(i);
        const dnn::JobGroup& group = groups[i];
        std::unique_ptr<sched::MappingEvaluator> eval;
        build_ms.push_back(nsToMs(log.time(
            "sched.MappingEvaluator::MappingEvaluator", parent, op, true, [&] {
                eval = std::make_unique<sched::MappingEvaluator>(
                    group, platform, model, rp->trace.base.bwPolicy);
            })));
        replayProblemLayers(log, parent, op, group, platform, *eval, nullptr,
                            sums);
        serve::Fingerprint fp;
        fp_us.push_back(us(log.time("serve::fingerprintOf", parent, op, true,
                                    [&] { fp = serve::fingerprintOf(
                                              group, platform); })));
        lookup_us.push_back(us(log.time("serve.MappingStore::lookup", parent,
                                        op, true,
                                        [&] { keep(store.lookup(fp)); })));
        reconfig_us.push_back(us(log.time(
            "sched.MappingEvaluator::evaluateWithSetup", parent, op, true,
            [&] {
                keep(eval->evaluateWithSetup(rec.mapping,
                                             rec.charge.setupSeconds));
            })));
        update_us.push_back(us(log.time(
            "serve.MappingStore::update", parent, op, true, [&] {
                store.update(fp, group.task, rec.mapping, group, rec.fitness,
                             rec.samplesUsed);
            })));
        // The running mapping adapted onto the new job set by identity.
        std::map<std::string, int> prev_index;
        for (std::size_t j = 0; j < ids_of[i - 1].size(); ++j)
            prev_index[ids_of[i - 1][j]] = static_cast<int>(j);
        std::vector<int> match(ids_of[i].size(), -1);
        for (std::size_t j = 0; j < ids_of[i].size(); ++j)
            if (auto it = prev_index.find(ids_of[i][j]); it != prev_index.end())
                match[j] = it->second;
        magma::common::Rng rng(op);
        adapt_us.push_back(us(log.time(
            "opt::transfer::adaptMatched", parent, op, true, [&] {
                keep(opt::transfer::adaptMatched(
                    traced_recs[i - 1].mapping, groups[i - 1], group, match,
                    eval->numAccels(), rng));
            })));
        replayCandidates(log, parent, op, *eval,
                         opt::transfer::seedsAround(rec.mapping, 64,
                                                    eval->numAccels(), rng),
                         sums);
    }
    sums.put(out);
    auto median_or_0 = [](const std::vector<double>& v) {
        return v.empty() ? 0.0 : median(v);
    };
    out.metrics["api.build_problem_ms"] = mean(build_ms);
    out.metrics["sched.reconfig_eval_us"] = mean(reconfig_us);
    out.metrics["opt.transfer.adapt_us"] = mean(adapt_us);
    out.metrics["serve.fingerprint_us"] = mean(fp_us);
    out.metrics["serve.store.lookup_us"] = mean(lookup_us);
    out.metrics["serve.store.update_us"] = mean(update_us);
    out.metrics["dyn.step_ms.previous"] =
        median_or_0(step_ms[dyn::RemapSource::Previous]);
    out.metrics["dyn.step_ms.store"] =
        median_or_0(step_ms[dyn::RemapSource::Store]);
    out.metrics["dyn.step_ms.cold"] = median_or_0(step_ms[dyn::RemapSource::Cold]);
    out.metrics["dyn.warm_frac"] =
        static_cast<double>(warm) / static_cast<double>(searched);
    out.metrics["dyn.samples_per_event"] =
        static_cast<double>(samples) / static_cast<double>(searched);
    out.metrics["trace_overhead_frac"] =
        percentile(traced_ms, 0.5) / percentile(op_ms, 0.5) - 1.0;
    out.notes.push_back(
        "steps previous=" +
        std::to_string(step_ms[dyn::RemapSource::Previous].size()) +
        " store=" + std::to_string(step_ms[dyn::RemapSource::Store].size()) +
        " cold=" + std::to_string(step_ms[dyn::RemapSource::Cold].size()));
    return out;
}

}  // namespace perfbench

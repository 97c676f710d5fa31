#include "replay.h"

#include "cost/cost_model.h"
#include "exec/cost_cache.h"
#include "sched/flat_eval.h"
#include "sched/job_analyzer.h"

namespace perfbench {

void
LayerSums::put(Outcome& out) const
{
    auto per = [](double total, int64_t n) {
        return n ? total / static_cast<double>(n) : 0.0;
    };
    out.metrics["cost.query_us"] = per(costQueryUs, costQueries);
    out.metrics["sched.jat.analyze_ms"] = per(jatMs, jatCalls);
    out.metrics["sched.jat.unique_queries"] = per(jatUniqueQueries, jatCalls);
    out.metrics["sched.flat.compile_us"] = per(compileUs, compiles);
    out.metrics["exec.cost_cache.analyze_us"] = per(cacheHitUs, cacheHits);
    out.metrics["sched.flat.candidate_ns"] = per(candidateNs, candidates);
}

void
replayProblemLayers(SpanLog& log, int parent, int64_t op,
                    const dnn::JobGroup& group,
                    const accel::Platform& platform,
                    const sched::MappingEvaluator& eval,
                    exec::CostCache* cache, LayerSums& sums)
{
    const cost::CostModel model;
    int64_t queries = 0;
    int64_t ns = log.time("cost.CostModel::analyze", parent, op, true, [&] {
        for (const cost::SubAccelConfig& cfg : platform.subAccels)
            for (const dnn::Job& job : group.jobs) {
                cost::CostResult r = model.analyze(job.layer, job.batch, cfg);
                keep(r);
                ++queries;
            }
    });
    sums.costQueryUs += static_cast<double>(ns) * 1e-3;
    sums.costQueries += queries;

    sched::JobAnalyzer analyzer(model, cache);
    ns = log.time("sched.JobAnalyzer::analyze", parent, op, true, [&] {
        sched::JobAnalysisTable t = analyzer.analyze(group, platform);
        keep(t);
    });
    sums.jatMs += static_cast<double>(ns) * 1e-6;
    sums.jatUniqueQueries += static_cast<double>(analyzer.lastUniqueQueries());
    ++sums.jatCalls;

    ns = log.time("sched.FlatEvaluator::FlatEvaluator", parent, op, true,
                  [&] {
                      sched::FlatEvaluator flat(eval);
                      keep(flat);
                  });
    sums.compileUs += static_cast<double>(ns) * 1e-3;
    ++sums.compiles;

    // Fill a private cache first so the timed pass is all hits and the
    // process-wide cache's counters stay the front end's own.
    exec::CostCache priv;
    for (const cost::SubAccelConfig& cfg : platform.subAccels)
        for (const dnn::Job& job : group.jobs)
            priv.analyze(model, job.layer, job.batch, cfg);
    ns = log.time("exec.CostCache::analyze", parent, op, true, [&] {
        for (const cost::SubAccelConfig& cfg : platform.subAccels)
            for (const dnn::Job& job : group.jobs) {
                cost::CostResult r =
                    priv.analyze(model, job.layer, job.batch, cfg);
                keep(r);
            }
    });
    sums.cacheHitUs += static_cast<double>(ns) * 1e-3;
    sums.cacheHits += queries;
}

int64_t
replayCandidates(SpanLog& log, int parent, int64_t op,
                 const sched::MappingEvaluator& eval,
                 const std::vector<sched::Mapping>& candidates,
                 LayerSums& sums)
{
    sched::FlatEvaluator flat(eval);
    sched::EvalScratch scratch;
    int64_t ns = log.time("sched.FlatEvaluator::fitness", parent, op, true,
                          [&] {
                              for (const sched::Mapping& m : candidates) {
                                  double f = flat.fitness(m, scratch);
                                  keep(f);
                              }
                          });
    sums.candidateNs += static_cast<double>(ns);
    sums.candidates += static_cast<int64_t>(candidates.size());
    return ns;
}

}  // namespace perfbench

/**
 * @file
 * Pareto-front search harness (src/mo/): NSGA-II on Mix/S2 under
 * bandwidth pressure — the regime where throughput and energy genuinely
 * trade off — against the five single-objective MAGMA optima.
 *
 * Reported per run:
 *   - front size, hypervolume (origin reference) and the additive
 *     epsilon indicator front -> scalar optima (<= 0 means the front
 *     covers every scalar optimum),
 *   - how many of the five scalar optima the front covers (weakly
 *     dominates) and how many front points any optimum dominates
 *     (must be 0 — the self-check this harness exits non-zero on),
 *   - end-to-end NSGA-II candidate throughput (vector-objective
 *     evaluations/second: each candidate is simulated ONCE for all
 *     objectives) vs the summed scalar-run throughput.
 *
 * Artifacts: pareto_front.csv (the trade-off curve, RunReport::frontCsv
 * format) in --out-dir, and --json FILE emits the shared telemetry
 * schema { "schema": 1, "bench": "pareto_front", config, metrics,
 * samples } from bench_common.h — the same shape the CI perf-smoke job
 * validates and uploads.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "api/runner.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "mo/nsga2.h"
#include "mo/vector_fitness.h"
#include "obs/snapshot.h"
#include "opt/magma_ga.h"

using namespace magma;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const int group = args.groupSize(30);
    const int64_t budget = args.budget(2000);
    const double bw_gbps = 2.0;  // BW-starved: real throughput/energy
                                 // trade-off (compute-bound collapses it)

    bench::printHeader(
        "Pareto-front search: NSGA-II vs five scalar optima (Mix/S2)");
    std::printf("group %d, BW %g GB/s, budget %lld per run, seed %llu\n\n",
                group, bw_gbps, static_cast<long long>(budget),
                static_cast<unsigned long long>(args.seed));

    auto problem = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2,
                                    bw_gbps, group, args.seed);

    const std::vector<sched::Objective> objectives = {
        sched::Objective::Throughput, sched::Objective::Latency,
        sched::Objective::Energy, sched::Objective::EnergyDelay,
        sched::Objective::PerfPerWatt};
    exec::EvalEngine engine(problem->evaluator(), 1);
    mo::VectorFitness vf(engine, objectives);

    // --- Five scalar MAGMA runs, one per reporting lens. ------------
    std::vector<mo::ObjectiveVector> optima_vecs;
    std::vector<sched::Mapping> optima;
    double scalar_wall = 0.0;
    for (sched::Objective o : objectives) {
        sched::MappingEvaluator scalar(
            problem->group(), problem->platform(), problem->costModel(),
            sched::BwPolicy::Proportional, nullptr, o);
        opt::MagmaGa ga(args.seed);
        opt::SearchOptions opts;
        opts.sampleBudget = budget;
        double t0 = nowSeconds();
        opt::SearchResult r = ga.search(exec::EvalEngine(scalar, 1), opts);
        scalar_wall += nowSeconds() - t0;
        optima.push_back(r.best);
        optima_vecs.push_back(vf.evaluate(r.best));
        std::printf("scalar %-24s best %.6g\n",
                    sched::objectiveName(o).c_str(), r.bestFitness);
    }

    // --- One NSGA-II run over all five objectives at once. ----------
    mo::Nsga2Config cfg;
    cfg.archiveCapacity = 0;  // exact coverage accounting
    mo::Nsga2 nsga(args.seed, cfg);
    opt::SearchOptions mo_opts;
    mo_opts.sampleBudget = budget;
    mo_opts.seeds = optima;  // fronts seed warm starts; searches extend them
    double t0 = nowSeconds();
    mo::MoSearchResult res =
        nsga.searchMo(exec::EvalEngine(problem->evaluator(), 1),
                      objectives, mo_opts);
    double mo_wall = nowSeconds() - t0;

    const auto& pts = res.front.points();
    // Exact hypervolume is exponential in arity: the full 5-D measure is
    // only computed for small fronts (else null in the telemetry); the
    // throughput/energy projection is always cheap and tracks the same
    // trade-off the demo plots.
    mo::ObjectiveVector origin(objectives.size(), 0.0);
    double hv = pts.size() <= 64
                    ? res.front.hypervolume(origin)
                    : std::numeric_limits<double>::quiet_NaN();
    mo::ParetoArchive proj(
        {sched::Objective::Throughput, sched::Objective::Energy});
    for (const mo::MoPoint& p : pts) {
        mo::MoPoint q;
        q.m = p.m;
        q.objs = {p.objs[0], p.objs[2]};  // throughput, energy columns
        proj.insert(std::move(q));
    }
    double hv_2d = proj.hypervolume({0.0, 0.0});

    std::vector<mo::ObjectiveVector> front_vecs;
    for (const mo::MoPoint& p : pts)
        front_vecs.push_back(p.objs);
    double eps =
        mo::ParetoArchive::epsilonIndicator(front_vecs, optima_vecs);

    int covered = 0;
    int dominated_front_points = 0;
    for (const mo::ObjectiveVector& ov : optima_vecs) {
        bool cov = false;
        for (const mo::MoPoint& p : pts)
            cov |= mo::weaklyDominates(p.objs, ov);
        covered += cov;
        for (const mo::MoPoint& p : pts)
            dominated_front_points += mo::dominates(ov, p.objs);
    }
    int mutual_violations = 0;
    for (size_t i = 0; i < pts.size(); ++i)
        for (size_t j = 0; j < pts.size(); ++j)
            mutual_violations +=
                i != j && mo::dominates(pts[i].objs, pts[j].objs);

    double mo_evals_per_sec =
        mo_wall > 0.0 ? static_cast<double>(res.samplesUsed) / mo_wall
                      : 0.0;
    double scalar_evals_per_sec =
        scalar_wall > 0.0
            ? static_cast<double>(budget) * objectives.size() / scalar_wall
            : 0.0;

    std::printf("\nNSGA-II front: %zu points (all 5 objectives, %lld "
                "samples, %.2f s)\n",
                pts.size(), static_cast<long long>(res.samplesUsed),
                mo_wall);
    std::printf("hypervolume (origin): %.6g 5-D, %.6g "
                "throughput/energy projection\n",
                hv, hv_2d);
    std::printf("epsilon front->optima: %.6g (<= 0 covers all)\n", eps);
    std::printf("scalar optima covered: %d/5, front points dominated by "
                "an optimum: %d\n",
                covered, dominated_front_points);
    std::printf("vector evals/s %.0f (one sim for 5 objectives) vs "
                "scalar evals/s %.0f across 5 runs\n",
                mo_evals_per_sec, scalar_evals_per_sec);

    // --- Artifacts. -------------------------------------------------
    std::string csv_path = args.outPath("pareto_front.csv");
    {
        api::RunReport rep;
        rep.search.objectives = objectives;
        rep.front = pts;
        std::ofstream out(csv_path);
        out << rep.frontCsv();
    }
    std::printf("front CSV: %s\n", csv_path.c_str());

    std::string json_path = args.jsonOutPath();
    if (!json_path.empty()) {
        obs::JsonWriter json;
        obs::SnapshotWriter::beginBenchConfig(json, "pareto_front",
                                              args.full, args.seed, "Mix",
                                              "S2", bw_gbps, group);
        json.field("budget", budget);
        json.field("objectives",
                   sched::objectiveListName(objectives));
        json.endObject();
        json.beginObject("metrics");
        json.field("front_size", static_cast<int64_t>(pts.size()));
        json.field("hypervolume_origin", hv);  // null when front > 64
        json.field("hypervolume_throughput_energy", hv_2d);
        json.field("epsilon_front_to_optima", eps);
        json.field("optima_covered", static_cast<int64_t>(covered));
        json.field("front_points_dominated",
                   static_cast<int64_t>(dominated_front_points));
        json.field("mutual_domination_violations",
                   static_cast<int64_t>(mutual_violations));
        json.field("mo_evals_per_sec", mo_evals_per_sec);
        json.field("scalar_evals_per_sec", scalar_evals_per_sec);
        json.field("mo_wall_seconds", mo_wall);
        json.field("scalar_wall_seconds", scalar_wall);
        json.endObject();
        json.beginArray("samples");
        for (size_t i = 0; i < pts.size(); ++i) {
            json.beginObject();
            json.field("name", "front_point");
            json.field("index", static_cast<int64_t>(i));
            for (size_t k = 0; k < objectives.size(); ++k)
                json.field(sched::objectiveName(objectives[k]),
                           pts[i].objs[k]);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        if (json.writeFile(json_path))
            std::printf("telemetry JSON: %s\n", json_path.c_str());
    }

    // Self-check: the front must be mutually non-dominated, cover every
    // seeded scalar optimum, and no optimum may dominate a front point.
    if (mutual_violations != 0 || covered != 5 ||
        dominated_front_points != 0) {
        std::fprintf(stderr,
                     "SELF-CHECK FAILED: violations=%d covered=%d "
                     "dominated=%d\n",
                     mutual_violations, covered, dominated_front_points);
        return 1;
    }
    std::printf("\nself-check OK\n");
    return 0;
}

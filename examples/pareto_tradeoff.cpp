/**
 * @file
 * pareto_tradeoff — the multi-objective story in one program.
 *
 * MAGMA's evaluation sweeps report throughput AND energy AND EDP per
 * workload, but each scalar search optimizes one lens at a time.
 * Practitioners want the trade-off curve. This demo, on Mix/S2 under
 * bandwidth pressure (2 GB/s, where faster mappings genuinely burn more
 * energy):
 *
 *   1. runs the five single-objective MAGMA searches (Section IV-C
 *      lenses) and prints each optimum's FULL objective vector — note
 *      how each one sacrifices the lenses it wasn't optimizing;
 *   2. runs ONE NSGA-II search over throughput+energy, seeded with those
 *      optima (the warm-start path persisted fronts feed), scoring all
 *      objectives from a single simulation per candidate;
 *   3. prints the resulting front and verifies it covers or beats every
 *      scalar optimum — no scalar result dominates any front point, and
 *      every optimum is weakly dominated by some front member.
 *
 * Usage: pareto_tradeoff [--group N] [--budget N] [--seed N]
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "mo/nsga2.h"
#include "mo/vector_fitness.h"
#include "opt/magma_ga.h"

using namespace magma;

int
main(int argc, char** argv)
{
    int group = 30;
    int64_t budget = 2000;
    uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--group") == 0 && i + 1 < argc)
            group = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc)
            budget = std::atoll(argv[++i]);
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = std::strtoull(argv[++i], nullptr, 10);
    }

    auto problem = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2,
                                    2.0, group, seed);
    std::printf("Mix on S2 at 2 GB/s, group %d, budget %lld per search\n\n",
                group, static_cast<long long>(budget));

    const std::vector<sched::Objective> lenses = {
        sched::Objective::Throughput, sched::Objective::Latency,
        sched::Objective::Energy, sched::Objective::EnergyDelay,
        sched::Objective::PerfPerWatt};
    const std::vector<sched::Objective> pair = {
        sched::Objective::Throughput, sched::Objective::Energy};

    // Step 1: the five scalar optima, each reported under every lens
    // (one simulation per mapping via VectorFitness).
    exec::EvalEngine engine(problem->evaluator(), 1);
    mo::VectorFitness lens_vf(engine, lenses);
    mo::VectorFitness pair_vf(engine, pair);
    std::printf("%-24s %12s %12s %12s %12s %12s\n", "scalar optimum of",
                "throughput", "latency", "energy", "1/EDP", "perf/W");
    std::vector<sched::Mapping> optima;
    std::vector<mo::ObjectiveVector> optima_pair;
    for (sched::Objective o : lenses) {
        sched::MappingEvaluator scalar(
            problem->group(), problem->platform(), problem->costModel(),
            sched::BwPolicy::Proportional, nullptr, o);
        opt::MagmaGa ga(seed);
        opt::SearchOptions opts;
        opts.sampleBudget = budget;
        opt::SearchResult r = ga.search(exec::EvalEngine(scalar, 1), opts);
        mo::ObjectiveVector v = lens_vf.evaluate(r.best);
        std::printf("%-24s %12.5g %12.5g %12.5g %12.5g %12.5g\n",
                    sched::objectiveName(o).c_str(), v[0], v[1], v[2],
                    v[3], v[4]);
        optima.push_back(r.best);
        optima_pair.push_back(pair_vf.evaluate(r.best));
    }

    // Step 2: one NSGA-II run over the throughput/energy pair, warm-
    // started from the scalar optima.
    mo::Nsga2Config cfg;
    cfg.archiveCapacity = 0;
    mo::Nsga2 nsga(seed, cfg);
    opt::SearchOptions opts;
    opts.sampleBudget = budget;
    opts.seeds = optima;
    mo::MoSearchResult res = nsga.searchMo(engine, pair, opts);
    const auto& pts = res.front.points();

    std::printf("\nNSGA-II throughput/energy front (%zu points, %lld "
                "samples — every candidate simulated once for both "
                "objectives):\n",
                pts.size(), static_cast<long long>(res.samplesUsed));
    std::printf("%5s %14s %14s\n", "point", "throughput", "energy");
    for (size_t i = 0; i < pts.size(); ++i)
        std::printf("%5zu %14.6g %14.6g\n", i, pts[i].objs[0],
                    pts[i].objs[1]);
    std::printf("hypervolume (origin): %.6g\n",
                res.front.hypervolume({0.0, 0.0}));

    // Step 3: the front must cover or beat all five scalar optima.
    bool ok = true;
    for (size_t k = 0; k < optima_pair.size(); ++k) {
        bool covered = false;
        for (const mo::MoPoint& p : pts) {
            covered |= mo::weaklyDominates(p.objs, optima_pair[k]);
            if (mo::dominates(optima_pair[k], p.objs)) {
                std::printf("!! scalar optimum %s dominates a front "
                            "point\n",
                            sched::objectiveName(lenses[k]).c_str());
                ok = false;
            }
        }
        std::printf("%-24s optimum: %s\n",
                    sched::objectiveName(lenses[k]).c_str(),
                    covered ? "covered by the front" : "NOT covered");
        ok &= covered;
    }
    std::printf("\n%s\n", ok ? "front covers or beats all five scalar "
                               "optima"
                             : "FRONT QUALITY CHECK FAILED");
    return ok ? 0 : 1;
}

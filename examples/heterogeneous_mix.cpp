/**
 * @file
 * Heterogeneous data-center scenario: a Mix workload (vision + language +
 * recommendation tenants) on the large heterogeneous accelerator S4 under
 * a shrinking bandwidth budget.
 *
 * Demonstrates the paper's central story: when system bandwidth becomes
 * the scarce resource, a BW-aware learned mapping (MAGMA) distributes the
 * BW-hungry jobs over time while the manual heuristics either collapse
 * (AI-MT-like, blind to heterogeneity) or leave throughput on the table
 * (Herald-like, blind to bandwidth). Also renders the winning schedule.
 */

#include <cstdio>

#include "analysis/timeline.h"
#include "api/registry.h"
#include "baselines/ai_mt_like.h"
#include "baselines/herald_like.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "opt/warm_start.h"

int
main()
{
    using namespace magma;

    std::printf("Mix tenants on S4 (7x HB-128 + 1x LB-128) across a BW "
                "sweep\n\n");
    std::printf("%8s %14s %14s %14s %10s\n", "BW(GB/s)", "Herald-like",
                "AI-MT-like", "MAGMA", "MAGMA adv");

    // MAGMA's population follows the group size, as in m3e_cli.
    const int group_size = 48;
    const int population = opt::transfer::populationFor(group_size);
    for (double bw : {256.0, 64.0, 16.0, 4.0, 1.0}) {
        auto problem = m3e::makeProblem(dnn::TaskType::Mix,
                                        accel::Setting::S4, bw, group_size,
                                        /*seed=*/11);
        const auto& eval = problem->evaluator();
        double herald = eval.fitness(
            baselines::HeraldLike::buildMapping(eval));
        double aimt = eval.fitness(baselines::AiMtLike::buildMapping(eval));

        auto magma_opt = api::makeForPopulation("MAGMA", 1, population);
        opt::SearchOptions opts;
        opts.sampleBudget = 3000;
        double magma =
            magma_opt->search(exec::EvalEngine(eval, 1), opts).bestFitness;

        std::printf("%8.0f %14.1f %14.1f %14.1f %9.2fx\n", bw, herald,
                    aimt, magma, magma / std::max(herald, aimt));
    }

    // Visualize the schedule MAGMA found at the tightest budget.
    auto problem = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S4,
                                    4.0, group_size, 11);
    auto magma_opt = api::makeForPopulation("MAGMA", 1, population);
    opt::SearchOptions opts;
    opts.sampleBudget = 3000;
    opt::SearchResult best =
        magma_opt->search(exec::EvalEngine(problem->evaluator(), 1), opts);
    sched::ScheduleResult sim =
        problem->evaluator().evaluate(best.best, /*record_timeline=*/true);
    analysis::TimelineExporter tl(sim, problem->group(),
                                  problem->evaluator().numAccels());
    std::printf("\nMAGMA schedule at BW=4 (V=vision L=language "
                "R=recommendation):\n%s", tl.renderGantt(72).c_str());
    std::printf("\nGranted-bandwidth profile over time:\n%s",
                tl.renderBwProfile(72).c_str());
    return 0;
}

/**
 * @file
 * Fig. 15 harness: visualize the schedules found by Herald-like and MAGMA
 * on (Mix, S5, BW=1) — sub-accelerator allocation Gantt charts tagged by
 * task category plus the bandwidth-allocation profile over time.
 *
 * Paper's shape: Herald-like front-loads the BW-intensive language and
 * recommendation jobs, causing BW competition and a ~10x longer finish
 * time; MAGMA spreads them across the runtime.
 */

#include <cstdio>

#include "analysis/timeline.h"
#include "baselines/herald_like.h"
#include "bench/experiment.h"
#include "opt/magma_ga.h"

using namespace magma;

namespace {

void
show(const char* label, const sched::Mapping& m, m3e::Problem& problem,
     common::CsvWriter& csv)
{
    sched::ScheduleResult r =
        problem.evaluator().evaluate(m, /*record_timeline=*/true);
    analysis::TimelineExporter tl(r, problem.group(),
                                  problem.evaluator().numAccels());
    std::printf("\n--- %s ---  finish time: %.3g s,  throughput: %.2f "
                "GFLOP/s\n",
                label, r.makespanSeconds,
                problem.evaluator().throughputGflops(r.makespanSeconds));
    std::printf("%s", tl.renderGantt(72).c_str());
    std::printf("legend: V=Vision L=Language R=Recommendation .=idle\n\n");
    std::printf("%s", tl.renderBwProfile(72).c_str());
    for (const auto& row : tl.bwRows()) {
        std::vector<std::string> cells = {label};
        cells.insert(cells.end(), row.begin(), row.end());
        csv.row(cells);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::printHeader(
        "Fig. 15: found-solution visualization (Mix, S5, BW=1)");

    auto problem = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S5,
                                    1.0, args.groupSize(), args.seed);
    common::CsvWriter csv(args.outPath("fig15_solution_viz.csv"),
                          {"mapper", "t_start", "t_end", "accel", "job",
                           "task", "alloc_bw_gbps"});

    sched::Mapping herald =
        baselines::HeraldLike::buildMapping(problem->evaluator());
    show("Herald-like", herald, *problem, csv);

    auto magma_opt =
        api::OptimizerRegistry::global().make("MAGMA", args.seed);
    opt::SearchOptions opts;
    opts.sampleBudget = args.budget();
    opt::SearchResult res = magma_opt->search(problem->evaluator(), opts);
    show("MAGMA", res.best, *problem, csv);

    std::printf("\nSegments written to %s\n",
                args.outPath("fig15_solution_viz.csv").c_str());
    return 0;
}

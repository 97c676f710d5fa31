/**
 * @file
 * Fig. 17 harness: group-size sweep on (Mix, S2, BW=16) with MAGMA.
 *
 * Paper's shape: performance is fairly flat from 1000 down to ~20, but a
 * very small group (4) leaves sub-accelerators starved and loses.
 * Throughputs are normalized by the group-size-1000 value.
 */

#include <cstdio>
#include <memory>

#include "api/registry.h"
#include "bench/experiment.h"
#include "opt/warm_start.h"

using namespace magma;

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::printHeader("Fig. 17: group-size sweep (Mix, S2, BW=16)");

    std::vector<int> sizes = {1000, 500, 200, 100, 50, 40, 20, 10, 4};
    common::CsvWriter csv(args.outPath("fig17_group_size.csv"),
                          {"group_size", "gflops", "norm_vs_1000"});

    std::vector<double> gflops;
    for (int gs : sizes) {
        auto problem = m3e::makeProblem(dnn::TaskType::Mix,
                                        accel::Setting::S2, 16.0, gs,
                                        args.seed);
        std::unique_ptr<opt::Optimizer> magma_ga = api::makeForPopulation(
            "MAGMA", args.seed, opt::transfer::populationFor(gs));
        opt::SearchOptions opts;
        opts.sampleBudget = args.budget();
        gflops.push_back(
            magma_ga->search(problem->evaluator(), opts).bestFitness);
    }

    std::printf("\n  %-10s %12s %10s\n", "group", "GFLOP/s", "norm");
    for (size_t i = 0; i < sizes.size(); ++i) {
        double norm = gflops[i] / gflops[0];
        std::printf("  %-10d %12.1f %10.2f\n", sizes[i], gflops[i], norm);
        csv.rowNumeric({static_cast<double>(sizes[i]), gflops[i], norm});
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig17_group_size.csv").c_str());
    return 0;
}

/**
 * @file
 * Design-choice ablation (Section IV-D1): the BW Allocator's proportional
 * sharing vs the "often applied heuristic" of splitting system BW evenly
 * across sub-accelerators. Runs MAGMA under both policies across a BW
 * sweep on the heterogeneous platforms and reports the throughput ratio.
 *
 * Expected shape: even splitting strands bandwidth at cores running
 * compute-bound jobs while memory-bound jobs starve; the gap is largest
 * in the mid-BW contention regime and vanishes when BW is abundant.
 */

#include <cstdio>

#include "bench/experiment.h"

using namespace magma;

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::printHeader("Ablation: proportional vs even BW allocation "
                       "(Mix task, MAGMA mapper)");
    common::CsvWriter csv(args.outPath("ablation_bw_policy.csv"),
                          {"setting", "bw_gbps", "proportional_gflops",
                           "even_gflops", "ratio"});

    struct Case {
        accel::Setting setting;
        std::vector<double> bws;
    };
    const Case cases[] = {
        {accel::Setting::S2, {1.0, 2.0, 4.0, 8.0, 16.0}},
        {accel::Setting::S4, {1.0, 4.0, 16.0, 64.0, 256.0}},
    };

    for (const Case& c : cases) {
        std::printf("\n%s\n  %8s %14s %14s %8s\n",
                    accel::settingName(c.setting).c_str(), "BW",
                    "proportional", "even-split", "ratio");
        for (double bw : c.bws) {
            dnn::WorkloadGenerator gen(args.seed);
            dnn::JobGroup group =
                gen.makeGroup(dnn::TaskType::Mix, args.groupSize());
            m3e::Problem prop(group, accel::makeSetting(c.setting, bw),
                              sched::BwPolicy::Proportional);
            m3e::Problem even(group, accel::makeSetting(c.setting, bw),
                              sched::BwPolicy::EvenSplit);
            opt::SearchOptions opts;
            opts.sampleBudget = args.budget();
            const api::OptimizerRegistry& reg =
                api::OptimizerRegistry::global();
            double fp = reg.make("MAGMA", args.seed)
                            ->search(prop.evaluator(), opts).bestFitness;
            double fe = reg.make("MAGMA", args.seed)
                            ->search(even.evaluator(), opts).bestFitness;
            std::printf("  %8g %14.1f %14.1f %8.3f\n", bw, fp, fe,
                        fp / fe);
            csv.row({accel::settingName(c.setting),
                     common::CsvWriter::num(bw),
                     common::CsvWriter::num(fp), common::CsvWriter::num(fe),
                     common::CsvWriter::num(fp / fe)});
        }
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("ablation_bw_policy.csv").c_str());
    return 0;
}

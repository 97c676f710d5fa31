/**
 * @file
 * Fig. 9 harness: heterogeneous accelerators — S2 (small, BW=16) and S4
 * (large, BW=256) on Vision and Mix tasks, all ten mappers.
 *
 * Paper's shape: Herald-like stays respectable (it is heterogeneity
 * aware), AI-MT-like collapses by 1-2 orders of magnitude, plain black-box
 * methods trail badly on the large platform, the RLs get close, MAGMA
 * wins. Caption absolute MAGMA numbers: 254/271/254/383 GFLOP/s.
 */

#include <cstdio>

#include "bench/experiment.h"
#include "common/stats.h"

using namespace magma;

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::printHeader("Fig. 9: heterogeneous accelerators (S2 BW=16, "
                       "S4 BW=256), Vision & Mix, 10 mappers");
    std::printf("budget=%lld group=%d (use --full for paper scale)\n",
                static_cast<long long>(args.budget()), args.groupSize());

    common::CsvWriter csv(args.outPath("fig09_heterogeneous.csv"),
                          {"config", "method", "gflops", "norm_vs_magma"});

    struct Config {
        const char* label;
        dnn::TaskType task;
        accel::Setting setting;
        double bw;
    };
    const Config configs[] = {
        {"(a) Vision, S2, BW=16", dnn::TaskType::Vision,
         accel::Setting::S2, 16.0},
        {"(b) Mix, S2, BW=16", dnn::TaskType::Mix, accel::Setting::S2,
         16.0},
        {"(c) Vision, S4, BW=256", dnn::TaskType::Vision,
         accel::Setting::S4, 256.0},
        {"(d) Mix, S4, BW=256", dnn::TaskType::Mix, accel::Setting::S4,
         256.0},
    };

    for (const Config& c : configs) {
        auto problem = m3e::makeProblem(c.task, c.setting, c.bw,
                                        args.groupSize(), args.seed);
        auto runs = bench::runMethods(*problem, api::tableIvMethods(),
                                      args.budget(), args.seed,
                                      args.full ? -1 : 1000);
        bench::printNormalizedByMagma(c.label, runs, &csv, c.label);

        double magma = bench::gflopsOf(runs, "MAGMA");
        std::printf("  -> MAGMA vs Herald-like %.2fx, vs AI-MT-like "
                    "%.1fx, vs RLs %.2fx/%.2fx\n",
                    magma / bench::gflopsOf(runs, "Herald-like"),
                    magma / bench::gflopsOf(runs, "AI-MT-like"),
                    magma / bench::gflopsOf(runs, "RL A2C"),
                    magma / bench::gflopsOf(runs, "RL PPO2"));
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig09_heterogeneous.csv").c_str());
    return 0;
}

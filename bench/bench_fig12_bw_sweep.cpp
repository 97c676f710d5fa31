/**
 * @file
 * Fig. 12 harness: system-BW sweep on the heterogeneous accelerators
 * (Mix task): S2 with BW in {1,4,8,16} and S4 with BW in {1,16,64,256},
 * comparing Herald-like, RL A2C, RL PPO2 and MAGMA.
 *
 * Paper's shape: as BW shrinks the mapper matters more — MAGMA's margin
 * over the others grows (e.g. 1.2x at BW=16 to 1.6x at BW=1 on S2).
 */

#include <cstdio>

#include "bench/experiment.h"
#include "common/stats.h"

using namespace magma;

namespace {

void
sweep(const char* label, accel::Setting setting,
      const std::vector<double>& bws, const bench::BenchArgs& args,
      common::CsvWriter& csv)
{
    std::printf("\n%s\n  %-14s", label, "method");
    for (double bw : bws)
        std::printf(" %10s", ("BW=" + common::CsvWriter::num(bw)).c_str());
    std::printf("   (normalized by MAGMA)\n");

    const std::vector<std::string> methods = {"Herald-like", "RL A2C",
                                               "RL PPO2", "MAGMA"};

    // One workload per BW point (same seed), methods sweep across.
    std::vector<std::vector<bench::MethodRun>> by_bw;
    for (double bw : bws) {
        auto problem = m3e::makeProblem(dnn::TaskType::Mix, setting, bw,
                                        args.groupSize(), args.seed);
        by_bw.push_back(bench::runMethods(*problem, methods, args.budget(),
                                          args.seed,
                                          args.full ? -1 : 800));
    }

    for (size_t mi = 0; mi < methods.size(); ++mi) {
        std::printf("  %-14s", by_bw[0][mi].name.c_str());
        for (size_t bi = 0; bi < bws.size(); ++bi) {
            double magma = bench::gflopsOf(by_bw[bi], "MAGMA");
            double norm = magma > 0 ? by_bw[bi][mi].gflops / magma : 0.0;
            std::printf(" %10.3f", norm);
            csv.row({label, by_bw[bi][mi].name,
                     common::CsvWriter::num(bws[bi]),
                     common::CsvWriter::num(by_bw[bi][mi].gflops),
                     common::CsvWriter::num(norm)});
        }
        std::printf("\n");
    }

    // The paper's takeaway metric: MAGMA's geomean margin at the lowest
    // vs the highest BW point.
    auto margin = [&](size_t bi) {
        double magma = bench::gflopsOf(by_bw[bi], "MAGMA");
        std::vector<double> ratios;
        for (const auto& r : by_bw[bi])
            if (r.name != "MAGMA")
                ratios.push_back(magma / r.gflops);
        return common::geomean(ratios);
    };
    std::printf("  MAGMA geomean margin: %.2fx at BW=%g, %.2fx at BW=%g\n",
                margin(0), bws.front(), margin(bws.size() - 1), bws.back());
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::printHeader("Fig. 12: BW sweep on heterogeneous accelerators "
                       "(Mix task)");
    common::CsvWriter csv(args.outPath("fig12_bw_sweep.csv"),
                          {"case", "method", "bw_gbps", "gflops",
                           "norm_vs_magma"});
    sweep("(a) Mix, Small hetero (S2)", accel::Setting::S2,
          {1.0, 4.0, 8.0, 16.0}, args, csv);
    sweep("(b) Mix, Large hetero (S4)", accel::Setting::S4,
          {1.0, 16.0, 64.0, 256.0}, args, csv);
    std::printf("\nSeries written to %s\n",
                args.outPath("fig12_bw_sweep.csv").c_str());
    return 0;
}

/**
 * @file
 * Fig. 11 harness: convergence curves of all methods over an extended
 * budget on (a) (Vision, S2, BW=16) and (b) (Mix, S3, BW=16).
 *
 * Paper's shape: most methods converge before 10K samples but plateau at
 * lower points than MAGMA's.
 */

#include <cstdio>

#include "analysis/convergence.h"
#include "bench/experiment.h"

using namespace magma;

namespace {

void
runCase(const char* label, dnn::TaskType task, accel::Setting setting,
        double bw, const bench::BenchArgs& args, common::CsvWriter& csv)
{
    auto problem = m3e::makeProblem(task, setting, bw, args.groupSize(),
                                    args.seed);
    int64_t budget = args.full ? 100000 : 4 * args.budget();
    int64_t rl_budget = args.full ? 20000 : args.budget();

    std::printf("\n%s (budget %lld)\n", label,
                static_cast<long long>(budget));
    const int checkpoints = 10;
    std::printf("  %-14s", "method");
    for (int g : analysis::resampleGrid(static_cast<int>(budget),
                                        checkpoints))
        std::printf(" %8d", g);
    std::printf("\n");

    opt::SearchOptions base;
    base.recordConvergence = true;
    auto runs = bench::runMethods(*problem, api::tableIvMethods(), budget,
                                  args.seed, rl_budget, base);
    for (const auto& r : runs) {
        std::vector<double> pts =
            analysis::resampleCurve(r.result.convergence, checkpoints);
        std::printf("  %-14s", r.name.c_str());
        for (double v : pts)
            std::printf(" %8.1f", v);
        int conv90 =
            analysis::samplesToFraction(r.result.convergence, 0.9);
        std::printf("   (90%% at %d samples)\n", conv90);
        for (int i = 0; i < checkpoints; ++i)
            csv.row({label, r.name,
                     std::to_string(analysis::resampleGrid(
                         static_cast<int>(budget), checkpoints)[i]),
                     common::CsvWriter::num(pts[i])});
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::printHeader("Fig. 11: convergence over extended budgets");
    common::CsvWriter csv(args.outPath("fig11_convergence.csv"),
                          {"case", "method", "samples", "best_gflops"});
    runCase("(a) Vision, S2, BW=16", dnn::TaskType::Vision,
            accel::Setting::S2, 16.0, args, csv);
    runCase("(b) Mix, S3, BW=16", dnn::TaskType::Mix, accel::Setting::S3,
            16.0, args, csv);
    std::printf("\nSeries written to %s\n",
                args.outPath("fig11_convergence.csv").c_str());
    return 0;
}

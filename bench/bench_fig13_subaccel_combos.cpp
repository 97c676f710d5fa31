/**
 * @file
 * Fig. 13 harness: sub-accelerator combinations — S3 (Large Homog), S4
 * (Large Hetero) and S5 (Large Hetero BigLittle).
 *
 * (a)/(b) jobs analysis: per-task average per-job no-stall latency and
 * required BW on each setting (stacked across the four tasks in the
 * paper; we print the per-task values and the stacked total).
 * (c) MAGMA throughput on each setting at BW=1 and BW=64, normalized by
 * S5's value at each BW.
 *
 * Paper's shape: S4 trades latency for lower BW demand vs S3, so S4 wins
 * at BW=1 but loses at high BW; the smaller BigLittle (S5) wins outright
 * at BW=1 on the strength of its lower BW appetite.
 */

#include <cstdio>

#include "bench/experiment.h"
#include "sched/job_analyzer.h"

using namespace magma;

namespace {

struct Analysis {
    double lat = 0.0;  // avg per-job no-stall seconds (mean across cores)
    double bw = 0.0;   // avg per-job required BW
};

Analysis
analyzeTaskOnSetting(dnn::TaskType task, accel::Setting setting,
                     const bench::BenchArgs& args)
{
    auto problem = m3e::makeProblem(task, setting, 64.0, args.groupSize(),
                                    args.seed);
    const auto& table = problem->evaluator().table();
    Analysis out;
    int jobs = table.numJobs(), accels = table.numAccels();
    for (int j = 0; j < jobs; ++j) {
        for (int a = 0; a < accels; ++a) {
            out.lat += table.lookup(j, a).noStallSeconds;
            out.bw += table.lookup(j, a).reqBwGbps;
        }
    }
    out.lat /= jobs * accels;
    out.bw /= jobs * accels;
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::printHeader("Fig. 13: S3 vs S4 vs S5 — jobs analysis and "
                       "MAGMA performance vs BW");

    const accel::Setting settings[] = {accel::Setting::S3,
                                       accel::Setting::S4,
                                       accel::Setting::S5};
    const dnn::TaskType tasks[] = {
        dnn::TaskType::Vision, dnn::TaskType::Language,
        dnn::TaskType::Recommendation, dnn::TaskType::Mix};

    common::CsvWriter csv(args.outPath("fig13_subaccel_combos.csv"),
                          {"section", "setting", "task_or_bw", "value"});

    // (a)/(b) jobs analysis.
    std::printf("\n(a) avg per-job no-stall latency (us) and (b) avg "
                "required BW (GB/s)\n");
    std::printf("  %-4s", "");
    for (dnn::TaskType t : tasks)
        std::printf(" %10s(a) %9s(b)", dnn::taskTypeName(t).c_str(),
                    dnn::taskTypeName(t).c_str());
    std::printf(" %10s %9s\n", "stack(a)", "stack(b)");
    for (accel::Setting s : settings) {
        std::printf("  %-4s", accel::settingName(s).c_str());
        double stack_lat = 0.0, stack_bw = 0.0;
        for (dnn::TaskType t : tasks) {
            Analysis a = analyzeTaskOnSetting(t, s, args);
            std::printf(" %12.2f %11.2f", a.lat * 1e6, a.bw);
            stack_lat += a.lat * 1e6;
            stack_bw += a.bw;
            csv.row({"lat_us", accel::settingName(s), dnn::taskTypeName(t),
                     common::CsvWriter::num(a.lat * 1e6)});
            csv.row({"bw_gbps", accel::settingName(s), dnn::taskTypeName(t),
                     common::CsvWriter::num(a.bw)});
        }
        std::printf(" %10.2f %9.2f\n", stack_lat, stack_bw);
    }

    // (c) MAGMA throughput at BW=1 and BW=64, normalized by S5.
    std::printf("\n(c) MAGMA throughput normalized by S5\n");
    for (double bw : {1.0, 64.0}) {
        double vals[3] = {};
        for (int i = 0; i < 3; ++i) {
            auto problem = m3e::makeProblem(dnn::TaskType::Mix, settings[i],
                                            bw, args.groupSize(),
                                            args.seed);
            auto magma_opt =
                api::OptimizerRegistry::global().make("MAGMA", args.seed);
            opt::SearchOptions opts;
            opts.sampleBudget = args.budget();
            vals[i] =
                magma_opt->search(problem->evaluator(), opts).bestFitness;
        }
        std::printf("  BW=%-4g:", bw);
        for (int i = 0; i < 3; ++i) {
            std::printf("  %s %.2f (%.1f GFLOP/s)",
                        accel::settingName(settings[i]).c_str(),
                        vals[i] / vals[2], vals[i]);
            csv.row({"magma_norm_s5", accel::settingName(settings[i]),
                     common::CsvWriter::num(bw),
                     common::CsvWriter::num(vals[i] / vals[2])});
        }
        std::printf("\n");
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig13_subaccel_combos.csv").c_str());
    return 0;
}

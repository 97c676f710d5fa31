/**
 * @file
 * Fig. 14 harness: fixed vs flexible PE arrays (Section VI-F), extending
 * S1 (Small) and S3 (Large) with reshape-per-job arrays.
 *
 * (a)/(b) jobs analysis: avg per-job no-stall latency and required BW for
 * fixed vs flexible on Vision and Mix — flexible is faster per job but
 * hungrier for bandwidth.
 * (c)/(d) MAGMA throughput of fixed normalized by flexible at low/high BW
 * — flexible wins everywhere (paper: fixed lands at 0.73-0.87).
 */

#include <cstdio>

#include "bench/experiment.h"

using namespace magma;

namespace {

struct JobsAnalysis {
    double lat_us = 0.0;
    double bw = 0.0;
};

JobsAnalysis
analyze(m3e::Problem& p)
{
    const auto& table = p.evaluator().table();
    JobsAnalysis out;
    int jobs = table.numJobs(), accels = table.numAccels();
    for (int j = 0; j < jobs; ++j)
        for (int a = 0; a < accels; ++a) {
            out.lat_us += table.lookup(j, a).noStallSeconds * 1e6;
            out.bw += table.lookup(j, a).reqBwGbps;
        }
    out.lat_us /= jobs * accels;
    out.bw /= jobs * accels;
    return out;
}

double
runMagma(m3e::Problem& p, const bench::BenchArgs& args)
{
    auto magma_opt =
        api::OptimizerRegistry::global().make("MAGMA", args.seed);
    opt::SearchOptions opts;
    opts.sampleBudget = args.budget();
    return magma_opt->search(p.evaluator(), opts).bestFitness;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::printHeader("Fig. 14: fixed vs flexible PE arrays (S1/S3)");
    common::CsvWriter csv(args.outPath("fig14_flexible.csv"),
                          {"section", "accel", "task", "bw", "fixed",
                           "flexible"});

    struct Case {
        const char* size;
        accel::Setting setting;
        double low_bw, high_bw;
    };
    const Case cases[] = {{"Small", accel::Setting::S1, 1.0, 16.0},
                          {"Large", accel::Setting::S3, 1.0, 256.0}};
    const dnn::TaskType tasks[] = {dnn::TaskType::Vision,
                                   dnn::TaskType::Mix};

    std::printf("\n(a)/(b) jobs analysis (avg per-job)\n");
    std::printf("  %-6s %-7s %14s %14s %12s %12s\n", "accel", "task",
                "lat fixed(us)", "lat flex(us)", "BW fixed", "BW flex");
    for (const Case& c : cases) {
        for (dnn::TaskType t : tasks) {
            dnn::WorkloadGenerator gen(args.seed);
            dnn::JobGroup group = gen.makeGroup(t, args.groupSize());
            m3e::Problem fixed(group,
                               accel::makeSetting(c.setting, c.high_bw));
            m3e::Problem flex(
                group, accel::makeFlexibleSetting(c.setting, c.high_bw));
            JobsAnalysis af = analyze(fixed), ax = analyze(flex);
            std::printf("  %-6s %-7s %14.2f %14.2f %12.2f %12.2f\n",
                        c.size, dnn::taskTypeName(t).c_str(), af.lat_us,
                        ax.lat_us, af.bw, ax.bw);
            csv.row({"jobs_lat_us", c.size, dnn::taskTypeName(t), "-",
                     common::CsvWriter::num(af.lat_us),
                     common::CsvWriter::num(ax.lat_us)});
            csv.row({"jobs_bw", c.size, dnn::taskTypeName(t), "-",
                     common::CsvWriter::num(af.bw),
                     common::CsvWriter::num(ax.bw)});
        }
    }

    std::printf("\n(c)/(d) MAGMA throughput, fixed normalized by "
                "flexible\n");
    std::printf("  %-6s %-7s %8s %10s %10s %8s\n", "accel", "task", "BW",
                "fixed", "flexible", "norm");
    for (const Case& c : cases) {
        for (dnn::TaskType t : tasks) {
            for (double bw : {c.low_bw, c.high_bw}) {
                dnn::WorkloadGenerator gen(args.seed);
                dnn::JobGroup group = gen.makeGroup(t, args.groupSize());
                m3e::Problem fixed(group,
                                   accel::makeSetting(c.setting, bw));
                m3e::Problem flex(
                    group, accel::makeFlexibleSetting(c.setting, bw));
                double ff = runMagma(fixed, args);
                double fx = runMagma(flex, args);
                std::printf("  %-6s %-7s %8g %10.1f %10.1f %8.2f\n",
                            c.size, dnn::taskTypeName(t).c_str(), bw, ff,
                            fx, ff / fx);
                csv.row({"magma_gflops", c.size, dnn::taskTypeName(t),
                         common::CsvWriter::num(bw),
                         common::CsvWriter::num(ff),
                         common::CsvWriter::num(fx)});
            }
        }
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig14_flexible.csv").c_str());
    return 0;
}

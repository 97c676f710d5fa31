/**
 * @file
 * The paper-figure driver: Figs. 7-17, Table V and the BW-policy
 * ablation, one function each, run by name:
 *
 *   bench_paper [--full] [--seed N] [--out-dir DIR] NAME... | all
 *
 * Every figure writes its CSV series (fig07 -> fig07_job_analysis.csv,
 * ...) into --out-dir and prints its tables to stdout. Budgets are
 * reduced by default; --full runs the paper's 10K samples on groups of
 * 100. An unknown name or flag exits 2 and lists the valid names.
 *
 * Each figure states its cases as api::ProblemSpec values, and every
 * search goes through search(). Fig. 16 (MAGMA's operator switches) and
 * Table V (transfer across groups) construct MagmaGa directly, since
 * neither is a registry method run on one spec.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "accel/platform.h"
#include "analysis/convergence.h"
#include "analysis/projection.h"
#include "analysis/timeline.h"
#include "api/registry.h"
#include "api/runner.h"
#include "baselines/herald_like.h"
#include "bench/bench_common.h"
#include "common/csv.h"
#include "common/stats.h"
#include "cost/cost_model.h"
#include "dnn/model_zoo.h"
#include "dnn/workload.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "opt/magma_ga.h"
#include "opt/warm_start.h"

using namespace magma;

namespace {

using accel::Setting;
using bench::BenchArgs;
using common::CsvWriter;
using dnn::TaskType;

constexpr auto num = &CsvWriter::num;

const TaskType kTasks[] = {TaskType::Vision, TaskType::Language,
                           TaskType::Recommendation, TaskType::Mix};

// ------------------------------------------------------ shared helpers ---

/** One figure case: `task` on `setting` at `bw` GB/s, on a group of the
 * harness size generated from the harness seed. */
api::ProblemSpec
caseSpec(const BenchArgs& args, TaskType task, Setting setting, double bw)
{
    return {.task = task, .setting = setting, .systemBwGbps = bw,
            .groupSize = args.groupSize(), .workloadSeed = args.seed};
}

/** The one Runner behind every figure: it keeps the problem of the last
 * spec, so a method sweep over one case reuses its Job Analysis Table. */
api::Runner runner;

m3e::Problem&
problemOf(const api::ProblemSpec& ps)
{
    return runner.problem(ps, sched::Objective::Throughput);
}

/** One method's outcome on one figure case. */
struct Run {
    std::string name;
    opt::SearchResult result;

    double gflops() const { return result.bestFitness; }
};

enum class Record { Nothing, Convergence, Samples };

/**
 * The search path of every figure: `method` on the problem `ps` through
 * the Runner, as m3e_cli runs it, so MAGMA's population is
 * opt::transfer::populationFor(group size).
 */
Run
search(const api::ProblemSpec& ps, const std::string& method,
       int64_t budget, uint64_t seed, Record record = Record::Nothing)
{
    api::SearchSpec ss;
    ss.method = method;
    ss.sampleBudget = budget;
    ss.seed = seed;
    ss.recordConvergence = record == Record::Convergence;
    ss.recordSamples = record == Record::Samples;
    Run run{method, {}};
    runner.run(ps, ss, &run.result);
    return run;
}

/**
 * A line-up of methods on one case under a shared budget. RL methods take
 * `rl_budget` when it is positive, since one RL sample costs a policy
 * update; --full passes -1 and equalizes everything as the paper does.
 */
std::vector<Run>
lineup(const api::ProblemSpec& ps, const std::vector<std::string>& methods,
       int64_t budget, uint64_t seed, int64_t rl_budget,
       Record record = Record::Nothing)
{
    std::vector<Run> runs;
    for (const std::string& m : methods) {
        bool is_rl = (m == "RL A2C" || m == "RL PPO2");
        int64_t b = is_rl && rl_budget > 0 ? rl_budget : budget;
        runs.push_back(search(ps, m, b, seed, record));
    }
    return runs;
}

/** Throughput of a named method within a run list (0 if absent). */
double
gflopsOf(const std::vector<Run>& runs, const std::string& name)
{
    for (const Run& r : runs)
        if (r.name == name)
            return r.gflops();
    return 0.0;
}

/**
 * The Figs. 8/9 block: throughputs normalized by MAGMA plus MAGMA's
 * absolute GFLOP/s (the figures' captions report exactly that).
 */
void
printNormalizedByMagma(const std::string& title, const std::vector<Run>& runs,
                       CsvWriter& csv, const std::string& csv_tag)
{
    double magma = gflopsOf(runs, "MAGMA");
    std::printf("\n%s  (MAGMA absolute: %.1f GFLOP/s)\n", title.c_str(),
                magma);
    std::printf("  %-14s %10s %12s\n", "method", "norm", "GFLOP/s");
    for (const Run& r : runs) {
        double norm = magma > 0 ? r.gflops() / magma : 0.0;
        std::printf("  %-14s %10.3f %12.2f\n", r.name.c_str(), norm,
                    r.gflops());
        csv.row({csv_tag, r.name, num(r.gflops()), num(norm)});
    }
}

/** Average per-job no-stall latency and required BW over every
 * (job, sub-accelerator) cell of a problem's Job Analysis Table. */
struct JobMeans {
    double lat = 0.0, bw = 0.0;
};

/** `lat_scale` converts each latency before summing, so a figure that
 * reports seconds scaled after the mean (Fig. 13) and one that sums
 * microseconds (Fig. 14) each keep their own rounding. */
JobMeans
jobMeans(const m3e::Problem& p, double lat_scale)
{
    const auto& table = p.evaluator().table();
    JobMeans out;
    int jobs = table.numJobs(), accels = table.numAccels();
    for (int j = 0; j < jobs; ++j)
        for (int a = 0; a < accels; ++a) {
            out.lat += table.lookup(j, a).noStallSeconds * lat_scale;
            out.bw += table.lookup(j, a).reqBwGbps;
        }
    out.lat /= jobs * accels;
    out.bw /= jobs * accels;
    return out;
}

const int kCheckpoints = 10;

/** Header of a resampled-convergence table (Figs. 11 and 16). */
void
printConvergenceHeader(const char* label, int64_t budget,
                       const char* column)
{
    std::printf("\n%s (budget %lld)\n  %-14s", label,
                static_cast<long long>(budget), column);
    for (int g : analysis::resampleGrid(static_cast<int>(budget),
                                        kCheckpoints))
        std::printf(" %8d", g);
    std::printf("\n");
}

/** One row of that table and its CSV rows: the best-so-far curve at the
 * checkpoints, and the samples it took to reach `percent`% of its end. */
void
convergenceRow(CsvWriter& csv, const char* label, const std::string& name,
               const std::vector<double>& curve, int64_t budget,
               int percent)
{
    std::vector<double> pts = analysis::resampleCurve(curve, kCheckpoints);
    std::vector<int> grid =
        analysis::resampleGrid(static_cast<int>(budget), kCheckpoints);
    std::printf("  %-14s", name.c_str());
    for (double v : pts)
        std::printf(" %8.1f", v);
    std::printf("   (%d%% at %d samples)\n", percent,
                analysis::samplesToFraction(curve, percent / 100.0));
    for (int i = 0; i < kCheckpoints; ++i)
        csv.row({label, name, std::to_string(grid[i]), num(pts[i])});
}

// ------------------------------------------------------------- figures ---

/**
 * Fig. 7: per-job no-stall latency and required bandwidth of the model
 * zoo on the HB-64 and LB-64 sub-accelerator styles: (a) the per-model
 * table and per-task averages, (b) the task-average latency and (c) the
 * task-average required BW.
 *
 * Expected shape (paper): vision has the highest latency and lowest BW
 * need; recommendation the lowest latency and highest BW need; LB is
 * orders of magnitude slower than HB on FC-dominated models while needing
 * orders of magnitude less bandwidth.
 */
void
fig07(const BenchArgs& args)
{
    bench::printHeader(
        "Fig. 7: per-job no-stall latency & required BW on (HB,64)/(LB,64)");

    cost::CostModel model;
    cost::SubAccelConfig hb =
        accel::makeSubAccel(cost::DataflowStyle::HB, 64, 291);
    cost::SubAccelConfig lb =
        accel::makeSubAccel(cost::DataflowStyle::LB, 64, 218);

    CsvWriter csv(args.outPath("fig07_job_analysis.csv"),
                  {"task", "model", "hb_lat_cycles", "lb_lat_cycles",
                   "hb_bw_gbps", "lb_bw_gbps"});

    std::printf("(a) per-model averages\n");
    std::printf("%-8s %-14s %12s %12s %12s %12s\n", "task", "model",
                "lat(HB,64)", "lat(LB,64)", "BW(HB,64)", "BW(LB,64)");

    // {lat HB, lat LB, BW HB, BW LB}: per model the mean over its layers,
    // per task the mean over its models.
    using Stats = std::array<double, 4>;
    auto row = [&](TaskType task, const std::string& name, const Stats& s) {
        csv.row({dnn::taskTypeName(task), name, num(s[0]), num(s[1]),
                 num(s[2]), num(s[3])});
    };
    const TaskType tasks[] = {TaskType::Vision, TaskType::Language,
                              TaskType::Recommendation};
    std::vector<Stats> task_means;
    for (TaskType task : tasks) {
        Stats sum{};
        const auto& models = dnn::modelsForTask(task);
        for (const auto& m : models) {
            Stats s{};
            int batch = dnn::defaultBatch(m.task);
            for (const auto& layer : m.layers) {
                cost::CostResult rh = model.analyze(layer, batch, hb);
                cost::CostResult rl = model.analyze(layer, batch, lb);
                s[0] += rh.noStallCycles;
                s[1] += rl.noStallCycles;
                s[2] += rh.reqBwGbps;
                s[3] += rl.reqBwGbps;
            }
            for (int k = 0; k < 4; ++k) {
                s[k] /= static_cast<double>(m.layers.size());
                sum[k] += s[k];
            }
            std::printf("%-8s %-14s %12.3g %12.3g %12.3g %12.3g\n",
                        dnn::taskTypeName(task).c_str(), m.name.c_str(), s[0],
                        s[1], s[2], s[3]);
            row(task, m.name, s);
        }
        for (double& v : sum)
            v /= static_cast<double>(models.size());
        task_means.push_back(sum);
    }

    std::printf("\n(b) task-average no-stall latency (cycles) and\n"
                "(c) task-average required BW (GB/s)\n");
    std::printf("%-8s %12s %12s %12s %12s\n", "task", "lat(HB)", "lat(LB)",
                "BW(HB)", "BW(LB)");
    for (int i = 0; i < 3; ++i) {
        const Stats& s = task_means[i];
        std::printf("%-8s %12.3g %12.3g %12.3g %12.3g\n",
                    dnn::taskTypeName(tasks[i]).c_str(), s[0], s[1], s[2],
                    s[3]);
        row(tasks[i], "AVERAGE", s);
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig07_job_analysis.csv").c_str());
}

/**
 * Fig. 8: the small homogeneous accelerator (S1, BW=16 GB/s) across the
 * four tasks and all ten mappers.
 *
 * Paper's shape: every method lands in the same ballpark on homogeneous
 * hardware; MAGMA is best, ~1.4x over the manual mappers (geomean) and
 * ~1.6x over the other optimizers. The caption's absolute MAGMA numbers
 * are 249/397/194/329 GFLOP/s for (a)-(d).
 */
void
fig08(const BenchArgs& args)
{
    bench::printHeader("Fig. 8: S1 homogeneous small accelerator, BW=16, "
                       "4 tasks x 10 mappers");
    std::printf("budget=%lld group=%d (use --full for paper scale)\n",
                static_cast<long long>(args.budget()), args.groupSize());

    CsvWriter csv(args.outPath("fig08_homogeneous.csv"),
                  {"task", "method", "gflops", "norm_vs_magma"});

    std::vector<double> vs_manual, vs_opt;
    for (TaskType task : kTasks) {
        auto runs = lineup(caseSpec(args, task, Setting::S1, 16.0),
                           api::tableIvMethods(), args.budget(), args.seed,
                           args.full ? -1 : 1000);
        std::string name = dnn::taskTypeName(task);
        printNormalizedByMagma("Task " + name, runs, csv, name);

        double magma = gflopsOf(runs, "MAGMA");
        for (const char* b : {"Herald-like", "AI-MT-like"})
            vs_manual.push_back(magma / gflopsOf(runs, b));
        for (const char* o : {"PSO", "CMA", "DE", "TBPSA", "stdGA"})
            vs_opt.push_back(magma / gflopsOf(runs, o));
    }

    std::printf("\nGeomean MAGMA advantage: %.2fx vs manual mappers "
                "(paper: 1.4x/1.41x), %.2fx vs black-box optimizers "
                "(paper: 1.6x)\n",
                common::geomean(vs_manual), common::geomean(vs_opt));
    std::printf("Series written to %s\n",
                args.outPath("fig08_homogeneous.csv").c_str());
}

/**
 * Fig. 9: heterogeneous accelerators, S2 (small, BW=16) and S4 (large,
 * BW=256), on Vision and Mix, all ten mappers.
 *
 * Paper's shape: Herald-like stays respectable (it is heterogeneity
 * aware), AI-MT-like collapses by 1-2 orders of magnitude, plain black-box
 * methods trail badly on the large platform, the RLs get close, MAGMA
 * wins. Caption absolute MAGMA numbers: 254/271/254/383 GFLOP/s.
 */
void
fig09(const BenchArgs& args)
{
    bench::printHeader("Fig. 9: heterogeneous accelerators (S2 BW=16, "
                       "S4 BW=256), Vision & Mix, 10 mappers");
    std::printf("budget=%lld group=%d (use --full for paper scale)\n",
                static_cast<long long>(args.budget()), args.groupSize());

    CsvWriter csv(args.outPath("fig09_heterogeneous.csv"),
                  {"config", "method", "gflops", "norm_vs_magma"});

    const std::pair<const char*, api::ProblemSpec> configs[] = {
        {"(a) Vision, S2, BW=16",
         caseSpec(args, TaskType::Vision, Setting::S2, 16.0)},
        {"(b) Mix, S2, BW=16",
         caseSpec(args, TaskType::Mix, Setting::S2, 16.0)},
        {"(c) Vision, S4, BW=256",
         caseSpec(args, TaskType::Vision, Setting::S4, 256.0)},
        {"(d) Mix, S4, BW=256",
         caseSpec(args, TaskType::Mix, Setting::S4, 256.0)},
    };

    for (const auto& [label, ps] : configs) {
        auto runs = lineup(ps, api::tableIvMethods(), args.budget(),
                           args.seed, args.full ? -1 : 1000);
        printNormalizedByMagma(label, runs, csv, label);

        double magma = gflopsOf(runs, "MAGMA");
        std::printf("  -> MAGMA vs Herald-like %.2fx, vs AI-MT-like "
                    "%.1fx, vs RLs %.2fx/%.2fx\n",
                    magma / gflopsOf(runs, "Herald-like"),
                    magma / gflopsOf(runs, "AI-MT-like"),
                    magma / gflopsOf(runs, "RL A2C"),
                    magma / gflopsOf(runs, "RL PPO2"));
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig09_heterogeneous.csv").c_str());
}

/**
 * Fig. 10: how different methods explore the map space on (Mix, S2,
 * BW=16): (b) the explored-space scatter through a shared 2-D PCA over
 * all sampled mappings (points written to CSV per method) and (c) the
 * reached GFLOP/s table, with a long random-sampling run standing in for
 * the paper's 2-day "exhaustively sampled" best-effort optimum.
 */
void
fig10(const BenchArgs& args)
{
    bench::printHeader(
        "Fig. 10: explored map space + reached GFLOP/s (Mix, S2, BW=16)");

    api::ProblemSpec ps = caseSpec(args, TaskType::Mix, Setting::S2, 16.0);
    auto runs = lineup(ps, {"MAGMA", "RL PPO2", "stdGA", "PSO", "CMA"},
                       args.budget(), args.seed, args.full ? -1 : 600,
                       Record::Samples);

    // "Exhaustively sampled" stand-in: random with a much larger budget
    // (the paper used ~1M random samples over 2 days).
    runs.push_back(search(ps, "Random",
                          args.budget() * (args.full ? 20 : 10), args.seed,
                          Record::Samples));
    runs.back().name = "Exhaustively Sampled";

    // (c) reached performance table.
    std::printf("\n(c) reached performance\n  %-22s %12s %10s\n", "method",
                "GFLOP/s", "samples");
    for (const Run& r : runs)
        std::printf("  %-22s %12.2f %10lld\n", r.name.c_str(), r.gflops(),
                    static_cast<long long>(r.result.samplesUsed));

    // (a)/(b) PCA projection of the sampled mappings, shared plane.
    std::vector<std::string> names;
    std::vector<std::vector<sched::Mapping>> samples;
    std::vector<std::vector<double>> fitness;
    for (const Run& r : runs) {
        names.push_back(r.name);
        // Subsample to keep the CSV manageable.
        std::vector<sched::Mapping> pts;
        std::vector<double> fit;
        size_t stride = std::max<size_t>(1, r.result.sampled.size() / 1000);
        for (size_t i = 0; i < r.result.sampled.size(); i += stride) {
            pts.push_back(r.result.sampled[i]);
            fit.push_back(r.result.sampledFitness[i]);
        }
        samples.push_back(std::move(pts));
        fitness.push_back(std::move(fit));
    }
    analysis::MapSpaceProjector projector;
    auto series = projector.project(names, samples, fitness,
                                    problemOf(ps).evaluator().numAccels());

    CsvWriter csv(args.outPath("fig10_explored_space.csv"),
                  {"method", "pc1", "pc2", "gflops"});
    for (const auto& s : series)
        for (size_t i = 0; i < s.points.size(); ++i)
            csv.row({s.method, num(s.points[i][0]), num(s.points[i][1]),
                     num(s.fitness[i])});

    std::printf("\nPCA explained variance: PC1 %.1f%%, PC2 %.1f%%\n",
                100.0 * projector.explainedVariance()[0],
                100.0 * projector.explainedVariance()[1]);
    std::printf("Projected samples written to %s\n",
                args.outPath("fig10_explored_space.csv").c_str());
}

/**
 * Fig. 11: convergence curves of all methods over an extended budget on
 * (a) (Vision, S2, BW=16) and (b) (Mix, S3, BW=16).
 *
 * Paper's shape: most methods converge before 10K samples but plateau at
 * lower points than MAGMA's.
 */
void
fig11(const BenchArgs& args)
{
    bench::printHeader("Fig. 11: convergence over extended budgets");
    CsvWriter csv(args.outPath("fig11_convergence.csv"),
                  {"case", "method", "samples", "best_gflops"});
    int64_t budget = args.full ? 100000 : 4 * args.budget();
    int64_t rl_budget = args.full ? 20000 : args.budget();
    const std::pair<const char*, api::ProblemSpec> cases[] = {
        {"(a) Vision, S2, BW=16",
         caseSpec(args, TaskType::Vision, Setting::S2, 16.0)},
        {"(b) Mix, S3, BW=16",
         caseSpec(args, TaskType::Mix, Setting::S3, 16.0)},
    };
    for (const auto& [label, ps] : cases) {
        printConvergenceHeader(label, budget, "method");
        for (const Run& r : lineup(ps, api::tableIvMethods(), budget,
                                   args.seed, rl_budget,
                                   Record::Convergence))
            convergenceRow(csv, label, r.name, r.result.convergence,
                           budget, 90);
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig11_convergence.csv").c_str());
}

/**
 * Fig. 12: system-BW sweep on the heterogeneous accelerators (Mix task):
 * S2 with BW in {1,4,8,16} and S4 with BW in {1,16,64,256}, comparing
 * Herald-like, RL A2C, RL PPO2 and MAGMA.
 *
 * Paper's shape: as BW shrinks the mapper matters more; MAGMA's margin
 * over the others grows (e.g. 1.2x at BW=16 to 1.6x at BW=1 on S2).
 */
void
bwSweep(const char* label, Setting setting, const std::vector<double>& bws,
        const BenchArgs& args, CsvWriter& csv)
{
    std::printf("\n%s\n  %-14s", label, "method");
    for (double bw : bws)
        std::printf(" %10s", ("BW=" + num(bw)).c_str());
    std::printf("   (normalized by MAGMA)\n");

    const std::vector<std::string> methods = {"Herald-like", "RL A2C",
                                               "RL PPO2", "MAGMA"};

    // One workload per BW point (same seed), methods sweep across.
    std::vector<std::vector<Run>> by_bw;
    for (double bw : bws) {
        api::ProblemSpec ps = caseSpec(args, TaskType::Mix, setting, bw);
        by_bw.push_back(lineup(ps, methods, args.budget(), args.seed,
                               args.full ? -1 : 800));
    }

    for (size_t mi = 0; mi < methods.size(); ++mi) {
        std::printf("  %-14s", by_bw[0][mi].name.c_str());
        for (size_t bi = 0; bi < bws.size(); ++bi) {
            double magma = gflopsOf(by_bw[bi], "MAGMA");
            double gflops = by_bw[bi][mi].gflops();
            double norm = magma > 0 ? gflops / magma : 0.0;
            std::printf(" %10.3f", norm);
            csv.row({label, by_bw[bi][mi].name, num(bws[bi]), num(gflops),
                     num(norm)});
        }
        std::printf("\n");
    }

    // The paper's takeaway metric: MAGMA's geomean margin at the lowest
    // vs the highest BW point.
    auto margin = [&](size_t bi) {
        double magma = gflopsOf(by_bw[bi], "MAGMA");
        std::vector<double> ratios;
        for (const Run& r : by_bw[bi])
            if (r.name != "MAGMA")
                ratios.push_back(magma / r.gflops());
        return common::geomean(ratios);
    };
    std::printf("  MAGMA geomean margin: %.2fx at BW=%g, %.2fx at BW=%g\n",
                margin(0), bws.front(), margin(bws.size() - 1), bws.back());
}

void
fig12(const BenchArgs& args)
{
    bench::printHeader("Fig. 12: BW sweep on heterogeneous accelerators "
                       "(Mix task)");
    CsvWriter csv(args.outPath("fig12_bw_sweep.csv"),
                  {"case", "method", "bw_gbps", "gflops", "norm_vs_magma"});
    bwSweep("(a) Mix, Small hetero (S2)", Setting::S2, {1.0, 4.0, 8.0, 16.0},
            args, csv);
    bwSweep("(b) Mix, Large hetero (S4)", Setting::S4,
            {1.0, 16.0, 64.0, 256.0}, args, csv);
    std::printf("\nSeries written to %s\n",
                args.outPath("fig12_bw_sweep.csv").c_str());
}

/**
 * Fig. 13: sub-accelerator combinations, S3 (Large Homog), S4 (Large
 * Hetero) and S5 (Large Hetero BigLittle). (a)/(b) jobs analysis:
 * per-task average per-job no-stall latency and required BW on each
 * setting (stacked across the four tasks in the paper; printed per task
 * plus the stacked total). (c) MAGMA throughput on each setting at BW=1
 * and BW=64, normalized by S5's value at each BW.
 *
 * Paper's shape: S4 trades latency for lower BW demand vs S3, so S4 wins
 * at BW=1 but loses at high BW; the smaller BigLittle (S5) wins outright
 * at BW=1 on the strength of its lower BW appetite.
 */
void
fig13(const BenchArgs& args)
{
    bench::printHeader("Fig. 13: S3 vs S4 vs S5 — jobs analysis and "
                       "MAGMA performance vs BW");

    const Setting settings[] = {Setting::S3, Setting::S4, Setting::S5};

    CsvWriter csv(args.outPath("fig13_subaccel_combos.csv"),
                  {"section", "setting", "task_or_bw", "value"});

    // (a)/(b) jobs analysis.
    std::printf("\n(a) avg per-job no-stall latency (us) and (b) avg "
                "required BW (GB/s)\n");
    std::printf("  %-4s", "");
    for (TaskType t : kTasks)
        std::printf(" %10s(a) %9s(b)", dnn::taskTypeName(t).c_str(),
                    dnn::taskTypeName(t).c_str());
    std::printf(" %10s %9s\n", "stack(a)", "stack(b)");
    for (Setting s : settings) {
        std::string setting = accel::settingName(s);
        std::printf("  %-4s", setting.c_str());
        double stack_lat = 0.0, stack_bw = 0.0;
        for (TaskType t : kTasks) {
            JobMeans a = jobMeans(problemOf(caseSpec(args, t, s, 64.0)), 1.0);
            std::printf(" %12.2f %11.2f", a.lat * 1e6, a.bw);
            stack_lat += a.lat * 1e6;
            stack_bw += a.bw;
            std::string task = dnn::taskTypeName(t);
            csv.row({"lat_us", setting, task, num(a.lat * 1e6)});
            csv.row({"bw_gbps", setting, task, num(a.bw)});
        }
        std::printf(" %10.2f %9.2f\n", stack_lat, stack_bw);
    }

    // (c) MAGMA throughput at BW=1 and BW=64, normalized by S5.
    std::printf("\n(c) MAGMA throughput normalized by S5\n");
    for (double bw : {1.0, 64.0}) {
        double vals[3] = {};
        for (int i = 0; i < 3; ++i) {
            auto ps = caseSpec(args, TaskType::Mix, settings[i], bw);
            vals[i] = search(ps, "MAGMA", args.budget(), args.seed).gflops();
        }
        std::printf("  BW=%-4g:", bw);
        for (int i = 0; i < 3; ++i) {
            std::string setting = accel::settingName(settings[i]);
            std::printf("  %s %.2f (%.1f GFLOP/s)", setting.c_str(),
                        vals[i] / vals[2], vals[i]);
            csv.row({"magma_norm_s5", setting, num(bw),
                     num(vals[i] / vals[2])});
        }
        std::printf("\n");
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig13_subaccel_combos.csv").c_str());
}

/**
 * Fig. 14: fixed vs flexible PE arrays (Section VI-F), extending S1
 * (Small) and S3 (Large) with reshape-per-job arrays. (a)/(b) jobs
 * analysis: avg per-job no-stall latency and required BW for fixed vs
 * flexible on Vision and Mix; flexible is faster per job but hungrier for
 * bandwidth. (c)/(d) MAGMA throughput of fixed normalized by flexible at
 * low/high BW; flexible wins everywhere (paper: fixed lands at 0.73-0.87).
 */
void
fig14(const BenchArgs& args)
{
    bench::printHeader("Fig. 14: fixed vs flexible PE arrays (S1/S3)");
    CsvWriter csv(args.outPath("fig14_flexible.csv"),
                  {"section", "accel", "task", "bw", "fixed", "flexible"});

    struct Case {
        const char* size;
        Setting setting;
        double low_bw, high_bw;
    };
    const Case cases[] = {{"Small", Setting::S1, 1.0, 16.0},
                          {"Large", Setting::S3, 1.0, 256.0}};
    const TaskType tasks[] = {TaskType::Vision, TaskType::Mix};

    std::printf("\n(a)/(b) jobs analysis (avg per-job)\n");
    std::printf("  %-6s %-7s %14s %14s %12s %12s\n", "accel", "task",
                "lat fixed(us)", "lat flex(us)", "BW fixed", "BW flex");
    for (const Case& c : cases) {
        for (TaskType t : tasks) {
            api::ProblemSpec fixed = caseSpec(args, t, c.setting, c.high_bw);
            api::ProblemSpec flex = fixed;
            flex.flexible = true;
            JobMeans af = jobMeans(problemOf(fixed), 1e6);
            JobMeans ax = jobMeans(problemOf(flex), 1e6);
            std::string task = dnn::taskTypeName(t);
            std::printf("  %-6s %-7s %14.2f %14.2f %12.2f %12.2f\n",
                        c.size, task.c_str(), af.lat, ax.lat, af.bw, ax.bw);
            csv.row({"jobs_lat_us", c.size, task, "-", num(af.lat),
                     num(ax.lat)});
            csv.row({"jobs_bw", c.size, task, "-", num(af.bw), num(ax.bw)});
        }
    }

    std::printf("\n(c)/(d) MAGMA throughput, fixed normalized by "
                "flexible\n");
    std::printf("  %-6s %-7s %8s %10s %10s %8s\n", "accel", "task", "BW",
                "fixed", "flexible", "norm");
    for (const Case& c : cases) {
        for (TaskType t : tasks) {
            for (double bw : {c.low_bw, c.high_bw}) {
                api::ProblemSpec fixed = caseSpec(args, t, c.setting, bw);
                api::ProblemSpec flex = fixed;
                flex.flexible = true;
                double ff =
                    search(fixed, "MAGMA", args.budget(), args.seed).gflops();
                double fx =
                    search(flex, "MAGMA", args.budget(), args.seed).gflops();
                std::string task = dnn::taskTypeName(t);
                std::printf("  %-6s %-7s %8g %10.1f %10.1f %8.2f\n",
                            c.size, task.c_str(), bw, ff, fx, ff / fx);
                csv.row({"magma_gflops", c.size, task, num(bw), num(ff),
                         num(fx)});
            }
        }
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig14_flexible.csv").c_str());
}

/** Fig. 15's view of one mapping: Gantt chart, BW profile and CSV rows. */
void
showSchedule(const char* label, const sched::Mapping& m,
             m3e::Problem& problem, CsvWriter& csv)
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

/**
 * Fig. 15: the schedules found by Herald-like and MAGMA on (Mix, S5,
 * BW=1): sub-accelerator allocation Gantt charts tagged by task category
 * plus the bandwidth-allocation profile over time.
 *
 * Paper's shape: Herald-like front-loads the BW-intensive language and
 * recommendation jobs, causing BW competition and a ~10x longer finish
 * time; MAGMA spreads them across the runtime.
 */
void
fig15(const BenchArgs& args)
{
    bench::printHeader(
        "Fig. 15: found-solution visualization (Mix, S5, BW=1)");

    api::ProblemSpec ps = caseSpec(args, TaskType::Mix, Setting::S5, 1.0);
    CsvWriter csv(args.outPath("fig15_solution_viz.csv"),
                  {"mapper", "t_start", "t_end", "accel", "job", "task",
                   "alloc_bw_gbps"});

    m3e::Problem& problem = problemOf(ps);
    showSchedule("Herald-like",
                 baselines::HeraldLike::buildMapping(problem.evaluator()),
                 problem, csv);
    Run magma = search(ps, "MAGMA", args.budget(), args.seed);
    showSchedule("MAGMA", magma.result.best, problemOf(ps), csv);

    std::printf("\nSegments written to %s\n",
                args.outPath("fig15_solution_viz.csv").c_str());
}

/**
 * Fig. 16: MAGMA operator ablation on (a) (Vision, S2, BW=16) and (b)
 * (Mix, S3, BW=16): convergence with (1) mutation only, (2) mutation +
 * crossover-gen, (3) all four operators.
 *
 * Paper's shape: mutation-only converges far slower; adding crossover-gen
 * recovers most of the sample efficiency; crossover-rg + crossover-accel
 * close the remaining gap.
 */
void
fig16(const BenchArgs& args)
{
    bench::printHeader("Fig. 16: MAGMA genetic-operator ablation");
    CsvWriter csv(args.outPath("fig16_operator_ablation.csv"),
                  {"case", "operators", "samples", "best_gflops"});
    const std::pair<const char*, api::ProblemSpec> cases[] = {
        {"(a) Vision, S2, BW=16",
         caseSpec(args, TaskType::Vision, Setting::S2, 16.0)},
        {"(b) Mix, S3, BW=16",
         caseSpec(args, TaskType::Mix, Setting::S3, 16.0)},
    };
    const char* names[] = {"Mut.", "Mut.+Crs-gen", "All four ops"};
    int64_t budget = args.budget();
    for (const auto& [label, ps] : cases) {
        printConvergenceHeader(label, budget, "operators");
        for (int ops = 1; ops <= 3; ++ops) {
            opt::MagmaConfig cfg;
            cfg.enableCrossoverGen = ops >= 2;
            cfg.enableCrossoverRg = ops >= 3;
            cfg.enableCrossoverAccel = ops >= 3;
            cfg.population = opt::transfer::populationFor(ps.groupSize);
            opt::MagmaGa magma_ga(args.seed, cfg);
            opt::SearchOptions opts;
            opts.sampleBudget = budget;
            opts.recordConvergence = true;
            opt::SearchResult r =
                magma_ga.search(exec::EvalEngine(problemOf(ps).evaluator(), 1),
                                opts);
            convergenceRow(csv, label, names[ops - 1], r.convergence,
                           budget, 99);
        }
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig16_operator_ablation.csv").c_str());
}

/**
 * Fig. 17: group-size sweep on (Mix, S2, BW=16) with MAGMA.
 *
 * Paper's shape: performance is fairly flat from 1000 down to ~20, but a
 * very small group (4) leaves sub-accelerators starved and loses.
 * Throughputs are normalized by the group-size-1000 value.
 */
void
fig17(const BenchArgs& args)
{
    bench::printHeader("Fig. 17: group-size sweep (Mix, S2, BW=16)");

    std::vector<int> sizes = {1000, 500, 200, 100, 50, 40, 20, 10, 4};
    CsvWriter csv(args.outPath("fig17_group_size.csv"),
                  {"group_size", "gflops", "norm_vs_1000"});

    std::vector<double> gflops;
    for (int gs : sizes) {
        api::ProblemSpec ps = caseSpec(args, TaskType::Mix, Setting::S2, 16.0);
        ps.groupSize = gs;
        gflops.push_back(
            search(ps, "MAGMA", args.budget(), args.seed).gflops());
    }

    std::printf("\n  %-10s %12s %10s\n", "group", "GFLOP/s", "norm");
    for (size_t i = 0; i < sizes.size(); ++i) {
        double norm = gflops[i] / gflops[0];
        std::printf("  %-10d %12.1f %10.2f\n", sizes[i], gflops[i], norm);
        csv.rowNumeric({static_cast<double>(sizes[i]), gflops[i], norm});
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("fig17_group_size.csv").c_str());
}

/**
 * Mean fitness of a population: the initialization-quality metric of the
 * Raw and Trf-0-ep rows. The mean, not the best, because the BW allocator
 * is forgiving enough that the best of a random population is already
 * strong; the mean is where the population actually starts.
 */
double
meanOf(const std::vector<sched::Mapping>& pop,
       const sched::MappingEvaluator& eval)
{
    double sum = 0.0;
    for (const auto& s : pop)
        sum += eval.fitness(s);
    return pop.empty() ? 0.0 : sum / pop.size();
}

/** MAGMA run with optional warm seeds and an epoch-denominated budget. */
opt::SearchResult
magmaEpochs(m3e::Problem& p, int epochs, int pop,
            const std::vector<sched::Mapping>& seeds, uint64_t seed)
{
    opt::MagmaConfig cfg;
    cfg.population = pop;
    opt::MagmaGa magma_ga(seed, cfg);
    opt::SearchOptions opts;
    opts.sampleBudget = static_cast<int64_t>(pop) * (1 + epochs);
    opts.seeds = seeds;
    return magma_ga.search(exec::EvalEngine(p.evaluator(), 1), opts);
}

/** A Table V row: Raw, Trf-0-ep, Trf-1-ep and Trf-30-ep, each normalized
 * by Trf-100-ep. */
using WarmRow = std::array<double, 4>;

/** Warm-start `target` from the solution of `solved_group`
 * (job-matched transfer) and measure the Table V row. */
WarmRow
transferTo(m3e::Problem& target, const sched::Mapping& solved,
           const dnn::JobGroup& solved_group, int pop,
           const BenchArgs& args)
{
    common::Rng rng(args.seed + 17);
    auto seeds = opt::transfer::seedsFromStored(
        solved, solved_group, target.group(), pop,
        target.evaluator().numAccels(), rng);
    // Raw: a random population before any optimization (mean fitness).
    std::vector<sched::Mapping> random_pop;
    for (int i = 0; i < pop; ++i)
        random_pop.push_back(sched::Mapping::random(
            target.group().size(), target.evaluator().numAccels(), rng));
    WarmRow row = {meanOf(random_pop, target.evaluator()),
                   meanOf(seeds, target.evaluator()),
                   magmaEpochs(target, 1, pop, seeds, args.seed).bestFitness,
                   magmaEpochs(target, 30, pop, seeds, args.seed).bestFitness};
    double trf100 =
        magmaEpochs(target, 100, pop, seeds, args.seed).bestFitness;
    for (double& v : row)
        v /= trf100;
    return row;
}

/** One Table V row on stdout (its label `width` wide) and in the CSV. */
void
printWarmRow(CsvWriter& csv, const char* section, const std::string& label,
             int width, const WarmRow& r)
{
    std::printf("  %-*s %8.2f %8.2f %8.2f %8.2f %8.2f\n", width,
                label.c_str(), r[0], r[1], r[2], r[3], 1.0);
    csv.row({section, label, num(r[0]), num(r[1]), num(r[2]), num(r[3]),
             "1"});
}

/**
 * Table V: warm-start of MAGMA (Section V-C / VI-G).
 *
 * (a) Optimize group Insts0 (Mix, S4, BW=1), then warm-start on four new
 *     groups Insts1..4, reporting Raw (random init, 0 epochs),
 *     Trf-0-ep (warm seeds, 0 epochs), Trf-1-ep, Trf-30-ep and
 *     Trf-100-ep (full budget), all normalized by Trf-100-ep.
 * (b) The same protocol averaged across S1-S6 for each task at BW=1.
 *
 * Paper's shape: Trf-0-ep lands at ~0.5 of full (vs ~0.03 for Raw); one
 * epoch reaches ~0.7, thirty epochs ~0.99.
 */
void
table05(const BenchArgs& args)
{
    bench::printHeader("Table V: warm-start of MAGMA");
    CsvWriter csv(args.outPath("table05_warmstart.csv"),
                  {"section", "instance", "raw", "trf0", "trf1", "trf30",
                   "trf100"});
    const int group = args.groupSize();
    const int pop = opt::transfer::populationFor(group);

    // ---------------- (a) Mix, S4, BW=1, Insts0..4 ----------------
    std::printf("\n(a) Mix, S4, BW=1 — normalized by Trf-100-ep\n");
    std::printf("  %-10s %8s %8s %8s %8s %8s\n", "instance", "Raw",
                "Trf-0", "Trf-1", "Trf-30", "Trf-100");

    dnn::WorkloadGenerator gen(args.seed);
    auto groups = gen.makeGroups(TaskType::Mix, group, 5);
    const accel::Platform s4 = accel::makeSetting(Setting::S4, 1.0);

    m3e::Problem insts0(groups[0], s4);
    opt::SearchResult solved = magmaEpochs(insts0, 100, pop, {}, args.seed);
    std::printf("  %-10s %8s %8s %8s %8s %8.2f  (optimized: %.1f "
                "GFLOP/s)\n",
                "Insts0", "-", "-", "-", "-", 1.0, solved.bestFitness);
    for (int i = 1; i < 5; ++i) {
        m3e::Problem target(groups[i], s4);
        printWarmRow(csv, "a", "Insts" + std::to_string(i), 10,
                     transferTo(target, solved.best, groups[0], pop, args));
    }

    // ------------- (b) averaged across S1-S6 per task, BW=1 -------------
    std::printf("\n(b) averaged across S1-S6, BW=1 — normalized by "
                "Trf-100-ep\n");
    std::printf("  %-8s %8s %8s %8s %8s %8s\n", "task", "Raw", "Trf-0",
                "Trf-1", "Trf-30", "Trf-100");
    const Setting settings[] = {Setting::S1, Setting::S2, Setting::S3,
                                Setting::S4, Setting::S5, Setting::S6};
    for (TaskType task : {TaskType::Mix, TaskType::Vision,
                          TaskType::Language, TaskType::Recommendation}) {
        std::array<std::vector<double>, 4> per_setting;
        for (Setting s : settings) {
            dnn::WorkloadGenerator g2(args.seed + static_cast<int>(s));
            auto two = g2.makeGroups(task, group, 2);
            m3e::Problem src(two[0], accel::makeSetting(s, 1.0));
            m3e::Problem dst(two[1], accel::makeSetting(s, 1.0));
            WarmRow row =
                transferTo(dst, magmaEpochs(src, 50, pop, {}, args.seed).best,
                           two[0], pop, args);
            for (int k = 0; k < 4; ++k)
                per_setting[k].push_back(row[k]);
        }
        WarmRow means;
        for (int k = 0; k < 4; ++k)
            means[k] = common::mean(per_setting[k]);
        printWarmRow(csv, "b", dnn::taskTypeName(task), 8, means);
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("table05_warmstart.csv").c_str());
}

/**
 * Design-choice ablation (Section IV-D1): the BW Allocator's proportional
 * sharing vs the "often applied heuristic" of splitting system BW evenly
 * across sub-accelerators. Runs MAGMA under both policies across a BW
 * sweep on the heterogeneous platforms and reports the throughput ratio.
 *
 * Expected shape: even splitting strands bandwidth at cores running
 * compute-bound jobs while memory-bound jobs starve; the gap is largest
 * in the mid-BW contention regime and vanishes when BW is abundant.
 */
void
ablationBw(const BenchArgs& args)
{
    bench::printHeader("Ablation: proportional vs even BW allocation "
                       "(Mix task, MAGMA mapper)");
    CsvWriter csv(args.outPath("ablation_bw_policy.csv"),
                  {"setting", "bw_gbps", "proportional_gflops",
                   "even_gflops", "ratio"});

    const std::pair<Setting, std::vector<double>> cases[] = {
        {Setting::S2, {1.0, 2.0, 4.0, 8.0, 16.0}},
        {Setting::S4, {1.0, 4.0, 16.0, 64.0, 256.0}},
    };
    for (const auto& [setting, bws] : cases) {
        std::string name = accel::settingName(setting);
        std::printf("\n%s\n  %8s %14s %14s %8s\n", name.c_str(), "BW",
                    "proportional", "even-split", "ratio");
        for (double bw : bws) {
            api::ProblemSpec prop = caseSpec(args, TaskType::Mix, setting, bw);
            api::ProblemSpec even = prop;
            even.bwPolicy = sched::BwPolicy::EvenSplit;
            double fp =
                search(prop, "MAGMA", args.budget(), args.seed).gflops();
            double fe =
                search(even, "MAGMA", args.budget(), args.seed).gflops();
            std::printf("  %8g %14.1f %14.1f %8.3f\n", bw, fp, fe, fp / fe);
            csv.row({name, num(bw), num(fp), num(fe), num(fp / fe)});
        }
    }
    std::printf("\nSeries written to %s\n",
                args.outPath("ablation_bw_policy.csv").c_str());
}

// ---------------------------------------------------------------- main ---

struct Figure {
    const char* name;
    void (*run)(const BenchArgs&);
};

const Figure kFigures[] = {
    {"fig07", fig07}, {"fig08", fig08}, {"fig09", fig09},
    {"fig10", fig10}, {"fig11", fig11}, {"fig12", fig12},
    {"fig13", fig13}, {"fig14", fig14}, {"fig15", fig15},
    {"fig16", fig16}, {"fig17", fig17}, {"table05", table05},
    {"ablation_bw", ablationBw},
};

int
usage(const std::string& bad)
{
    if (!bad.empty())
        std::fprintf(stderr, "bench_paper: unknown figure or flag '%s'\n",
                     bad.c_str());
    std::fprintf(stderr, "usage: bench_paper [--full] [--seed N] "
                         "[--out-dir DIR] NAME... | all\nfigures:");
    for (const Figure& f : kFigures)
        std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<const Figure*> chosen;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        size_t before = chosen.size();
        for (const Figure& f : kFigures)
            if (a == "all" || a == f.name)
                chosen.push_back(&f);
        if ((a == "--seed" || a == "--out-dir") && i + 1 < argc)
            ++i;  // BenchArgs::parse reads the value
        else if (a != "--full" && chosen.size() == before)
            return usage(a);
    }
    if (chosen.empty())
        return usage("");
    BenchArgs args = BenchArgs::parse(argc, argv);
    for (const Figure* f : chosen)
        f->run(args);
    return 0;
}

#include "api/runner.h"

#include <sstream>
#include <stdexcept>

#include "api/registry.h"
#include "api/textio.h"
#include "exec/thread_pool.h"
#include "obs/snapshot.h"

namespace magma::api {

using namespace textio;

// --------------------------------------------------------- RunReport ---

namespace {

constexpr const char* kReportHeader = "magma-run-report v1";

/**
 * Metrics attachment for a report: counters/gauges/histograms of the
 * process registry, captured non-destructively (the trace rings are NOT
 * drained — they stay available for a later --metrics-out snapshot).
 * Empty at level Off.
 */
std::string
captureMetricsJson()
{
    if (obs::metricsLevel() == obs::MetricsLevel::Off)
        return "";
    return obs::SnapshotWriter::capture("runner",
                                        obs::MetricsRegistry::global())
        .toJson();
}

std::string
joinDoubles(const std::vector<double>& vs)
{
    std::ostringstream os;
    for (size_t i = 0; i < vs.size(); ++i)
        os << (i ? " " : "") << formatDouble(vs[i]);
    return os.str();
}

std::vector<double>
splitDoubles(std::string_view key, const std::string& line)
{
    std::vector<double> out;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok)
        out.push_back(parseDouble(key, tok));
    return out;
}

}  // namespace

std::string
RunReport::toText() const
{
    std::ostringstream os;
    os << kReportHeader << '\n'
       << problem.toText() << search.toText()
       // "method" is the SearchSpec's key (possibly an alias);
       // "resolved_method" is the canonical name the registry ran.
       << "resolved_method=" << method << '\n'
       << "best_fitness=" << formatDouble(bestFitness) << '\n'
       << "makespan_seconds=" << formatDouble(makespanSeconds) << '\n'
       << "throughput_gflops=" << formatDouble(throughputGflops) << '\n'
       << "energy_joules=" << formatDouble(energyJoules) << '\n'
       << "samples_used=" << samplesUsed << '\n'
       << "wall_seconds=" << formatDouble(wallSeconds) << '\n'
       << "mapping=" << best.toText() << '\n'
       << "convergence=" << joinDoubles(convergence) << '\n';
    // Omitted when empty so pre-observability reports stay byte-stable.
    if (!metricsJson.empty())
        os << "metrics_json=" << metricsJson << '\n';
    for (const mo::MoPoint& p : front)
        os << "front_point=" << p.toText() << '\n';
    return os.str();
}

RunReport
RunReport::fromText(const std::string& text)
{
    std::string_view body = text;
    size_t nl = body.find('\n');
    if (trim(body.substr(0, nl)) != kReportHeader)
        throw std::invalid_argument(
            "RunReport::fromText: missing 'magma-run-report v1' header");
    RunReport r;
    forEachKeyValue(
        body.substr(nl == std::string_view::npos ? body.size() : nl + 1),
        [&](std::string_view k, std::string_view v) {
            if (k == "resolved_method") {
                r.method = v;
                return;
            }
            if (r.problem.applyKey(k, v) || r.search.applyKey(k, v))
                return;
            if (k == "best_fitness")
                r.bestFitness = parseDouble(k, v);
            else if (k == "makespan_seconds")
                r.makespanSeconds = parseDouble(k, v);
            else if (k == "throughput_gflops")
                r.throughputGflops = parseDouble(k, v);
            else if (k == "energy_joules")
                r.energyJoules = parseDouble(k, v);
            else if (k == "samples_used")
                r.samplesUsed = parseNumber<int64_t>(k, v);
            else if (k == "wall_seconds")
                r.wallSeconds = parseDouble(k, v);
            else if (k == "mapping")
                r.best = sched::Mapping::fromText(v);
            else if (k == "convergence")
                r.convergence = splitDoubles(k, std::string(v));
            else if (k == "metrics_json")
                r.metricsJson = v;
            else if (k == "front_point")
                r.front.push_back(mo::MoPoint::fromText(std::string(v)));
            else
                throw std::invalid_argument("RunReport: unknown key '" +
                                            std::string(k) + "'");
        });
    return r;
}

std::string
RunReport::frontCsv() const
{
    if (front.empty())
        return "";
    std::ostringstream os;
    os << "point";
    for (sched::Objective o : search.objectives)
        os << ',' << sched::objectiveName(o);
    os << ",mapping\n";
    for (size_t i = 0; i < front.size(); ++i) {
        os << i;
        for (double v : front[i].objs)
            os << ',' << formatDouble(v);
        os << ',' << front[i].m.toText() << '\n';
    }
    return os.str();
}

mo::ParetoArchive
RunReport::frontArchive() const
{
    mo::ParetoArchive arch(search.objectives);
    for (const mo::MoPoint& p : front)
        arch.insert(p);
    return arch;
}

std::string
RunReport::summaryLine() const
{
    sched::Objective reported = search.objectives.empty()
                                    ? search.objective
                                    : search.objectives[0];
    char buf[256];
    // magma-lint: allow(double-format): console summary line; the
    // round-trip RunReport serialization in toText() uses %.17g.
    std::snprintf(buf, sizeof(buf),
                  "%-14s fitness %12.3f (%s)   throughput %9.2f GFLOP/s   "
                  "makespan %.4g s   samples %lld",
                  method.c_str(), bestFitness,
                  sched::objectiveName(reported).c_str(),
                  throughputGflops, makespanSeconds,
                  static_cast<long long>(samplesUsed));
    return buf;
}

// ------------------------------------------------- problem builders ---

std::unique_ptr<m3e::Problem>
buildProblem(const ProblemSpec& spec, sched::Objective objective)
{
    dnn::WorkloadGenerator gen(spec.workloadSeed);
    return std::make_unique<m3e::Problem>(
        gen.makeGroup(spec.task, spec.groupSize), buildPlatform(spec),
        spec.bwPolicy, objective);
}

// ------------------------------------------------------------ Runner ---

m3e::Problem&
Runner::problem(const ProblemSpec& spec, sched::Objective objective)
{
    if (!cached_ || !(cachedSpec_ == spec) || cachedObjective_ != objective) {
        cached_ = buildProblem(spec, objective);
        cachedSpec_ = spec;
        cachedObjective_ = objective;
    }
    return *cached_;
}

RunReport
Runner::run(const ProblemSpec& ps, const SearchSpec& ss,
            opt::SearchResult* raw)
{
    // Multi-objective mode: the evaluator is fixed on the PRIMARY
    // objective (entry 0) so the scalar bestFitness reads consistently;
    // the search itself scores all objectives from one simulation per
    // candidate.
    const bool multi = !ss.objectives.empty();
    sched::Objective primary = multi ? ss.objectives[0] : ss.objective;

    m3e::Problem& prob = problem(ps, primary);
    sched::MappingEvaluator& eval = prob.evaluator();

    RunReport rep;
    rep.problem = ps;
    rep.search = ss;
    rep.method = OptimizerRegistry::global().resolve(ss.method);

    exec::ThreadPool pool(ss.threads);
    Solved solved = solve(eval, ss, nullptr, pool);
    opt::SearchResult& res = solved.result;
    rep.wallSeconds = solved.searchSeconds;
    if (multi) {
        rep.front = solved.pareto.front.points();
        rep.samplesUsed = solved.pareto.samplesUsed;
        // `best` is the front member maximizing the primary objective
        // (first wins ties — insertion order is deterministic).
        if (!rep.front.empty()) {
            size_t bi = 0;
            for (size_t i = 1; i < rep.front.size(); ++i)
                if (rep.front[i].objs[0] > rep.front[bi].objs[0])
                    bi = i;
            rep.best = rep.front[bi].m;
            rep.bestFitness = rep.front[bi].objs[0];
        }
    } else {
        rep.best = res.best;
        rep.bestFitness = res.bestFitness;
        rep.samplesUsed = res.samplesUsed;
        rep.convergence = res.convergence;
    }
    if (!multi || !rep.front.empty()) {
        sched::ScheduleResult sim = eval.evaluate(rep.best);
        rep.makespanSeconds = sim.makespanSeconds;
        rep.throughputGflops = eval.throughputGflops(sim.makespanSeconds);
        rep.energyJoules = eval.totalJoules(rep.best);
    }
    rep.metricsJson = captureMetricsJson();
    if (raw)
        *raw = std::move(res);
    return rep;
}

}  // namespace magma::api

#ifndef MAGMA_API_RUNNER_H_
#define MAGMA_API_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "api/spec.h"
#include "m3e/problem.h"
#include "mo/pareto.h"
#include "opt/optimizer.h"

namespace magma::api {

/**
 * Structured outcome of one experiment: the input specs echoed back (a
 * report is self-describing and replayable), the best mapping and its
 * quality under every reporting lens, and the search cost.
 *
 * Text form: "magma-run-report v1" header, then the key=value blocks of
 * both specs followed by the result keys — exact round-trip
 * (fromText(toText(r)) == r bitwise), so reports are durable artifacts
 * the same way specs and the MappingStore are.
 */
struct RunReport {
    ProblemSpec problem;
    SearchSpec search;
    std::string method;  ///< canonical registry name actually run

    sched::Mapping best;
    double bestFitness = 0.0;  ///< objective value of `best`
    double makespanSeconds = 0.0;
    double throughputGflops = 0.0;
    double energyJoules = 0.0;
    int64_t samplesUsed = 0;
    double wallSeconds = 0.0;
    /** best-so-far fitness per sample (when search.recordConvergence). */
    std::vector<double> convergence;
    /**
     * Pareto front of search.objectives (multi-objective runs only;
     * empty on the scalar path): mutually non-dominated points in
     * archive insertion order, each carrying its mapping and one
     * objective value per search.objectives entry. `best` is the member
     * maximizing the primary objective. Serialized as one front_point=
     * line per member; round-trips bitwise like every other field.
     */
    std::vector<mo::MoPoint> front;
    /**
     * Metrics snapshot attached by Runner::run when the observability
     * level is not Off: the obs::SnapshotWriter schema-1 JSON of the
     * process registry captured right after the search (single line —
     * the JSON writer emits no newlines — so it rides the text format
     * as an ordinary metrics_json= key; omitted when empty).
     * obs::MetricsSnapshot::fromJson parses it back.
     */
    std::string metricsJson;

    std::string toText() const;
    /** Exact inverse of toText(); throws std::invalid_argument. */
    static RunReport fromText(const std::string& text);

    /**
     * CSV of the Pareto front: "point,<objective names...>,mapping"
     * header plus one row per front member — the spreadsheet form of
     * the trade-off curve. Empty string when there is no front.
     */
    std::string frontCsv() const;

    /** Front as a persistable archive (objectives from the spec). */
    mo::ParetoArchive frontArchive() const;

    /** One human-readable result line for CLIs and logs. */
    std::string summaryLine() const;

    bool operator==(const RunReport&) const = default;
};

/** Wire the full m3e::Problem a ProblemSpec describes. */
std::unique_ptr<m3e::Problem> buildProblem(
    const ProblemSpec& spec,
    sched::Objective objective = sched::Objective::Throughput);

/**
 * The one-call facade from specs to a RunReport: builds the problem,
 * runs api::solve on `search.threads` lanes with no warm tiers (the
 * paper's random MAGMA start), picks `best` from the front of a Pareto
 * search, scores the best mapping and fills the report. For fixed seeds
 * the result is bitwise identical to hand-wiring m3e::makeProblem +
 * makeForPopulation (tests/test_api.cc locks this in).
 *
 * The Runner caches the problem of the last (ProblemSpec, objective)
 * pair, so sweeping methods over one workload (m3e_cli --all) re-uses
 * the Job Analyzer tables. Not thread-safe; use one Runner per thread.
 */
class Runner {
  public:
    Runner() = default;

    RunReport run(const ProblemSpec& problem, const SearchSpec& search,
                  opt::SearchResult* raw = nullptr);
    RunReport run(const ExperimentSpec& exp,
                  opt::SearchResult* raw = nullptr)
    {
        return run(exp.problem, exp.search, raw);
    }

    /** The (cached) problem for a spec — for header prints, timelines and
     * other post-run inspection against the same evaluator. */
    m3e::Problem& problem(const ProblemSpec& spec,
                          sched::Objective objective);

  private:
    std::unique_ptr<m3e::Problem> cached_;
    ProblemSpec cachedSpec_;
    sched::Objective cachedObjective_ = sched::Objective::Throughput;
};

}  // namespace magma::api

#endif  // MAGMA_API_RUNNER_H_

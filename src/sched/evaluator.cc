#include "sched/evaluator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace magma::sched {

std::string
objectiveName(Objective o)
{
    switch (o) {
    case Objective::Throughput:
        return "throughput";
    case Objective::Latency:
        return "latency";
    case Objective::Energy:
        return "energy";
    case Objective::EnergyDelay:
        return "energy-delay-product";
    case Objective::PerfPerWatt:
        return "performance-per-watt";
    }
    return "?";
}

Objective
objectiveFromName(const std::string& name)
{
    for (Objective o : {Objective::Throughput, Objective::Latency,
                        Objective::Energy, Objective::EnergyDelay,
                        Objective::PerfPerWatt})
        if (objectiveName(o) == name)
            return o;
    // Short spellings the CLI has historically accepted.
    if (name == "edp")
        return Objective::EnergyDelay;
    if (name == "perf-per-watt")
        return Objective::PerfPerWatt;
    throw std::invalid_argument(
        "unknown objective '" + name +
        "' (throughput|latency|energy|energy-delay-product|"
        "performance-per-watt; short forms: edp, perf-per-watt)");
}

std::string
objectiveListName(const std::vector<Objective>& objectives)
{
    std::string out;
    for (size_t i = 0; i < objectives.size(); ++i) {
        if (i)
            out += ',';
        out += objectiveName(objectives[i]);
    }
    return out;
}

std::vector<Objective>
objectiveListFromName(const std::string& names)
{
    // A fully blank input is the empty list (the `objectives=` default);
    // a blank ELEMENT ("throughput,,energy", ",") is a malformed list —
    // swallowing it would silently fall back to single-objective mode.
    if (names.find_first_not_of(" \t") == std::string::npos)
        return {};
    std::vector<Objective> out;
    size_t pos = 0;
    while (pos <= names.size()) {
        size_t comma = names.find(',', pos);
        std::string tok = names.substr(
            pos, (comma == std::string::npos ? names.size() : comma) - pos);
        pos = (comma == std::string::npos) ? names.size() + 1 : comma + 1;
        // Trim surrounding blanks so "throughput, energy" parses.
        size_t b = tok.find_first_not_of(" \t");
        if (b == std::string::npos)
            throw std::invalid_argument(
                "objective list '" + names + "' has an empty element");
        size_t e = tok.find_last_not_of(" \t");
        out.push_back(objectiveFromName(tok.substr(b, e - b + 1)));
    }
    return out;
}

bool
objectiveNeedsEnergy(Objective o)
{
    return o == Objective::Energy || o == Objective::EnergyDelay ||
           o == Objective::PerfPerWatt;
}

double
objectiveFromSimulation(Objective o, double makespan_seconds, double joules,
                        int64_t total_flops)
{
    double seconds = makespan_seconds;
    if (seconds <= 0.0)
        return 0.0;
    switch (o) {
    case Objective::Throughput:
        return static_cast<double>(total_flops) / seconds / 1e9;
    case Objective::Latency:
        return 1.0 / seconds;
    case Objective::Energy:
        return 1.0 / std::max(joules, 1e-30);
    case Objective::EnergyDelay:
        return 1.0 / std::max(joules * seconds, 1e-40);
    case Objective::PerfPerWatt: {
        double watts = joules / seconds;
        return (static_cast<double>(total_flops) / seconds / 1e9) /
               std::max(watts, 1e-30);
    }
    }
    return 0.0;
}

MappingEvaluator::MappingEvaluator(const dnn::JobGroup& group,
                                   const accel::Platform& platform,
                                   const cost::CostModel& model,
                                   BwPolicy policy,
                                   exec::CostCache* cost_cache,
                                   Objective objective)
    : group_(&group),
      platform_(&platform),
      allocator_(platform.systemBwGbps, policy),
      objective_(objective)
{
    JobAnalyzer analyzer(model, cost_cache);
    table_ = analyzer.analyze(group, platform);
}

MappingEvaluator::MappingEvaluator(const dnn::JobGroup& group,
                                   const accel::Platform& platform,
                                   JobAnalysisTable table, BwPolicy policy,
                                   Objective objective)
    : group_(&group),
      platform_(&platform),
      table_(std::move(table)),
      allocator_(platform.systemBwGbps, policy),
      objective_(objective)
{
    assert(table_.numJobs() == group.size() &&
           table_.numAccels() == platform.numSubAccels());
}

double
MappingEvaluator::throughputGflops(double makespan_seconds) const
{
    if (makespan_seconds <= 0.0)
        return 0.0;
    return static_cast<double>(group_->totalFlops()) / makespan_seconds /
           1e9;
}

ScheduleResult
MappingEvaluator::evaluate(const Mapping& m, bool record_timeline) const
{
    assert(m.size() == group_->size());
    DecodedMapping d = decode(m, numAccels());
    return allocator_.run(d, table_, record_timeline);
}

ScheduleResult
MappingEvaluator::evaluateWithSetup(const Mapping& m,
                                    const std::vector<double>&
                                        setup_seconds,
                                    bool record_timeline) const
{
    assert(m.size() == group_->size());
    assert(static_cast<int>(setup_seconds.size()) == group_->size());
    DecodedMapping d = decode(m, numAccels());
    return allocator_.run(d, table_, record_timeline, &setup_seconds);
}

double
MappingEvaluator::totalJoules(const Mapping& m) const
{
    double pj = 0.0;
    for (int j = 0; j < m.size(); ++j)
        pj += table_.lookup(j, m.accelSel[j]).energyPj;
    return pj * 1e-12;
}

double
MappingEvaluator::objectiveValue(const Mapping& m,
                                 const ScheduleResult& r) const
{
    // The energy sum is only spent when the objective reads it, keeping
    // the throughput/latency hot paths at their pre-refactor cost.
    double joules =
        objectiveNeedsEnergy(objective_) ? totalJoules(m) : 0.0;
    return objectiveFromSimulation(objective_, r.makespanSeconds, joules,
                                   group_->totalFlops());
}

double
MappingEvaluator::fitness(const Mapping& m) const
{
    ScheduleResult r = evaluate(m, false);
    return objectiveValue(m, r);
}

}  // namespace magma::sched

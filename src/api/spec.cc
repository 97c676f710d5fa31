#include "api/spec.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "api/textio.h"

namespace magma::api {

using namespace textio;

// ------------------------------------------------------- ProblemSpec ---

std::string
ProblemSpec::toText() const
{
    std::ostringstream os;
    os << "task=" << dnn::taskTypeName(task) << '\n'
       << "setting=" << accel::settingName(setting) << '\n'
       << "flexible=" << (flexible ? 1 : 0) << '\n'
       << "system_bw_gbps=" << formatDouble(systemBwGbps) << '\n'
       << "group_size=" << groupSize << '\n'
       << "bw_policy=" << sched::bwPolicyName(bwPolicy) << '\n'
       << "workload_seed=" << workloadSeed << '\n';
    return os.str();
}

bool
ProblemSpec::applyKey(std::string_view key, std::string_view value)
{
    if (key == "task")
        task = dnn::taskTypeFromName(value);
    else if (key == "setting")
        setting = accel::settingFromName(std::string(value));
    else if (key == "flexible")
        flexible = parseBool(key, value);
    else if (key == "system_bw_gbps")
        systemBwGbps = parseDouble(key, value);
    else if (key == "group_size")
        groupSize = parseNumber<int>(key, value);
    else if (key == "bw_policy")
        bwPolicy = sched::bwPolicyFromName(std::string(value));
    else if (key == "workload_seed")
        workloadSeed = parseNumber<uint64_t>(key, value);
    else
        return false;
    return true;
}

ProblemSpec
ProblemSpec::fromText(const std::string& text)
{
    ProblemSpec spec;
    forEachKeyValue(text, [&](std::string_view k, std::string_view v) {
        if (!spec.applyKey(k, v))
            throw std::invalid_argument("ProblemSpec: unknown key '" +
                                        std::string(k) + "'");
    });
    return spec;
}

// -------------------------------------------------------- SearchSpec ---

std::string
SearchSpec::toText() const
{
    std::ostringstream os;
    os << "method=" << method << '\n'
       << "objective=" << sched::objectiveName(objective) << '\n'
       << "objectives=" << sched::objectiveListName(objectives) << '\n'
       << "sample_budget=" << sampleBudget << '\n'
       << "seed=" << seed << '\n'
       << "threads=" << threads << '\n'
       << "record_convergence=" << (recordConvergence ? 1 : 0) << '\n'
       << "record_samples=" << (recordSamples ? 1 : 0) << '\n'
       << "warm_start=" << (warmStart ? 1 : 0) << '\n';
    return os.str();
}

bool
SearchSpec::applyKey(std::string_view key, std::string_view value)
{
    if (key == "method")
        method = value;
    else if (key == "objective")
        objective = sched::objectiveFromName(std::string(value));
    else if (key == "objectives")
        objectives = sched::objectiveListFromName(std::string(value));
    else if (key == "sample_budget")
        sampleBudget = parseNumber<int64_t>(key, value);
    else if (key == "seed")
        seed = parseNumber<uint64_t>(key, value);
    else if (key == "threads")
        threads = parseNumber<int>(key, value);
    else if (key == "record_convergence")
        recordConvergence = parseBool(key, value);
    else if (key == "record_samples")
        recordSamples = parseBool(key, value);
    else if (key == "warm_start")
        warmStart = parseBool(key, value);
    else
        return false;
    return true;
}

SearchSpec
SearchSpec::fromText(const std::string& text)
{
    SearchSpec spec;
    forEachKeyValue(text, [&](std::string_view k, std::string_view v) {
        if (!spec.applyKey(k, v))
            throw std::invalid_argument("SearchSpec: unknown key '" +
                                        std::string(k) + "'");
    });
    return spec;
}

// ---------------------------------------------------- ExperimentSpec ---

std::string
ExperimentSpec::toText() const
{
    return problem.toText() + search.toText();
}

ExperimentSpec
ExperimentSpec::fromText(const std::string& text)
{
    ExperimentSpec spec;
    forEachKeyValue(text, [&](std::string_view k, std::string_view v) {
        if (!spec.problem.applyKey(k, v) && !spec.search.applyKey(k, v))
            throw std::invalid_argument("ExperimentSpec: unknown key '" +
                                        std::string(k) + "'");
    });
    return spec;
}

accel::Platform
buildPlatform(const ProblemSpec& spec)
{
    return spec.flexible
               ? accel::makeFlexibleSetting(spec.setting, spec.systemBwGbps)
               : accel::makeSetting(spec.setting, spec.systemBwGbps);
}

ExperimentSpec
ExperimentSpec::fromFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read spec file '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromText(buf.str());
}

}  // namespace magma::api

#include "dyn/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "api/textio.h"

namespace magma::dyn {

namespace {

constexpr const char* kHeader = "magma-workload-trace v1";

}  // namespace

std::string
eventKindName(EventKind k)
{
    switch (k) {
    case EventKind::Arrive:
        return "arrive";
    case EventKind::Depart:
        return "depart";
    case EventKind::Swap:
        return "swap";
    }
    return "?";
}

EventKind
eventKindFromName(const std::string& name)
{
    for (EventKind k :
         {EventKind::Arrive, EventKind::Depart, EventKind::Swap})
        if (eventKindName(k) == name)
            return k;
    throw std::invalid_argument("unknown event kind '" + name +
                                "' (arrive|depart|swap)");
}

bool
validBundleName(const std::string& name)
{
    if (name.empty())
        return false;
    if (name.find('\n') != std::string::npos ||
        name.find('\r') != std::string::npos)
        return false;
    auto isSpace = [](char c) { return c == ' ' || c == '\t'; };
    return !isSpace(name.front()) && !isSpace(name.back());
}

std::string
WorkloadEvent::toText() const
{
    std::ostringstream os;
    os << "t=" << common::formatDouble(timeSeconds)
       << " kind=" << eventKindName(kind);
    if (kind != EventKind::Depart)
        os << " jobs=" << jobs << " task=" << dnn::taskTypeName(task)
           << " seed=" << seed;
    os << " name=" << bundle;
    return os.str();
}

WorkloadEvent
WorkloadEvent::fromText(const std::string& line)
{
    // `name=` terminates tokenization and captures the rest of the line
    // (bundle names may contain spaces and '='); every token before it
    // is a space-separated key=value pair.
    WorkloadEvent ev;
    bool have_t = false, have_kind = false, have_name = false;
    bool have_jobs = false, have_task = false, have_seed = false;
    size_t pos = 0;
    while (pos < line.size()) {
        while (pos < line.size() && line[pos] == ' ')
            ++pos;
        if (pos >= line.size())
            break;
        if (line.compare(pos, 5, "name=") == 0) {
            ev.bundle = line.substr(pos + 5);
            have_name = true;
            break;
        }
        size_t sp = line.find(' ', pos);
        std::string token = line.substr(
            pos, (sp == std::string::npos ? line.size() : sp) - pos);
        pos = (sp == std::string::npos) ? line.size() : sp + 1;
        size_t eq = token.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument("event: bad token '" + token +
                                        "' in '" + line + "'");
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);
        if (key == "t") {
            ev.timeSeconds = common::parseDouble("event t", value);
            have_t = true;
        } else if (key == "kind") {
            ev.kind = eventKindFromName(value);
            have_kind = true;
        } else if (key == "jobs") {
            ev.jobs =
                static_cast<int>(api::textio::parseInt("event jobs",
                                                       value));
            have_jobs = true;
        } else if (key == "task") {
            ev.task = dnn::taskTypeFromName(value);
            have_task = true;
        } else if (key == "seed") {
            ev.seed = api::textio::parseUint("event seed", value);
            have_seed = true;
        } else {
            throw std::invalid_argument("event: unknown key '" + key +
                                        "' in '" + line + "'");
        }
    }
    if (!have_t || !have_kind || !have_name)
        throw std::invalid_argument(
            "event: t=, kind= and trailing name= are required: '" + line +
            "'");
    if (!validBundleName(ev.bundle))
        throw std::invalid_argument("event: bad bundle name in '" + line +
                                    "'");
    bool recipe = ev.kind != EventKind::Depart;
    if (recipe && !(have_jobs && have_task && have_seed))
        throw std::invalid_argument(
            "event: arrive/swap need jobs=, task= and seed=: '" + line +
            "'");
    if (!recipe && (have_jobs || have_task || have_seed))
        throw std::invalid_argument(
            "event: depart carries no generation recipe: '" + line + "'");
    return ev;
}

void
WorkloadTrace::validate() const
{
    double prev_t = 0.0;
    std::set<std::string> active;
    for (size_t i = 0; i < events.size(); ++i) {
        const WorkloadEvent& ev = events[i];
        // The message prefix is built only on the way out.
        auto fail = [&](const char* what) {
            throw std::invalid_argument("event " + std::to_string(i) +
                                        " ('" + ev.bundle + "'): " + what);
        };
        if (!std::isfinite(ev.timeSeconds) || ev.timeSeconds < 0.0)
            fail("bad time");
        if (i > 0 && ev.timeSeconds < prev_t)
            fail("time decreases");
        prev_t = ev.timeSeconds;
        if (!validBundleName(ev.bundle))
            fail("bad bundle name");
        switch (ev.kind) {
        case EventKind::Arrive:
            if (ev.jobs <= 0)
                fail("arrive needs jobs > 0");
            if (!active.insert(ev.bundle).second)
                fail("arrive of an already-active bundle");
            break;
        case EventKind::Depart:
            if (active.erase(ev.bundle) == 0)
                fail("depart of an inactive bundle");
            break;
        case EventKind::Swap:
            if (ev.jobs <= 0)
                fail("swap needs jobs > 0");
            if (active.count(ev.bundle) == 0)
                fail("swap of an inactive bundle");
            break;
        }
    }
}

int
WorkloadTrace::finalActiveJobs() const
{
    std::map<std::string, int> active;
    for (const WorkloadEvent& ev : events) {
        switch (ev.kind) {
        case EventKind::Arrive:
        case EventKind::Swap:
            active[ev.bundle] = ev.jobs;
            break;
        case EventKind::Depart:
            active.erase(ev.bundle);
            break;
        }
    }
    int total = 0;
    for (const auto& [name, jobs] : active)
        total += jobs;
    return total;
}

std::string
WorkloadTrace::toText() const
{
    std::ostringstream os;
    os << kHeader << '\n' << base.toText();
    for (const WorkloadEvent& ev : events)
        os << "event=" << ev.toText() << '\n';
    return os.str();
}

WorkloadTrace
WorkloadTrace::fromText(const std::string& text)
{
    // The first data line (comments/blanks allowed above, so trace
    // files can open with a usage banner) must be the exact header.
    size_t pos = 0;
    bool found = false;
    while (!found && pos <= text.size()) {
        size_t nl = text.find('\n', pos);
        std::string line = api::textio::trim(
            text.substr(pos, (nl == std::string::npos ? text.size() : nl) -
                                 pos));
        pos = (nl == std::string::npos) ? text.size() + 1 : nl + 1;
        if (line.empty() || line[0] == '#')
            continue;
        if (line != kHeader)
            throw std::invalid_argument(
                "WorkloadTrace: missing '" + std::string(kHeader) +
                "' header");
        found = true;
    }
    if (!found)
        throw std::invalid_argument(
            "WorkloadTrace: missing '" + std::string(kHeader) +
            "' header");
    pos = std::min(pos, text.size());
    WorkloadTrace trace;
    api::textio::forEachKeyValue(
        text.substr(pos),
        [&](const std::string& k, const std::string& v) {
            if (k == "event")
                trace.events.push_back(WorkloadEvent::fromText(v));
            else if (!trace.base.applyKey(k, v))
                throw std::invalid_argument(
                    "WorkloadTrace: unknown key '" + k + "'");
        });
    trace.validate();
    return trace;
}

void
WorkloadTrace::save(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace file '" + path + "'");
    out << toText();
    if (!out)
        throw std::runtime_error("error writing trace file '" + path +
                                 "'");
}

WorkloadTrace
WorkloadTrace::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read trace file '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromText(buf.str());
}

}  // namespace magma::dyn

#include "dyn/trace.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "api/textio.h"

namespace magma::dyn {

namespace {

constexpr std::string_view kHeader = "magma-workload-trace v1";

/** The shortest event line, newline included: no trace holds more
 * events than its length over this. */
constexpr size_t kShortestEventLine =
    sizeof("event=t=0 kind=depart name=x");

constexpr std::string_view
kindText(EventKind k)
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

/** WorkloadEvent::fromText on a view into the trace text. */
WorkloadEvent
parseEvent(std::string_view line)
{
    // `name=` terminates tokenization and captures the rest of the line
    // (bundle names may contain spaces and '='); every token before it
    // is a space-separated key=value pair.
    WorkloadEvent ev;
    bool have_t = false, have_kind = false, have_name = false;
    bool have_jobs = false, have_task = false, have_seed = false;
    auto reject = [&](const std::string& what) {
        throw std::invalid_argument("event: " + what + "'" +
                                    std::string(line) + "'");
    };
    size_t pos = 0;
    while (pos < line.size()) {
        while (pos < line.size() && line[pos] == ' ')
            ++pos;
        if (pos >= line.size())
            break;
        std::string_view rest = line.substr(pos);
        if (rest.starts_with("name=")) {
            ev.bundle = rest.substr(5);
            have_name = true;
            break;
        }
        size_t sp = rest.find(' ');
        std::string_view token = rest.substr(0, sp);
        pos = (sp == std::string_view::npos) ? line.size() : pos + sp + 1;
        size_t eq = token.find('=');
        if (eq == std::string_view::npos)
            reject("bad token '" + std::string(token) + "' in ");
        std::string_view key = token.substr(0, eq);
        std::string_view value = token.substr(eq + 1);
        if (key == "t") {
            ev.timeSeconds = common::parseDouble("event t", value);
            have_t = true;
        } else if (key == "kind") {
            ev.kind = eventKindFromName(value);
            have_kind = true;
        } else if (key == "jobs") {
            ev.jobs = common::parseNumber<int>("event jobs", value);
            have_jobs = true;
        } else if (key == "task") {
            ev.task = dnn::taskTypeFromName(value);
            have_task = true;
        } else if (key == "seed") {
            ev.seed = common::parseNumber<uint64_t>("event seed", value);
            have_seed = true;
        } else {
            reject("unknown key '" + std::string(key) + "' in ");
        }
    }
    if (!have_t || !have_kind || !have_name)
        reject("t=, kind= and trailing name= are required: ");
    if (!validBundleName(ev.bundle))
        reject("bad bundle name in ");
    bool recipe = ev.kind != EventKind::Depart;
    if (recipe && !(have_jobs && have_task && have_seed))
        reject("arrive/swap need jobs=, task= and seed=: ");
    if (!recipe && (have_jobs || have_task || have_seed))
        reject("depart carries no generation recipe: ");
    return ev;
}

}  // namespace

std::string
eventKindName(EventKind k)
{
    return std::string(kindText(k));
}

EventKind
eventKindFromName(std::string_view name)
{
    for (EventKind k :
         {EventKind::Arrive, EventKind::Depart, EventKind::Swap})
        if (kindText(k) == name)
            return k;
    throw std::invalid_argument("unknown event kind '" + std::string(name) +
                                "' (arrive|depart|swap)");
}

bool
validBundleName(std::string_view name)
{
    if (name.empty())
        return false;
    if (name.find('\n') != std::string_view::npos ||
        name.find('\r') != std::string_view::npos)
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
    return parseEvent(line);
}

void
WorkloadTrace::validate() const
{
    double prev_t = 0.0;
    // Views into `events`, which outlives the set; lookups only.
    std::unordered_set<std::string_view> live;
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
            if (!live.insert(ev.bundle).second)
                fail("arrive of an already-active bundle");
            break;
        case EventKind::Depart:
            if (live.erase(ev.bundle) == 0)
                fail("depart of an inactive bundle");
            break;
        case EventKind::Swap:
            if (ev.jobs <= 0)
                fail("swap needs jobs > 0");
            if (!live.contains(ev.bundle))
                fail("swap of an inactive bundle");
            break;
        }
    }
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
    std::string_view body = text;
    for (;;) {
        if (body.empty())
            throw std::invalid_argument("WorkloadTrace: missing '" +
                                        std::string(kHeader) + "' header");
        size_t nl = body.find('\n');
        std::string_view line = api::textio::trim(body.substr(0, nl));
        body.remove_prefix(nl == std::string_view::npos ? body.size()
                                                        : nl + 1);
        if (line.empty() || line[0] == '#')
            continue;
        if (line != kHeader)
            throw std::invalid_argument("WorkloadTrace: missing '" +
                                        std::string(kHeader) + "' header");
        break;
    }
    WorkloadTrace trace;
    const auto lines =
        static_cast<size_t>(std::count(body.begin(), body.end(), '\n')) + 1;
    trace.events.reserve(std::min(lines, body.size() / kShortestEventLine));
    api::textio::forEachKeyValue(
        body, [&](std::string_view k, std::string_view v) {
            if (k == "event")
                trace.events.push_back(parseEvent(v));
            else if (!trace.base.applyKey(k, v))
                throw std::invalid_argument(
                    "WorkloadTrace: unknown key '" + std::string(k) + "'");
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
    std::string text;
    std::error_code size_error;
    const auto size = std::filesystem::file_size(path, size_error);
    if (!size_error)
        text.reserve(size);
    char chunk[1 << 16];
    while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0)
        text.append(chunk, static_cast<size_t>(in.gcount()));
    return fromText(text);
}

}  // namespace magma::dyn

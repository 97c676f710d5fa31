#ifndef MAGMA_DYN_TRACE_H_
#define MAGMA_DYN_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/spec.h"
#include "dnn/model.h"

namespace magma::dyn {

/**
 * Kinds of timed workload events (the MARS-style adaptive scenario the
 * ROADMAP's "Dynamic workloads" item names): job bundles Arrive into
 * the active set, Depart from it, or are Swapped for a re-generated
 * bundle (model hot-swapping: same slot, new jobs).
 */
enum class EventKind { Arrive, Depart, Swap };

/** Event-kind name ("arrive", "depart", "swap"). */
std::string eventKindName(EventKind k);

/** Parse an eventKindName(); throws std::invalid_argument. */
EventKind eventKindFromName(std::string_view name);

/**
 * One timed workload event over a named job bundle.
 *
 * Arrive and Swap carry a generation recipe (task, jobs, seed) rather
 * than explicit job lists: the bundle's jobs are drawn by
 * dnn::WorkloadGenerator(seed).makeGroup(task, jobs), which keeps trace
 * files tiny, portable and exactly reproducible — the same discipline
 * ProblemSpec::workloadSeed established.
 *
 * Text form (one line, the value of a `event=` key in WorkloadTrace):
 *   t=<%.17g seconds> kind=arrive jobs=<n> task=<Task> seed=<u64> \
 *       name=<bundle>
 *   t=<...> kind=depart name=<bundle>
 * `name=` is always the LAST token and captures the rest of the line,
 * so bundle names may contain spaces, '=' and any other printable
 * characters; leading/trailing whitespace and newlines are rejected
 * (they cannot survive the trimmed key=value round-trip). Each number
 * is one whole std::from_chars token of its field's type
 * (common::parseNumber), so `jobs=4294967297` throws instead of
 * wrapping to 1.
 */
struct WorkloadEvent {
    double timeSeconds = 0.0;
    EventKind kind = EventKind::Arrive;
    std::string bundle;
    // -- generation recipe (Arrive/Swap; ignored by Depart) -------------
    dnn::TaskType task = dnn::TaskType::Mix;
    int jobs = 0;
    uint64_t seed = 1;

    std::string toText() const;
    /** Exact inverse of toText(); throws std::invalid_argument. */
    static WorkloadEvent fromText(const std::string& line);

    bool operator==(const WorkloadEvent&) const = default;
};

/** Whether `name` is a legal bundle name (non-empty, no newlines, no
 * leading/trailing whitespace — see WorkloadEvent's text form). */
bool validBundleName(std::string_view name);

/**
 * A timed workload trace: the dynamic-scenario artifact src/dyn/ replays
 * (the input of EventEngine and the `m3e_dyn --trace` CLI).
 *
 * `base` is an api::ProblemSpec describing everything that does NOT
 * change over the timeline — platform setting, BW regime, allocation
 * policy (its task/group_size/workload_seed keys are carried for
 * round-trip fidelity but the active job set comes from the events).
 * `events` is the timeline, times non-decreasing.
 *
 * Text form ("magma-workload-trace v1" header, the ProblemSpec block,
 * then one `event=` line per event in order) round-trips bitwise —
 * fromText(toText(t)) == t — like every persistent artifact in the
 * repo, and validate() enforces the event-order invariants: finite
 * non-decreasing times, positive job counts, no Arrive over a live
 * bundle, no Depart/Swap of a dead one.
 */
struct WorkloadTrace {
    api::ProblemSpec base;
    std::vector<WorkloadEvent> events;

    /**
     * Throws std::invalid_argument when the timeline is inconsistent:
     * negative/non-finite or decreasing times, bad bundle names,
     * jobs <= 0 on Arrive/Swap, Arrive of an already-active bundle, or
     * Depart/Swap of an inactive one.
     */
    void validate() const;

    std::string toText() const;
    /** Exact inverse of toText(); validates; throws
     * std::invalid_argument. */
    static WorkloadTrace fromText(const std::string& text);

    /** Write toText() to `path`; throws std::runtime_error on failure. */
    void save(const std::string& path) const;
    /** Parse a save()d file; throws std::runtime_error if unreadable. */
    static WorkloadTrace load(const std::string& path);

    bool operator==(const WorkloadTrace&) const = default;
};

}  // namespace magma::dyn

#endif  // MAGMA_DYN_TRACE_H_

#ifndef MAGMA_OBS_PROFILER_H_
#define MAGMA_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace magma::obs {

/**
 * One merged profile-tree node flattened to a row: `path` is the
 * '/'-joined chain of obs::Scope names from the root ("opt.search/
 * opt.generation/exec.eval.batch"), `totalSeconds` is inclusive wall
 * time, `selfSeconds` is exclusive (total minus the time attributed to
 * child scopes). Rows come out in deterministic depth-first order with
 * name-sorted siblings, so two reports over the same call shapes list
 * the same paths in the same order.
 */
struct ProfileRow {
    std::string path;
    int64_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
};

/**
 * Scoped hierarchical wall-clock profiler: obs::Scope sites push a
 * frame on the calling thread's stack on entry and fold the elapsed
 * time into that thread's scope tree on exit. report() merges every
 * thread's tree (non-destructively) into one self/total/count tree.
 *
 * Off by default: scopes read the level once at construction
 * (MAGMA_METRICS=profile turns it on) and cost a single branch when
 * off. Like every obs layer, profiling only OBSERVES — search results
 * are bitwise identical whether it is on or off, which the off-vs-
 * profile parity test in tests/test_obs.cc asserts.
 *
 * Threading: each thread owns its state (registered the same way
 * Tracer's rings are, via thread_local shared_ptr so trees survive
 * thread exit); enter/exit lock only the owning thread's mutex, which
 * is uncontended except while a report() walk is in flight.
 */
class Profiler {
  public:
    Profiler() = default;
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /**
     * Merge every thread's tree and flatten: depth-first, siblings
     * name-sorted. Non-destructive (RunReport captures metrics before
     * --metrics-out does; both see the full profile).
     */
    std::vector<ProfileRow> rows() const;

    /**
     * Deterministic indented text tree of rows() (two spaces per
     * depth), one "name  count=N  total=Xs  self=Xs" line per node.
     * Values are wall-clock and vary run to run; the structure and
     * ordering do not.
     */
    std::string reportText() const;

    /** Drop every thread's tree (tests; between bench repetitions). */
    void reset();

    static Profiler& global();

  private:
    friend class Scope;

    /** One scope-tree node; children keyed (and ordered) by name. */
    struct Node {
        int64_t count = 0;
        double totalSeconds = 0.0;
        double childSeconds = 0.0;
        std::map<std::string, std::unique_ptr<Node>> children;
    };

    /** Per-thread frame stack + tree root. */
    struct ThreadState {
        std::mutex mu;
        Node root;
        std::vector<Node*> stack;  // open frames; back() is current
    };

    ThreadState& threadState();

    static void enter(ThreadState& st, const char* name);
    static void exit(ThreadState& st, double elapsedSeconds);

    mutable std::mutex mu_;  // guards states_ registration
    std::vector<std::shared_ptr<ThreadState>> states_;
};

}  // namespace magma::obs

#endif  // MAGMA_OBS_PROFILER_H_

// Shared plumbing of the end-to-end benchmark: arguments, the seeded input
// generator, span recording and host probes. Each
// workload lives in its own translation unit and returns an Outcome.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Args {
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string outDir = ".";  ///< where the traced run writes its spans
};

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Keeps the compiler from discarding a value a timed loop computed. */
template <typename T>
inline void
keep(const T& v)
{
    asm volatile("" ::"g"(&v) : "memory");
}

inline double
nsToMs(int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

/**
 * splitmix64: the benchmark's own input generator, so the inputs a seed
 * names do not change when the program's RNG does.
 */
class InputRng {
  public:
    explicit InputRng(uint64_t seed) : state_(seed) {}

    uint64_t next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    /** Uniform in [0, n). */
    int below(int n) { return static_cast<int>(next() % static_cast<uint64_t>(n)); }

  private:
    uint64_t state_;
};

/** A derived seed for stream `k` of a run seeded with `seed`. */
inline uint64_t
subSeed(uint64_t seed, uint64_t k)
{
    return InputRng(seed * 0x100000001b3ULL + k).next();
}

/** Spans of the traced run, kept in memory and written when it ends. */
class SpanLog {
  public:
    /** Record a finished span; returns its index (a parent handle). */
    int add(std::string name, int64_t start_ns, int64_t end_ns,
            int parent, int64_t op, bool replayed = false)
    {
        spans_.push_back(
            Span{std::move(name), start_ns, end_ns, parent, op, replayed});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Time `f()` as a span; returns its duration in ns. */
    template <typename F>
    int64_t time(const char* name, int parent, int64_t op, bool replayed,
                 F&& f)
    {
        int64_t t0 = nowNs();
        f();
        int64_t t1 = nowNs();
        add(name, t0, t1, parent, op, replayed);
        return t1 - t0;
    }

    const std::vector<Span>& spans() const { return spans_; }

    /** Write the spans as a JSON array; returns false on I/O failure. */
    bool write(const std::string& path) const;

  private:
    std::vector<Span> spans_;
};

/** Metric values of one run plus its operation accounting. */
struct Outcome {
    int64_t attempted = 0;
    int64_t failed = 0;  ///< threw, shed, or failed the correctness check
    std::map<std::string, double> metrics;
    /** Human-readable lines (sample counts, digests) printed before the
     * result so a reader can audit it. */
    std::vector<std::string> notes;
    SpanLog spans;  ///< filled by the traced run only
};

/** Wall time of a fixed register-only loop (host-speed probe). */
double hostSpinMs();
/** Peak resident set of this process in MB. */
double peakRssMb();

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupReps = 9;

/**
 * Time `setup()` once, appending its wall time in seconds, and return
 * what it built. `setup()` does the work a user pays before the first
 * operation can be issued.
 */
template <typename F>
auto
timeSetup(std::vector<double>& seconds, F&& setup)
{
    int64_t t0 = nowNs();
    auto built = setup();
    seconds.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    return built;
}

/**
 * Whether a further set-up repetition is due before operation `i` of
 * `ops`, so that kSetupReps repetitions spread evenly over the run. A
 * burst of back-to-back set-ups samples the host at one moment, and on a
 * shared virtual machine its speed for allocation-heavy work moves by a
 * third from one second to the next; spread out, the repetitions see the
 * same mix of moments as the operations do.
 */
inline bool
setupRepDue(int i, int ops, std::size_t done)
{
    const int stride = std::max(1, ops / kSetupReps);
    return i > 0 && i % stride == 0 &&
           done < static_cast<std::size_t>(kSetupReps);
}

/** p50/p90 per-op latency, throughput and setup into `out.metrics`. */
void putLatencyMetrics(Outcome& out, const std::vector<double>& op_ms,
                       double measured_seconds,
                       const std::vector<double>& setup_seconds);

std::string formatDouble(double v);

Outcome runSearch(const Args& args);
Outcome runDyn(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

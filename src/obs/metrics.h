#ifndef MAGMA_OBS_METRICS_H_
#define MAGMA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace magma::obs {

/**
 * Process-wide instrumentation level (the MAGMA_METRICS env var), in
 * increasing order of what records:
 *   Off      — instrumentation sites record nothing at all,
 *   Counters — counters/gauges/histograms record (the cheap always-on
 *              default; relaxed atomics on the hot path),
 *   Trace    — Counters plus the spans of obs::Scope span sites in the
 *              per-thread trace rings (adds clock reads per span),
 *   Profile  — Trace plus every obs::Scope as a node of the
 *              hierarchical obs::Profiler (adds clock reads per scope).
 * The level only gates what is OBSERVED: search results are bitwise
 * identical at every level (instrumentation never touches RNG streams,
 * fitness math or scheduling decisions — CI asserts off-vs-trace CLI
 * output equality).
 */
enum class MetricsLevel { Off, Counters, Trace, Profile };

/** Level name ("off", "counters", "trace", "profile"). */
std::string metricsLevelName(MetricsLevel level);

/** Parse a metricsLevelName(); throws std::invalid_argument. */
MetricsLevel metricsLevelFromName(const std::string& name);

/**
 * Current process level: first call reads MAGMA_METRICS (unset or
 * unparsable selects Counters), later calls return the cached — or
 * setMetricsLevel()-overridden — value. Lock-free after initialization.
 */
MetricsLevel metricsLevel();

/** Override the process level (tests, CLIs with an explicit flag). */
void setMetricsLevel(MetricsLevel level);

/** True when counters/gauges/histograms should record. */
inline bool
countersOn()
{
    return metricsLevel() != MetricsLevel::Off;
}

/** True when span tracing should record (Trace and above). */
inline bool
traceOn()
{
    return metricsLevel() >= MetricsLevel::Trace;
}

/** True when obs::Scope sites should feed the profiler. */
inline bool
profileOn()
{
    return metricsLevel() == MetricsLevel::Profile;
}

/**
 * Seconds on the one clock every obs sink stamps with: steady, epoch at
 * the first call. Spans, profile nodes and the pool's batch histogram
 * all read it.
 */
double nowSeconds();

/**
 * Monotonic event counter. Hot path is one relaxed atomic add; callers
 * hold the reference returned by MetricsRegistry::counter() so the
 * registry mutex is paid once per site, not per event.
 *
 * Memory order (see docs/concurrency.md): relaxed is correct because a
 * Counter publishes nothing but its own value — no reader uses it to
 * conclude that some other memory is initialized or some phase is over.
 * Readers that need exactness (tests, end-of-run snapshots) already
 * synchronize through thread join or the registry mutex.
 */
class Counter {
  public:
    void add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    int64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

/**
 * Last-write-wins instantaneous value (queue depths, rates, sizes).
 * Memory order: relaxed for the same reason as Counter — the value is
 * standalone telemetry; nothing is ordered against it.
 */
class Gauge {
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/** Sparse, order-preserving (index, count) pairs of occupied buckets. */
using HistogramBuckets = std::vector<std::pair<int32_t, uint64_t>>;

/**
 * Log-bucketed HDR-style histogram of positive doubles (latencies,
 * sizes). Layout: each power-of-two octave is split into kSubBuckets
 * linear sub-buckets, so any recorded value lands in a bucket whose
 * width is <= 1/kSubBuckets of its magnitude — quantiles read back with
 * <= ~3.2% relative error over the whole ~[1e-19, 1e19] dynamic range,
 * with min and max tracked exactly. Values outside the range saturate
 * into the bottom/top bucket (still counted; the exact min/max are what
 * quantile() returns at the extremes, so saturation never fabricates a
 * value). Non-positive and non-finite values count into the dedicated
 * underflow bucket 0.
 *
 * Thread-safety: record() is lock-free — one relaxed atomic add on the
 * bucket plus relaxed count/sum and CAS min/max updates. Snapshots taken
 * while writers are active are internally consistent per-bucket but may
 * trail in-flight records, which is fine for telemetry.
 *
 * Memory order (audited; see docs/concurrency.md): every access is
 * relaxed because each field is independently meaningful telemetry —
 * the histogram publishes no pointer or flag another thread would
 * dereference on the strength of these values, so no acquire/release
 * edge is needed. A concurrent reader can observe count_ ahead of the
 * matching bucket add (or vice versa); that skew is bounded by the
 * number of in-flight record() calls and collapses to zero at every
 * real read point (thread join or registry-mutex snapshot). reset() is
 * the one non-concurrent-safe member and is documented as such.
 */
class Histogram {
  public:
    /** Sub-buckets per octave; power of two so indexing is shift/mask. */
    static constexpr int kSubBuckets = 16;
    /** frexp exponent range covered before saturation. */
    static constexpr int kMinExp = -64;
    static constexpr int kMaxExp = 64;
    /** Bucket 0 counts non-positive/non-finite values. */
    static constexpr int kNumBuckets =
        1 + (kMaxExp - kMinExp) * kSubBuckets;

    Histogram();

    /** Record one value. Lock-free. */
    void record(double v);

    int64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    /** Exact smallest/largest recorded value; 0 when empty. */
    double min() const;
    double max() const;
    double mean() const;

    /**
     * Value at quantile q in [0, 1]: exact min at the bottom, exact max
     * at the top and in the saturated top bucket, bucket-midpoint
     * (<= ~3.2% relative error) in between. 0 when empty.
     */
    double quantile(double q) const;

    /** Drop every sample. Not safe against concurrent record(). */
    void reset();

    /** Occupied buckets, ascending by index. */
    HistogramBuckets buckets() const;

    /** Bucket index a value lands in (also used by snapshot parsing). */
    static int bucketIndex(double v);
    /** Midpoint representative of a bucket (inverse-ish of bucketIndex). */
    static double bucketValue(int index);

    /**
     * The quantile walk shared with HistogramSnap: value at quantile q
     * of `buckets` given exact count/min/max. Keeping one definition
     * makes live and round-tripped snapshots answer identically.
     */
    static double quantileOf(const HistogramBuckets& buckets, int64_t count,
                             double min, double max, double q);

  private:
    std::atomic<uint64_t> buckets_[kNumBuckets];
    std::atomic<int64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_;
    std::atomic<double> max_;
};

/**
 * Process-wide named-metric registry (the tentpole of src/obs/): one
 * place every subsystem publishes counters, gauges and histograms, and
 * one place SnapshotWriter drains them from. Lookup takes the registry
 * mutex; the returned references are stable for the registry's lifetime,
 * so instrumentation sites resolve a name once and then run lock-free.
 *
 * Names are dotted paths ("exec.eval.candidates",
 * "serve.wait_seconds.tenant-0"); each kind has its own namespace.
 *
 * Gauge providers are pull-model callbacks run by snapshot() right
 * before reading, so subsystems with their own internal counters (the
 * exec::CostCache) publish point-in-time gauges without a write per
 * event.
 *
 * MetricsRegistry::global() is the process registry; instantiating one
 * locally isolates a component's metrics (bench_serve_throughput keys
 * one per trace replay so configurations don't bleed into each other).
 */
class MetricsRegistry {
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /** Look up without creating; null when the name is absent. */
    const Counter* findCounter(const std::string& name) const;
    const Gauge* findGauge(const std::string& name) const;
    const Histogram* findHistogram(const std::string& name) const;

    /** Run fn(registry) before every snapshot()/visit() read. */
    void addGaugeProvider(std::function<void(MetricsRegistry&)> fn);

    /**
     * Run the gauge providers, then visit every metric (name-sorted per
     * kind) — the substrate of SnapshotWriter::capture.
     */
    void visit(
        const std::function<void(const std::string&, const Counter&)>& c,
        const std::function<void(const std::string&, const Gauge&)>& g,
        const std::function<void(const std::string&, const Histogram&)>& h);

    /** Zero every metric (keeps registrations and providers). */
    void reset();

    static MetricsRegistry& global();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::vector<std::function<void(MetricsRegistry&)>> providers_;
};

}  // namespace magma::obs

#endif  // MAGMA_OBS_METRICS_H_

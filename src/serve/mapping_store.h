#ifndef MAGMA_SERVE_MAPPING_STORE_H_
#define MAGMA_SERVE_MAPPING_STORE_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dnn/workload.h"
#include "sched/mapping.h"
#include "serve/fingerprint.h"

namespace magma::serve {

/** One remembered solution: the mapping, the group it solved (enabling
 * job-matched transfer), and its provenance. */
struct StoreEntry {
    std::string key;     ///< fine fingerprint
    std::string coarse;  ///< coarse fingerprint tier
    dnn::TaskType task = dnn::TaskType::Mix;
    sched::Mapping mapping;
    dnn::JobGroup group;
    double fitness = 0.0;
    int64_t samplesInvested = 0;  ///< search samples spent on this solution
};

/** Aggregate store counters, surfaced by MappingStore::stats(). */
struct StoreStats {
    int64_t lookups = 0;
    int64_t exactHits = 0;   ///< fine-fingerprint hits
    int64_t coarseHits = 0;  ///< task+platform fallback hits
    int64_t misses = 0;
    int64_t inserts = 0;       ///< new keys written
    int64_t improvements = 0;  ///< existing keys replaced by better fitness
    int64_t rejects = 0;       ///< write-backs losing to the incumbent
    int64_t evictions = 0;     ///< LRU evictions past capacity
    int64_t entries = 0;       ///< current size
    /** Log appends that did not reach the disk whole. After one, the log
     * takes no records until compact() rewrites it. */
    int64_t logAppendFailures = 0;
    /** Failed appends whose partial record could not be cut off: the log
     * then ends in a torn record, which replay stops at. */
    int64_t logBroken = 0;
    /** Transfer quality: mean of (Trf-0-ep fitness / refined fitness)
     * across warm requests that reported it — 1.0 means transferred
     * solutions needed no refinement at all. */
    double transferQualitySum = 0.0;
    int64_t transferQualityCount = 0;

    double hitRate() const
    {
        return lookups ? static_cast<double>(exactHits + coarseHits) /
                             lookups
                       : 0.0;
    }
    double meanTransferQuality() const
    {
        return transferQualityCount
                   ? transferQualitySum / transferQualityCount
                   : 0.0;
    }
};

/**
 * Fingerprint-keyed warm-start store (Section V-C) behind the
 * MappingService and the dyn event engine; opt::transfer::seedsFromStored
 * turns a hit into seeds:
 *
 *  - keyed by workload Fingerprint with a two-tier lookup: exact fine key
 *    first, then the best entry sharing the coarse (task + platform) key;
 *  - bounded: at most `capacity` entries, least-recently-used evicted;
 *  - one key-ordered map under one mutex: a served request does one
 *    lookup and one write-back next to a search that takes
 *    milliseconds, so concurrent worker lanes share a single lock;
 *  - persistent: save()/load() stream a line-based snapshot format
 *    ("magma-store-snapshot v1", mappings via Mapping::toText, bitwise
 *    exact) so warm-start knowledge survives process restarts;
 *  - crash-safe: an optional append-log ("magma-store-log v1") records
 *    every put/evict with an fsync per record, in the order they were
 *    applied. recover() loads the last snapshot and replays the log,
 *    tolerating a torn final record, so a kill -9 mid-write loses at
 *    most the record being written. compact() folds the log back into
 *    the snapshot. See docs/formats.md.
 *
 * Write-backs keep the better solution per key, so concurrent tenants of
 * one workload type compound each other's knowledge.
 */
class MappingStore {
  public:
    explicit MappingStore(int capacity = 64);
    ~MappingStore();

    /** A lookup hit: a copy of the entry plus which tier matched. */
    struct Hit {
        StoreEntry entry;
        bool exact = false;
    };

    /**
     * Two-tier lookup. Among coarse candidates the highest-fitness entry
     * wins (ties go to the lowest key), so the result depends only on
     * store content. Bumps the hit's LRU clock. Takes only `mu_`, so it
     * never waits on a log fsync.
     */
    std::optional<Hit> lookup(const Fingerprint& fp);

    /**
     * Insert or improve the entry for `fp.key`. An existing entry is
     * replaced only when `fitness` beats it (first-writer wins ties), so
     * racing write-backs converge on the best known solution. Returns
     * true when the store changed. May evict the LRU entry past capacity;
     * the put and its evictions are logged in one critical section, so
     * the log lists them in the order they were applied.
     */
    bool update(const Fingerprint& fp, dnn::TaskType task,
                const sched::Mapping& best, const dnn::JobGroup& group,
                double fitness, int64_t samples_invested);

    /** Report a warm request's Trf-0-ep / refined fitness ratio. */
    void recordTransferQuality(double trf0_over_refined);

    StoreStats stats() const;
    int64_t size() const;
    int capacity() const { return capacity_; }
    void clear();

    /** Write every entry (sorted by key, deterministic) to the stream. */
    void save(std::ostream& os) const;

    /**
     * Replace the store content with the stream's entries. Atomic:
     * throws std::invalid_argument on a malformed stream and leaves the
     * current content untouched. Counters other than `entries` are not
     * restored — they describe the process, not the knowledge. Entries
     * are reinserted in stream order (key order for a saved snapshot)
     * under the usual LRU bound. Nothing is appended to an attached log.
     */
    void load(std::istream& is);
    /** Load from a file; returns false when the file cannot be opened. */
    bool loadFile(const std::string& path);

    // ----------------------------------------- crash-safe persistence --
    //
    // Lifecycle: recover(snapshot, log) -> openLog(log) -> compact(snapshot)
    // at startup, then every update()/eviction appends an fsync'd record;
    // compact(snapshot) at shutdown (or periodically) folds the log away.
    // Attach the log only via this sequence: appending behind a torn tail
    // would strand the new records past recovery's stop point.

    /**
     * Open (or create) the append-log at `path`. An empty or new file
     * gets the "magma-store-log v1" header. Subsequent update() calls
     * and LRU evictions append one fsync'd record each. Returns false
     * when the file cannot be opened or its header not written.
     *
     * An append that fails (short write, ENOSPC, fsync error) is cut
     * back to the end of the last whole record, and the log takes no
     * more records until compact(): a record missing from the middle
     * would make replay apply every later one to a state the live store
     * never had. The log on disk thus always replays to a prefix of the
     * live history. StoreStats counts the failures.
     */
    bool openLog(const std::string& path);
    void closeLog();

    /**
     * Fold the current content into `snapshot_path` (written to a temp
     * file, fsync'd, renamed into place and the directory fsync'd —
     * readers never observe a torn snapshot) and truncate the open log
     * back to its header, which resumes a log stopped by a failed
     * append. Safe to call with no log attached. Returns false on I/O
     * failure.
     */
    bool compact(const std::string& snapshot_path);

    /**
     * Crash recovery: load `snapshot_path` (if present), then replay
     * `log_path` (if present). Puts replay through the better-fitness-
     * wins rule; entries leave only on `evict` records, so the result
     * is the content the live store had, whatever its LRU clocks were.
     * Capacity is enforced once at the end, which covers a torn
     * trailing evict. A torn final record — the kill -9 case — ends the
     * replay cleanly; every fully written record is recovered. A
     * malformed snapshot or a complete-but-wrong log header throws
     * std::invalid_argument. Returns the number of log records applied.
     */
    int64_t recover(const std::string& snapshot_path,
                    const std::string& log_path);

    /** Records appended to the log since openLog()/compact(). */
    int64_t logRecords() const;
    /** Whether an attached log takes no records until compact(). */
    bool logStopped() const;

  private:
    struct Slot {
        StoreEntry entry;
        uint64_t lastUsed = 0;
    };

    /** Apply one put (better fitness wins) and count it; true when the
     * store changed. Caller holds mu_. */
    bool putLocked(StoreEntry e);
    /** Evict LRU entries until size <= capacity; returns the victims'
     * keys in eviction order. Caller holds mu_. */
    std::vector<std::string> evictLocked();
    /** Append one raw record and fsync it; on failure cut it back and
     * stop the log. Caller holds log_mu_. */
    void appendRecordLocked(const std::string& record);
    /** Truncate the log to its header and fsync; it then takes records
     * again. On failure the log is left empty and stopped. Caller holds
     * log_mu_. */
    bool restartLogLocked();
    /** Replay buffered log text; returns records applied. */
    int64_t replayLog(const std::string& text);

    const int capacity_;
    /**
     * Lock order: log_mu_ before mu_, never the reverse. update() and
     * compact() take both; lookup() and the other readers take only
     * mu_. See docs/concurrency.md.
     */
    mutable std::mutex log_mu_;
    mutable std::mutex mu_;
    // Guarded by mu_. Key-ordered, so every scan (coarse tier, LRU
    // victim, save) visits entries in the same order for the same
    // content.
    std::map<std::string, Slot> map_;
    StoreStats stats_;
    uint64_t clock_ = 0;  ///< LRU tick source
    // Append-log state, guarded by log_mu_.
    int log_fd_ = -1;              ///< O_APPEND descriptor, -1 when none
    int64_t log_end_ = 0;          ///< bytes up to the last whole record
    bool log_stopped_ = false;     ///< an append failed; until compact()
    int64_t log_records_ = 0;
};

}  // namespace magma::serve

#endif  // MAGMA_SERVE_MAPPING_STORE_H_

#include "serve/mapping_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/textnum.h"
#include "dnn/model.h"

namespace magma::serve {
namespace {

dnn::LayerType
layerTypeFromName(const std::string& name)
{
    for (dnn::LayerType t :
         {dnn::LayerType::Conv2d, dnn::LayerType::DepthwiseConv2d,
          dnn::LayerType::PointwiseConv2d, dnn::LayerType::FullyConnected})
        if (dnn::layerTypeName(t) == name)
            return t;
    throw std::invalid_argument("MappingStore: unknown layer type '" +
                                name + "'");
}

/** FNV-1a 64-bit — the log-record payload checksum. */
uint64_t
fnv1a64(const std::string& s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
fnv1a64Hex(const std::string& s)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(s)));
    return buf;
}

/** Serialize one entry block ("entry" .. "end"), shared by the snapshot
 * writer and the log's put records. */
void
writeEntry(std::ostream& os, const StoreEntry& e)
{
    os << "entry\n";
    os << "key " << e.key << "\n";
    os << "coarse " << e.coarse << "\n";
    os << "task " << dnn::taskTypeName(e.task) << "\n";
    os << "fitness " << common::formatDouble(e.fitness) << "\n";
    os << "samples " << e.samplesInvested << "\n";
    os << "mapping " << e.mapping.toText() << "\n";
    os << "jobs " << e.group.size() << "\n";
    for (const dnn::Job& j : e.group.jobs) {
        const dnn::LayerShape& l = j.layer;
        os << "job " << j.id << " " << dnn::taskTypeName(j.task) << " "
           << dnn::layerTypeName(l.type) << " " << l.k << " " << l.c << " "
           << l.y << " " << l.x << " " << l.r << " " << l.s << " "
           << l.stride << " " << j.batch << " " << j.model << "\n";
    }
    os << "end\n";
}

/** Parse one entry block ("entry" .. "end"); throws std::invalid_argument
 * on any malformation. Shared by the snapshot loader and log replay. */
StoreEntry
parseEntry(std::istream& is)
{
    auto fail = [](const std::string& what) -> void {
        throw std::invalid_argument("MappingStore: " + what);
    };

    std::string line;
    if (!std::getline(is, line) || line != "entry")
        fail("expected 'entry'");

    StoreEntry e;
    int64_t jobs = 0;
    auto field = [&](const std::string& name) -> std::istringstream {
        if (!std::getline(is, line))
            fail("truncated entry");
        std::istringstream line_is(line);
        std::string tag;
        if (!(line_is >> tag) || tag != name)
            fail("expected '" + name + "' line, got '" + line + "'");
        return line_is;
    };

    if (!(field("key") >> e.key) || e.key.empty())
        fail("bad key");
    if (!(field("coarse") >> e.coarse) || e.coarse.empty())
        fail("bad coarse key");
    std::string task_name;
    if (!(field("task") >> task_name))
        fail("bad task");
    e.task = dnn::taskTypeFromName(task_name);
    if (!(field("fitness") >> e.fitness))
        fail("bad fitness");
    if (!(field("samples") >> e.samplesInvested))
        fail("bad samples");
    {
        auto line_is = field("mapping");
        std::string rest;
        std::getline(line_is, rest);
        e.mapping = sched::Mapping::fromText(rest);
    }
    if (!(field("jobs") >> jobs) || jobs < 0)
        fail("bad job count");
    e.group.task = e.task;
    // The jobs vector grows as job lines parse: a declared count is not
    // trusted with an allocation.
    for (int64_t j = 0; j < jobs; ++j) {
        auto line_is = field("job");
        dnn::Job job;
        std::string jtask, jtype;
        dnn::LayerShape& l = job.layer;
        if (!(line_is >> job.id >> jtask >> jtype >> l.k >> l.c >> l.y >>
              l.x >> l.r >> l.s >> l.stride >> job.batch))
            fail("bad job line '" + line + "'");
        job.task = dnn::taskTypeFromName(jtask);
        l.type = layerTypeFromName(jtype);
        std::getline(line_is >> std::ws, job.model);
        e.group.jobs.push_back(std::move(job));
    }
    if (!std::getline(is, line) || line != "end")
        fail("expected 'end'");
    return e;
}

constexpr const char* kLogHeader = "magma-store-log v1\n";

/** write() all `n` bytes, resuming after short writes and EINTR. */
bool
writeAll(int fd, const char* data, size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** fsync the directory holding `path`, so a rename into it is durable. */
bool
fsyncParentDir(const std::string& path)
{
    std::filesystem::path dir = std::filesystem::path(path).parent_path();
    int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    bool ok = ::fsync(fd) == 0;
    return ::close(fd) == 0 && ok;
}

}  // namespace

MappingStore::MappingStore(int capacity) : capacity_(std::max(1, capacity))
{}

MappingStore::~MappingStore() { closeLog(); }

std::optional<MappingStore::Hit>
MappingStore::lookup(const Fingerprint& fp)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.lookups;

    // Tier 1: exact fine-fingerprint hit.
    auto it = map_.find(fp.key);
    bool exact = it != map_.end();
    if (!exact) {
        // Tier 2: best entry sharing the coarse key. Key order plus a
        // strict `>` hands fitness ties to the lowest key.
        for (auto c = map_.begin(); c != map_.end(); ++c)
            if (c->second.entry.coarse == fp.coarse &&
                (it == map_.end() ||
                 c->second.entry.fitness > it->second.entry.fitness))
                it = c;
    }
    if (it == map_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++(exact ? stats_.exactHits : stats_.coarseHits);
    it->second.lastUsed = ++clock_;
    return Hit{it->second.entry, exact};
}

bool
MappingStore::putLocked(StoreEntry e)
{
    const uint64_t now = ++clock_;
    auto it = map_.find(e.key);
    if (it == map_.end()) {
        std::string key = e.key;
        map_.emplace(std::move(key), Slot{std::move(e), now});
        ++stats_.inserts;
        return true;
    }
    StoreEntry& cur = it->second.entry;
    it->second.lastUsed = now;
    cur.samplesInvested += e.samplesInvested;
    if (e.fitness > cur.fitness) {
        cur.mapping = std::move(e.mapping);
        cur.group = std::move(e.group);
        cur.fitness = e.fitness;
        ++stats_.improvements;
        return true;
    }
    ++stats_.rejects;
    return false;
}

std::vector<std::string>
MappingStore::evictLocked()
{
    std::vector<std::string> victims;
    while (static_cast<int64_t>(map_.size()) > capacity_) {
        // Ticks are unique under mu_, so the minimum is one entry.
        auto victim = map_.begin();
        for (auto it = map_.begin(); it != map_.end(); ++it)
            if (it->second.lastUsed < victim->second.lastUsed)
                victim = it;
        victims.push_back(victim->first);
        map_.erase(victim);
        ++stats_.evictions;
    }
    return victims;
}

bool
MappingStore::update(const Fingerprint& fp, dnn::TaskType task,
                     const sched::Mapping& best, const dnn::JobGroup& group,
                     double fitness, int64_t samples_invested)
{
    if (best.size() == 0)
        return false;  // an empty mapping carries no transferable knowledge
    StoreEntry e{fp.key,  fp.coarse, task,           best,
                 group,   fitness,   samples_invested};

    // One log_mu_ section covers the apply and the appends, so the log
    // lists records in application order. mu_ is dropped before the
    // fsyncs: lookups never wait on the disk.
    std::lock_guard<std::mutex> log_lk(log_mu_);
    std::string put_body;
    const bool logging = log_fd_ >= 0 && !log_stopped_;
    if (logging) {
        std::ostringstream payload;
        writeEntry(payload, e);
        put_body = payload.str();
    }
    bool changed;
    std::vector<std::string> evicted;
    {
        std::lock_guard<std::mutex> lk(mu_);
        changed = putLocked(std::move(e));
        evicted = evictLocked();
    }
    if (logging) {
        // Log the put as submitted (not the winner): replay re-runs the
        // same better-fitness-wins rule, and rejected write-backs still
        // replay their samplesInvested accumulation.
        appendRecordLocked("put " + std::to_string(put_body.size()) + " " +
                           fnv1a64Hex(put_body) + "\n" + put_body);
        for (const std::string& key : evicted)
            appendRecordLocked("evict " + key + "\n");
    }
    return changed;
}

void
MappingStore::recordTransferQuality(double trf0_over_refined)
{
    std::lock_guard<std::mutex> lk(mu_);
    stats_.transferQualitySum += trf0_over_refined;
    ++stats_.transferQualityCount;
}

StoreStats
MappingStore::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    StoreStats s = stats_;
    s.entries = static_cast<int64_t>(map_.size());
    return s;
}

int64_t
MappingStore::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<int64_t>(map_.size());
}

void
MappingStore::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    map_.clear();
    stats_ = StoreStats{};
}

// ------------------------------------------------------- persistence ---

void
MappingStore::save(std::ostream& os) const
{
    std::lock_guard<std::mutex> lk(mu_);
    os << "magma-store-snapshot v1 " << map_.size() << "\n";
    for (const auto& [key, slot] : map_)
        writeEntry(os, slot.entry);
}

void
MappingStore::load(std::istream& is)
{
    auto fail = [](const std::string& what) -> void {
        throw std::invalid_argument("MappingStore::load: " + what);
    };

    std::string line;
    if (!std::getline(is, line))
        fail("empty stream");
    std::istringstream header(line);
    std::string magic, version, count_text;
    if (!(header >> magic >> version >> count_text) ||
        magic != "magma-store-snapshot" || version != "v1")
        fail("bad header '" + line + "'");
    const size_t count =
        common::parseNumber<size_t>("MappingStore::load: count", count_text);

    // Parse the whole stream before touching the store, so a malformed
    // stream leaves the current content intact (atomic replace). The
    // vector grows as entries parse: the declared count is not trusted
    // with an allocation.
    std::vector<StoreEntry> parsed;
    for (size_t n = 0; n < count; ++n)
        parsed.push_back(parseEntry(is));

    std::lock_guard<std::mutex> lk(mu_);
    map_.clear();
    for (StoreEntry& e : parsed) {
        putLocked(std::move(e));
        evictLocked();
    }
    // Reloaded knowledge starts with fresh process counters.
    stats_ = StoreStats{};
}

bool
MappingStore::loadFile(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        return false;
    load(is);
    return true;
}

// -------------------------------------------------------- append-log ---

void
MappingStore::appendRecordLocked(const std::string& record)
{
    if (log_stopped_)
        return;  // an earlier record of this update failed
    if (writeAll(log_fd_, record.data(), record.size()) &&
        ::fsync(log_fd_) == 0) {
        log_end_ += static_cast<int64_t>(record.size());
        ++log_records_;
        return;
    }
    // Best effort: a full disk must not take serving down. Cut the
    // partial record off and stop logging until compact().
    log_stopped_ = true;
    const bool cut =
        ::ftruncate(log_fd_, log_end_) == 0 && ::fsync(log_fd_) == 0;
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.logAppendFailures;
    if (!cut)
        ++stats_.logBroken;
}

bool
MappingStore::restartLogLocked()
{
    const size_t n = std::strlen(kLogHeader);
    const bool ok = ::ftruncate(log_fd_, 0) == 0 &&
                    writeAll(log_fd_, kLogHeader, n) &&
                    ::fsync(log_fd_) == 0;
    // A torn header would make the next openLog() append behind it.
    if (!ok && ::ftruncate(log_fd_, 0) != 0) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.logBroken;
    }
    log_end_ = ok ? static_cast<int64_t>(n) : 0;
    log_records_ = 0;
    log_stopped_ = !ok;
    return ok;
}

bool
MappingStore::openLog(const std::string& path)
{
    std::lock_guard<std::mutex> lk(log_mu_);
    if (log_fd_ >= 0) {
        ::close(log_fd_);
        log_fd_ = -1;
    }
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                    0644);
    if (fd < 0)
        return false;
    const off_t size = ::lseek(fd, 0, SEEK_END);
    log_fd_ = fd;
    log_end_ = size;
    log_records_ = 0;
    log_stopped_ = false;
    if (size < 0 || (size == 0 && !restartLogLocked())) {
        ::close(fd);
        log_fd_ = -1;
        return false;
    }
    return true;
}

void
MappingStore::closeLog()
{
    std::lock_guard<std::mutex> lk(log_mu_);
    if (log_fd_ >= 0) {
        ::close(log_fd_);
        log_fd_ = -1;
    }
}

int64_t
MappingStore::logRecords() const
{
    std::lock_guard<std::mutex> lk(log_mu_);
    return log_records_;
}

bool
MappingStore::logStopped() const
{
    std::lock_guard<std::mutex> lk(log_mu_);
    return log_fd_ >= 0 && log_stopped_;
}

bool
MappingStore::compact(const std::string& snapshot_path)
{
    // Holding log_mu_ across the snapshot blocks concurrent updates, so
    // no put can slip between the fold and the truncation. save() takes
    // mu_ inside it: the log_mu_ -> mu_ order of the header.
    std::lock_guard<std::mutex> lk(log_mu_);

    std::ostringstream text;
    save(text);
    const std::string body = text.str();

    const std::string tmp = snapshot_path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    ok = std::fflush(f) == 0 && ok;
    ok = ::fsync(::fileno(f)) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok || std::rename(tmp.c_str(), snapshot_path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    // The rename is durable only once its directory is.
    if (!fsyncParentDir(snapshot_path))
        return false;

    // The snapshot now holds everything the log did: restart the log
    // from its header (O_APPEND writes follow the truncation).
    return log_fd_ < 0 || restartLogLocked();
}

int64_t
MappingStore::replayLog(const std::string& text)
{
    size_t pos = 0;
    // One framed record line; nullopt when no terminating newline is
    // left — the torn-tail signal that ends the replay.
    auto nextLine = [&]() -> std::optional<std::string> {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return std::nullopt;
        std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        return line;
    };

    if (text.empty())
        return 0;
    auto header = nextLine();
    if (!header)
        return 0;  // torn header: an empty log
    {
        std::istringstream hs(*header);
        std::string magic, version;
        if (!(hs >> magic >> version) || magic != "magma-store-log" ||
            version != "v1")
            throw std::invalid_argument(
                "MappingStore: bad log header '" + *header + "'");
    }

    // The log is an append-only journal: replay applies complete, valid
    // records in order and discards everything from the first torn or
    // invalid record on (the kill -9 contract covers the torn case).
    int64_t applied = 0;
    while (pos < text.size()) {
        auto rec = nextLine();
        if (!rec)
            break;
        std::istringstream rs(*rec);
        std::string kind;
        rs >> kind;
        if (kind == "put") {
            long long nbytes = 0;
            std::string checksum;
            if (!(rs >> nbytes >> checksum) || nbytes <= 0)
                break;
            if (pos + static_cast<size_t>(nbytes) > text.size())
                break;  // torn payload
            std::string body = text.substr(pos, nbytes);
            pos += static_cast<size_t>(nbytes);
            if (fnv1a64Hex(body) != checksum)
                break;
            StoreEntry e;
            try {
                std::istringstream body_is(body);
                e = parseEntry(body_is);
            } catch (const std::invalid_argument&) {
                break;
            }
            // No capacity pass here: entries leave only on the evict
            // records that follow, as they did in the live store.
            std::lock_guard<std::mutex> lk(mu_);
            putLocked(std::move(e));
            ++applied;
        } else if (kind == "evict") {
            std::string key;
            if (!(rs >> key) || key.empty())
                break;
            std::lock_guard<std::mutex> lk(mu_);
            map_.erase(key);
            ++applied;
        } else {
            break;
        }
    }
    return applied;
}

int64_t
MappingStore::recover(const std::string& snapshot_path,
                      const std::string& log_path)
{
    {
        std::ifstream is(snapshot_path);
        if (is)
            load(is);
        else
            clear();
    }

    int64_t applied = 0;
    std::ifstream lf(log_path, std::ios::binary);
    if (lf) {
        std::ostringstream buf;
        buf << lf.rdbuf();
        applied = replayLog(buf.str());
    }

    // One capacity pass covers a torn trailing evict record. Replay
    // perturbed the process counters; recovered knowledge starts them
    // fresh.
    std::lock_guard<std::mutex> lk(mu_);
    evictLocked();
    stats_ = StoreStats{};
    return applied;
}

}  // namespace magma::serve

#include "exec/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <utility>

#include "obs/scope.h"

namespace magma::exec {

int
ThreadPool::defaultThreads()
{
    // getenv is safe here: read before any pool thread starts, and
    // nothing in the library calls setenv.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("MAGMA_THREADS")) {
        // One whole decimal token in int's range; a sign, blanks or
        // trailing bytes fall through to the hardware default.
        const std::string_view text(env);
        int v = 0;
        const auto [end, ec] =
            std::from_chars(text.data(), text.data() + text.size(), v);
        if (ec == std::errc() && end == text.data() + text.size() && v > 0)
            return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads)
    : threads_(std::max(1, threads > 0 ? threads : defaultThreads()))
{
    workers_.reserve(threads_ - 1);
    for (int i = 0; i < threads_ - 1; ++i)
        workers_.emplace_back([this, i] { workerLoop(i + 1); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    batch_ready_.notify_all();
    for (std::thread& w : workers_)
        w.join();
}

void
ThreadPool::drainBatch(int lane)
{
    // Memory order (audited; see docs/concurrency.md): the claim
    // counter is relaxed because only its ATOMICITY matters — each
    // index is handed to exactly one lane. All data ordering rides on
    // mu_: the batch fields (job_, job_size_) and the caller's input
    // buffers are written before the epoch bump under mu_, and workers
    // read the epoch under mu_ before arriving here; results written by
    // fn(i) are read by the caller only after the batch-done wait on
    // the same mutex.
    while (true) {
        int64_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= job_size_)
            return;
        try {
            (*job_)(lane, i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!error_)
                error_ = std::current_exception();
            // Cancel the rest of the batch: iterations not yet claimed
            // are abandoned, in-flight ones finish. Relaxed is fine —
            // a racing fetch_add can momentarily observe a smaller
            // index, claim one more iteration, and stop on the next
            // spin; the error itself travels under mu_.
            cursor_.store(job_size_, std::memory_order_relaxed);
        }
    }
}

void
ThreadPool::workerLoop(int lane)
{
    uint64_t seen_epoch = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            batch_ready_.wait(lock, [&] {
                return stop_ || epoch_ != seen_epoch;
            });
            if (stop_)
                return;
            seen_epoch = epoch_;
        }
        drainBatch(lane);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--active_workers_ == 0)
                batch_done_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(int64_t n, const std::function<void(int64_t)>& fn)
{
    parallelForLane(n, [&fn](int, int64_t i) { fn(i); });
}

void
ThreadPool::parallelForLane(int64_t n,
                            const std::function<void(int, int64_t)>& fn)
{
    if (n <= 0)
        return;

    obs::Scope scope("exec.pool.dispatch");

    if (workers_.empty() || n == 1) {
        // Serial fast path: no locking, same iteration semantics; all
        // iterations run on the calling thread, lane 0.
        for (int64_t i = 0; i < n; ++i)
            fn(0, i);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        job_ = &fn;
        job_size_ = n;
        cursor_.store(0, std::memory_order_relaxed);
        error_ = nullptr;
        active_workers_ = static_cast<int>(workers_.size());
        ++epoch_;
    }
    batch_ready_.notify_all();

    // The calling thread is a full participant, always lane 0.
    drainBatch(0);

    std::unique_lock<std::mutex> lock(mu_);
    batch_done_.wait(lock, [&] { return active_workers_ == 0; });
    job_ = nullptr;
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace magma::exec

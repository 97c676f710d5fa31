#ifndef MAGMA_EXEC_THREAD_POOL_H_
#define MAGMA_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace magma::exec {

/**
 * Fixed-size worker pool with a blocking `parallelFor` batch API — the
 * execution substrate of the search engine (ROADMAP: batching + hot-path
 * speedups). One pool is meant to live for a whole search (or process)
 * so generation after generation reuses the same workers.
 *
 * Concurrency model:
 *  - `ThreadPool(n)` provides `n` lanes of concurrency: `n - 1` worker
 *    threads plus the calling thread, which always participates in
 *    `parallelFor`. `n <= 1` therefore spawns no threads at all and
 *    `parallelFor` degenerates to a plain serial loop — the serial and
 *    parallel paths share one code path.
 *  - `parallelFor(n, fn)` invokes `fn(i)` exactly once for every
 *    `i in [0, n)`, dynamically load-balanced via an atomic cursor, and
 *    returns only when all iterations finished.
 *  - Exception-safe: the first exception thrown by any `fn(i)` is
 *    captured, remaining iterations are cancelled, and the exception is
 *    rethrown on the calling thread after the batch quiesces.
 *
 * `parallelFor` must not be called concurrently from two threads on the
 * same pool (one in-flight batch at a time), and `fn` must not recurse
 * into the same pool.
 */
class ThreadPool {
  public:
    /** `threads <= 0` selects defaultThreads(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Total concurrency (workers + calling thread), >= 1. */
    int numThreads() const { return threads_; }

    /**
     * Run `fn(i)` for every i in [0, n); blocks until done. Rethrows the
     * first exception raised by any iteration.
     */
    void parallelFor(int64_t n, const std::function<void(int64_t)>& fn);

    /**
     * Like parallelFor, but `fn(lane, i)` also receives the lane index
     * of the executing thread — 0 for the calling thread, 1..numThreads-1
     * for the workers. Lane indices are stable for the pool's lifetime,
     * so callers can keep one mutable scratch object per lane (the
     * EvalEngine's per-worker EvalScratch) without locking: a lane never
     * runs two iterations concurrently.
     */
    void parallelForLane(int64_t n,
                         const std::function<void(int, int64_t)>& fn);

    /**
     * Thread count picked when none is given: the MAGMA_THREADS
     * environment variable if it is one whole positive decimal integer
     * ("4", not "4abc", "+4" or " 4"), otherwise
     * std::thread::hardware_concurrency().
     */
    static int defaultThreads();

  private:
    void workerLoop(int lane);
    /** Pull iterations off the shared cursor until the batch is drained. */
    void drainBatch(int lane);

    int threads_ = 1;
    std::vector<std::thread> workers_;

    // One in-flight batch, guarded by mu_.
    std::mutex mu_;
    std::condition_variable batch_ready_;
    std::condition_variable batch_done_;
    const std::function<void(int, int64_t)>* job_ = nullptr;
    int64_t job_size_ = 0;
    uint64_t epoch_ = 0;          ///< bumped per batch so workers wake once
    int active_workers_ = 0;      ///< workers still inside the batch
    std::exception_ptr error_;    ///< first exception of the batch
    bool stop_ = false;

    std::atomic<int64_t> cursor_{0};
};

}  // namespace magma::exec

#endif  // MAGMA_EXEC_THREAD_POOL_H_

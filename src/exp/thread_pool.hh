/**
 * @file
 * The experiment engine's worker pool: persistent threads that exist to
 * run ThreadPool::parallelFor.
 *
 * parallelFor is the only way in. The calling thread claims indices from
 * one atomic counter, and up to max_concurrency - 1 helper tasks queued
 * on the pool claim from the same counter, so the load balances itself
 * and a helper that starts late finds nothing left and returns. The
 * caller waits for indices, never for helpers, which is why a call from
 * inside a pool task cannot deadlock: it just does all the work itself.
 *
 * One mutex guards one FIFO task queue. The only tasks are parallelFor
 * helpers, which catch every exception for the caller to rethrow, and
 * points run for milliseconds to seconds, so queue contention is noise.
 * The workers are persistent rather than spawned per call: the sweep
 * runs on them, and host-speed calibration must measure the same
 * threads. global() builds the shared pool on first use, so a run that
 * never asks for it (a `--jobs 1` sweep) starts no threads.
 *
 * Destruction requests stop, wakes everyone, and std::jthread joins;
 * already-queued helpers run first (they return at once).
 */

#ifndef SECPB_EXP_THREAD_POOL_HH
#define SECPB_EXP_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace secpb
{

/** Persistent workers that serve parallelFor; see the file comment. */
class ThreadPool
{
  public:
    /** @param workers Worker-thread count (>= 1; 0 is clamped to 1). */
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run fn(0..n-1) across the pool, with the CALLING thread claiming
     * indices too. The first exception any index throws is rethrown
     * here after all indices finish.
     *
     * @param max_concurrency  Cap on threads working indices at once
     *                         (caller included); 0 = no cap beyond the
     *                         worker count. `--jobs N` maps here.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn,
                     std::size_t max_concurrency = 0);

    /** The process-wide pool, sized to the hardware concurrency. */
    static ThreadPool &global();

    unsigned workers() const { return static_cast<unsigned>(_threads.size()); }

  private:
    void workerLoop(std::stop_token st);

    std::mutex _mx;
    std::condition_variable _cv;       ///< Workers wait for tasks.
    std::deque<std::function<void()>> _queue;

    std::vector<std::jthread> _threads;  ///< Last member: joins first.
};

} // namespace secpb

#endif // SECPB_EXP_THREAD_POOL_HH

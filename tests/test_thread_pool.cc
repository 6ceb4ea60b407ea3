/**
 * @file
 * Unit tests for the experiment engine's thread pool, which exists to
 * run parallelFor: every index exactly once, the first exception
 * rethrown, helpers on pool threads, the zero-task and oversubscribed
 * cases, stray helpers drained at destruction, and calls from inside a
 * pool task completing without deadlock.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "exp/thread_pool.hh"

using namespace secpb;

TEST(ThreadPool, ZeroTasksConstructsAndJoins)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
    // Destructor must join idle workers that never ran a task.
}

TEST(ThreadPool, ZeroWorkersClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workers(), 1u);
    std::atomic<int> ran{0};
    pool.parallelFor(2, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, ExecutesEveryTask)
{
    // Back-to-back calls on one pool: each call's indices all run, and
    // helpers left over from one call never leak into the next.
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int call = 0; call < 50; ++call)
        pool.parallelFor(4, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ParallelForRethrowsFirstException)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        {
            try {
                pool.parallelFor(4, [](std::size_t i) {
                    if (i == 2)
                        throw std::runtime_error("point failed");
                });
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "point failed");
                throw;
            }
        },
        std::runtime_error);

    // The pool survives a throwing index and keeps executing.
    std::atomic<int> ran{0};
    pool.parallelFor(3, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, OversubscribedCompletesAll)
{
    // Far more workers than cores and far more indices than workers:
    // every index must run exactly once.
    ThreadPool pool(16);
    std::atomic<int> count{0};
    pool.parallelFor(500, [&](std::size_t) {
        ++count;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
    EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, PendingTasksDrainOnDestruction)
{
    // The caller finishes every index before the helpers it queued are
    // picked up; destroying the pool right away must run those stray
    // helpers (they find no index left) and join, not hang or crash.
    std::atomic<int> count{0};
    for (int round = 0; round < 16; ++round) {
        ThreadPool pool(2);
        pool.parallelFor(3, [&](std::size_t) { ++count; });
    }
    EXPECT_EQ(count.load(), 48);
}

TEST(ThreadPool, TasksRunOnPoolThreads)
{
    // Each index waits until two distinct threads have claimed one, so
    // the test cannot pass by one thread doing everything: at least one
    // index must run on a pool worker beside the caller.
    ThreadPool pool(4);
    const auto caller = std::this_thread::get_id();
    std::mutex mx;
    std::set<std::thread::id> ids;
    pool.parallelFor(32, [&](std::size_t) {
        std::unique_lock lock(mx);
        ids.insert(std::this_thread::get_id());
        while (ids.size() < 2) {
            lock.unlock();
            std::this_thread::yield();
            lock.lock();
        }
    });
    EXPECT_GE(ids.size(), 2u);
    ids.erase(caller);
    EXPECT_GE(ids.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; },
                     /*max_concurrency=*/3);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    // n == 0 is a no-op, not a hang.
    pool.parallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // Every worker is busy with an outer index, and each issues its own
    // parallelFor against the same pool. The callers wait for indices,
    // never for helpers, so the inner loops finish on their calling
    // threads instead of waiting on a queue only they could drain.
    ThreadPool pool(2);
    constexpr int kOuter = 6;
    constexpr std::size_t kInner = 64;
    std::atomic<int> inner{0};
    pool.parallelFor(kOuter, [&](std::size_t) {
        pool.parallelFor(kInner, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), kOuter * static_cast<int>(kInner));
}

TEST(ThreadPool, NestedParallelForOnGlobalPool)
{
    // Two nesting levels deep on the shared global pool must still
    // complete and cover every index exactly once.
    ThreadPool &g = ThreadPool::global();
    std::vector<std::atomic<int>> hits(96);
    g.parallelFor(4, [&](std::size_t outer) {
        g.parallelFor(hits.size() / 4, [&](std::size_t i) {
            ++hits[outer * (hits.size() / 4) + i];
        });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForPropagatesException)
{
    // An index failing inside a nested loop must surface at the outer
    // call site, after the remaining indices finish, with the pool
    // still usable.
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(2,
                                  [&](std::size_t outer) {
                                      pool.parallelFor(4, [&](std::size_t i) {
                                          ++ran;
                                          if (outer == 1 && i == 3)
                                              throw std::runtime_error(
                                                  "index 3");
                                      });
                                  }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 8);
    pool.parallelFor(2, [](std::size_t) {});
}

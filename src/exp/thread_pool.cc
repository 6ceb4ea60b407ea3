#include "exp/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace secpb
{

ThreadPool::ThreadPool(unsigned workers)
{
    workers = std::max(1u, workers);
    _threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        _threads.emplace_back([this](std::stop_token st) { workerLoop(st); });
}

ThreadPool::~ThreadPool()
{
    {
        // Under the lock, so no worker is between its predicate check
        // and its wait when the notify lands.
        std::lock_guard lock(_mx);
        for (auto &t : _threads)
            t.request_stop();
    }
    _cv.notify_all();
    // std::jthread joins on destruction; workers drain the queue first.
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn,
                        std::size_t max_concurrency)
{
    if (n == 0)
        return;
    if (n == 1) {
        fn(0);
        return;
    }

    struct Shared
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::size_t n = 0;
        const std::function<void(std::size_t)> *fn = nullptr;
        std::mutex mx;
        std::condition_variable cv;
        std::exception_ptr error;
    };
    auto shared = std::make_shared<Shared>();
    shared->n = n;
    shared->fn = &fn;

    // Stray helpers that only start after the caller exhausted the index
    // space see next >= n immediately and never dereference fn -- which
    // is what makes borrowing the caller's function object safe.
    auto work = [shared] {
        for (;;) {
            const std::size_t i = shared->next.fetch_add(1);
            if (i >= shared->n)
                return;
            try {
                (*shared->fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> g(shared->mx);
                if (!shared->error)
                    shared->error = std::current_exception();
            }
            if (shared->done.fetch_add(1) + 1 == shared->n) {
                std::lock_guard<std::mutex> g(shared->mx);
                shared->cv.notify_all();
            }
        }
    };

    std::size_t helpers = std::min<std::size_t>(n - 1, workers());
    if (max_concurrency > 0)
        helpers = std::min(helpers, max_concurrency - 1);
    if (helpers > 0) {
        {
            std::lock_guard lock(_mx);
            _queue.insert(_queue.end(), helpers, work);
        }
        _cv.notify_all();
    }

    work();  // The caller claims indices alongside the helpers.

    // done == n means every index ran and every error is in
    // shared->error. Helpers still queued own `shared` and return at
    // once whenever a worker reaches them; waiting for them instead
    // would deadlock a call made from inside a pool task.
    std::unique_lock lock(shared->mx);
    shared->cv.wait(lock, [&] { return shared->done.load() >= shared->n; });
    if (shared->error)
        std::rethrow_exception(shared->error);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(
        std::max(1u, std::thread::hardware_concurrency()));
    return pool;
}

void
ThreadPool::workerLoop(std::stop_token st)
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(_mx);
            _cv.wait(lock,
                     [&] { return st.stop_requested() || !_queue.empty(); });
            if (_queue.empty())
                return;  // Stop requested and nothing left to drain.
            task = std::move(_queue.front());
            _queue.pop_front();
        }
        task();
    }
}

} // namespace secpb

#include "exp/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "exp/thread_pool.hh"

namespace secpb
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Refreshing stderr progress line, shared by the serial and pooled paths. */
class ProgressMeter
{
  public:
    ProgressMeter(const SweepOptions &opts, std::size_t total)
        : _enabled(opts.progress && total > 0),
          _prefix(opts.name.empty() ? "" : opts.name + " "), _total(total),
          _start(Clock::now())
    {
    }

    void
    completed()
    {
        if (!_enabled)
            return;
        const std::size_t done = ++_done;
        std::lock_guard lock(_mx);
        const double elapsed = secondsSince(_start);
        const double eta =
            done ? elapsed / done * (_total - done) : 0.0;
        std::fprintf(stderr,
                     "\r%s[%zu/%zu] elapsed %.1fs eta %.1fs   ",
                     _prefix.c_str(), done, _total, elapsed, eta);
        if (done == _total)
            std::fprintf(stderr, "\n");
        std::fflush(stderr);
    }

  private:
    bool _enabled;
    std::string _prefix;
    std::size_t _total;
    Clock::time_point _start;
    std::atomic<std::size_t> _done{0};
    std::mutex _mx;
};

ExperimentResult
timedPoint(const ExperimentPoint &point)
{
    const auto start = Clock::now();
    ExperimentResult res = runExperimentPoint(point);
    res.hostSeconds = secondsSince(start);
    return res;
}

} // namespace

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<ExperimentPoint> &points) const
{
    std::vector<ExperimentResult> results(points.size());
    ProgressMeter meter(_opts, points.size());

    if (_opts.jobs <= 1) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            results[i] = timedPoint(points[i]);
            meter.completed();
        }
        return results;
    }

    // Points run on the process-wide pool; parallelFor caps concurrent
    // points at jobs and rethrows the first point failure after every
    // point ran.
    ThreadPool::global().parallelFor(
        points.size(),
        [&](std::size_t i) {
            results[i] = timedPoint(points[i]);
            meter.completed();
        },
        _opts.jobs);
    return results;
}

} // namespace secpb

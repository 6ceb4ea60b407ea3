/**
 * @file
 * Shared declarations of the secpb_perf benchmark program.
 *
 * The program runs one workload in a closed loop of identical rounds.
 * A round is a fixed list of points (one simulated run, sweep cell, or
 * fault-injection trial each); every point reports a digest of its
 * modelled outputs, which must repeat exactly from round to round and
 * match the committed golden file. Host time is measured around the
 * public-API calls only, so nothing here changes what is simulated.
 */

#ifndef SECPB_PERF_BENCH_HH
#define SECPB_PERF_BENCH_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perf
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** FNV-1a over "name=value;" text, so a digest is independent of the
 *  in-memory layout of the result structs. */
class OutputDigest
{
  public:
    void
    add(const char *name, std::uint64_t v)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s=%llu;", name,
                      static_cast<unsigned long long>(v));
        bytes(buf);
    }

    void
    add(const char *name, double v)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
        bytes(buf);
    }

    void add(const char *name, bool v) { add(name, std::uint64_t{v}); }

    std::uint64_t value() const { return _h; }

  private:
    void
    bytes(const char *s)
    {
        for (; *s; ++s) {
            _h ^= static_cast<unsigned char>(*s);
            _h *= 0x100000001b3ULL;
        }
    }

    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

/** Per-layer counts of one point or round, keyed by metric name. */
using Counts = std::map<std::string, double>;

inline void
addCounts(Counts &into, const Counts &from)
{
    for (const auto &[k, v] : from)
        into[k] += v;
}

/** What one executed point reports back. */
struct PointOutcome
{
    std::uint64_t digest = 0;
    std::string failure;            ///< Empty when every check passed.
    std::uint64_t instructions = 0; ///< Simulated instructions retired.
    std::uint64_t execTicks = 0;    ///< Simulated cycles of the run.
    double setupS = 0.0;  ///< Host s constructing Simulation + generators.
    double runS = 0.0;    ///< Host s inside run / injector calls.
    Counts counts;        ///< Traced rounds only.
};

/** How one point is being run. */
struct PointCtx
{
    bool traced = false;        ///< Collect counts and spans.
    std::uint64_t id = 0;       ///< Unique across rounds (span args).
    const std::string *label = nullptr;
};

/** Records [construction, destruction) as a span when traced. */
class SpanScope
{
  public:
    SpanScope(const char *name, const PointCtx &ctx)
        : _name(name), _ctx(ctx), _start(Clock::now())
    {}
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    const char *_name;
    const PointCtx &_ctx;
    Clock::time_point _start;
};

/** One point of a workload's round. */
struct Point
{
    std::string label;
    std::function<PointOutcome(const PointCtx &)> run;
};

/** A workload: its points and how many run concurrently. */
struct Workload
{
    std::string name;
    unsigned jobs = 1;
    std::vector<Point> points;
    /** Workload-specific summary values from one round's outcomes. */
    std::function<void(const std::vector<PointOutcome> &,
                       std::map<std::string, double> &)>
        summarize;
};

/** Names of the workloads in run order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name; the seed reaches only generators and draws. */
Workload makeBenchWorkload(const std::string &name, std::uint64_t seed,
                           unsigned jobs);

/** Layer microbenchmarks: best of 5 reps each, fixed inputs. */
std::map<std::string, double> runProbes();

/** @name Host-time spans for the traced rounds (spans.cc). */
/** @{ */
void enableSpans();

/** Record [@p start, now) on the calling thread's track. */
void recordSpan(const char *name, Clock::time_point start,
                std::uint64_t point_id, const std::string *label);

/** Like recordSpan, with an explicit end. */
void recordSpanUntil(const char *name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t point_id,
                     const std::string *label);

/** Write every recorded span as Chrome trace_event JSON. */
void writeSpans(std::ostream &os);
/** @} */

} // namespace perf

#endif // SECPB_PERF_BENCH_HH

/**
 * @file
 * Span/instant event tracer emitting Chrome/Perfetto `trace_event` JSON.
 *
 * One Tracer records the timeline of one simulation: spans (complete
 * events, ph "X") for operations whose start and end ticks are known,
 * instants (ph "i") for point occurrences, and counters (ph "C") for
 * sampled values. Timestamps are simulated ticks (core cycles) written
 * as the trace's microsecond field, so one timeline microsecond is one
 * core cycle -- deterministic across runs and hosts. `pid` carries the
 * ASID of the process the event belongs to (0 for machine-level
 * events); `tid` is an interned component name ("secpb", "bmt",
 * "pcm", ...), so Perfetto renders one track per hardware component
 * per address space, exactly the layout of the paper's figures.
 *
 * Components do not hold a Tracer; they emit through the TRACE_SPAN /
 * TRACE_INSTANT macros, which consult a thread-local current tracer
 * installed by a TraceSession. With no session installed the macros
 * cost a single thread-local load and branch -- cheap enough to leave
 * compiled into every hot path.
 * Simulations are single-threaded per system, and the sweep engine
 * runs each point on one thread, so a thread-local session cleanly
 * scopes tracing to exactly one point even under `--jobs N`.
 */

#ifndef SECPB_OBS_TRACE_HH
#define SECPB_OBS_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace secpb::obs
{

/** One recorded trace event (a row of the Perfetto JSON array). */
struct TraceEvent
{
    enum class Phase : char
    {
        Span = 'X',     ///< Complete event with a duration.
        Instant = 'i',  ///< Point event.
        Counter = 'C',  ///< Sampled counter value.
    };

    Tick ts = 0;            ///< Start tick.
    Tick dur = 0;           ///< Duration (spans only).
    std::uint64_t seq = 0;  ///< Lane, then recording order; sort tiebreak.
    std::uint32_t tid = 0;  ///< Interned component id.
    std::uint32_t pid = 0;  ///< ASID (0 = machine-level).
    Phase phase = Phase::Instant;
    std::string name;
    double counterValue = 0.0;  ///< Counter events only.
};

/** Records one simulation's timeline; see the file comment. */
class Tracer
{
  public:
    /** @p capacity bounds the event buffer; further events are dropped
     *  (and counted) rather than growing without bound. */
    explicit Tracer(std::size_t capacity = 1u << 20);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Record a complete event spanning [@p start, @p end]. */
    void span(const std::string &component, const std::string &name,
              Tick start, Tick end, std::uint32_t pid = 0);

    /** Record a point event at @p ts. */
    void instant(const std::string &component, const std::string &name,
                 Tick ts, std::uint32_t pid = 0);

    /** Record a sampled counter value at @p ts. */
    void counter(const std::string &component, const std::string &name,
                 Tick ts, double value, std::uint32_t pid = 0);

    /** Intern @p component, returning its tid. */
    std::uint32_t tid(const std::string &component);

    std::size_t numEvents() const { return _events.size(); }
    std::uint64_t numDropped() const { return _dropped; }

    /** Events in recording order (unsorted). */
    const std::vector<TraceEvent> &events() const { return _events; }

    /** Events sorted by (ts, seq) -- the order writeJson emits. */
    std::vector<TraceEvent> sortedEvents() const;

    /** Interned component names indexed by tid. */
    const std::vector<std::string> &components() const
    {
        return _components;
    }

    /**
     * Write the Chrome/Perfetto trace_event JSON document: metadata
     * records naming every pid/tid, then every event sorted by
     * (ts, seq) so timestamps are monotonic per tid. Loadable directly
     * in https://ui.perfetto.dev or chrome://tracing.
     */
    void writeJson(std::ostream &os) const;

    /** Drop all recorded events (the tid registry is kept). */
    void clear();

    /**
     * Events recorded from now on sort after every lower lane's events
     * of the same tick, whenever they were recorded. The multi-core
     * engine gives each core its own lane, so a span that an epoch
     * barrier cuts (recorded an epoch after it starts) still sorts in
     * core order, and the trace does not depend on the epoch length.
     */
    void setLane(std::uint32_t lane)
    {
        _laneBits = static_cast<std::uint64_t>(lane) << 40;
    }

  private:
    TraceEvent *append();

    std::size_t _capacity;
    std::uint64_t _dropped = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _laneBits = 0;  ///< Current lane, pre-shifted into seq.
    std::vector<TraceEvent> _events;
    std::vector<std::string> _components;        ///< tid -> name.
    std::unordered_map<std::string, std::uint32_t> _tids;
};

/**
 * The thread's current tracer (nullptr = tracing disabled). constinit
 * tells every translation unit the variable needs no dynamic
 * initialisation, so they access it directly instead of through a TLS
 * init wrapper.
 */
extern constinit thread_local Tracer *tlCurrentTracer;

/** Accessor the macros use; a TLS load, no function call at -O2. */
inline Tracer *
current()
{
    return tlCurrentTracer;
}

/**
 * RAII scope installing @p tracer as the thread's current tracer.
 * Install nullptr (or default-construct) to trace nothing; sessions
 * nest, restoring the previous tracer on destruction.
 */
class TraceSession
{
  public:
    explicit TraceSession(Tracer *tracer)
        : _previous(tlCurrentTracer)
    {
        tlCurrentTracer = tracer;
    }

    ~TraceSession() { tlCurrentTracer = _previous; }

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

  private:
    Tracer *_previous;
};

} // namespace secpb::obs

/** Record a span on @p comp's track; evaluated only when tracing. */
#define TRACE_SPAN(comp, name, start, end)                                \
    do {                                                                  \
        if (::secpb::obs::Tracer *t_ = ::secpb::obs::current())           \
            t_->span((comp), (name), (start), (end));                     \
    } while (0)

/** TRACE_SPAN with an explicit ASID (Perfetto pid). */
#define TRACE_SPAN_P(comp, name, start, end, pid)                         \
    do {                                                                  \
        if (::secpb::obs::Tracer *t_ = ::secpb::obs::current())           \
            t_->span((comp), (name), (start), (end), (pid));              \
    } while (0)

/** Record an instant on @p comp's track; evaluated only when tracing. */
#define TRACE_INSTANT(comp, name, tick)                                   \
    do {                                                                  \
        if (::secpb::obs::Tracer *t_ = ::secpb::obs::current())           \
            t_->instant((comp), (name), (tick));                          \
    } while (0)

/** TRACE_INSTANT with an explicit ASID (Perfetto pid). */
#define TRACE_INSTANT_P(comp, name, tick, pid)                            \
    do {                                                                  \
        if (::secpb::obs::Tracer *t_ = ::secpb::obs::current())           \
            t_->instant((comp), (name), (tick), (pid));                   \
    } while (0)

/** Record a counter sample on @p comp's track. */
#define TRACE_COUNTER(comp, name, tick, value)                            \
    do {                                                                  \
        if (::secpb::obs::Tracer *t_ = ::secpb::obs::current())           \
            t_->counter((comp), (name), (tick), (value));                 \
    } while (0)

#endif // SECPB_OBS_TRACE_HH

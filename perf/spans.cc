/**
 * @file
 * Host-time span log of the traced rounds.
 *
 * Spans stay in memory, one buffer per thread (the sweep worker is the
 * track), and are written once at exit as Chrome trace_event JSON. A
 * process-wide list owns the buffers, so spans outlive their threads.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "bench.hh"
#include "stats/json.hh"

namespace perf
{

namespace
{

struct Span
{
    const char *name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t pointId;
    const std::string *label;
};

struct Track
{
    unsigned tid;
    std::vector<Span> spans;
};

std::atomic<bool> gEnabled{false};
std::mutex gTracksMx;
std::vector<std::unique_ptr<Track>> gTracks;  // Guarded by gTracksMx.
const Clock::time_point gEpoch = Clock::now();

Track &
threadTrack()
{
    thread_local Track *track = nullptr;
    if (!track) {
        std::lock_guard lock(gTracksMx);
        gTracks.push_back(std::make_unique<Track>());
        track = gTracks.back().get();
        track->tid = static_cast<unsigned>(gTracks.size());
    }
    return *track;
}

double
micros(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - gEpoch).count();
}

} // namespace

void
enableSpans()
{
    gEnabled = true;
}

void
recordSpanUntil(const char *name, Clock::time_point start,
                Clock::time_point end, std::uint64_t point_id,
                const std::string *label)
{
    if (!gEnabled.load(std::memory_order_relaxed))
        return;
    threadTrack().spans.push_back({name, start, end, point_id, label});
}

void
recordSpan(const char *name, Clock::time_point start,
           std::uint64_t point_id, const std::string *label)
{
    recordSpanUntil(name, start, Clock::now(), point_id, label);
}

SpanScope::~SpanScope()
{
    if (_ctx.traced)
        recordSpan(_name, _start, _ctx.id, _ctx.label);
}

void
writeSpans(std::ostream &os)
{
    std::lock_guard lock(gTracksMx);
    secpb::JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    auto meta = [&](const char *what, unsigned tid, const std::string &name) {
        w.beginObject();
        w.field("ph", "M");
        w.field("pid", 1);
        w.field("tid", tid);
        w.field("name", what);
        w.key("args");
        w.beginObject();
        w.field("name", name);
        w.endObject();
        w.endObject();
    };
    meta("process_name", 0, "secpb_perf");
    for (const auto &t : gTracks)
        meta("thread_name", t->tid, "thread-" + std::to_string(t->tid));
    for (const auto &t : gTracks) {
        // Parents start no later than their children; ties put the
        // longer (enclosing) span first so the per-track order nests.
        std::vector<Span> spans = t->spans;
        std::stable_sort(spans.begin(), spans.end(),
                         [](const Span &a, const Span &b) {
                             if (a.start != b.start)
                                 return a.start < b.start;
                             return a.end > b.end;
                         });
        for (const Span &s : spans) {
            w.beginObject();
            w.field("ph", "X");
            w.field("name", s.name);
            w.field("pid", 1);
            w.field("tid", t->tid);
            w.field("ts", micros(s.start));
            w.field("dur", micros(s.end) - micros(s.start));
            w.key("args");
            w.beginObject();
            w.field("point", s.pointId);
            if (s.label)
                w.field("label", *s.label);
            w.endObject();
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace perf

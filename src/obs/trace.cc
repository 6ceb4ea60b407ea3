#include "obs/trace.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stats/json.hh"

namespace secpb::obs
{

constinit thread_local Tracer *tlCurrentTracer = nullptr;

Tracer::Tracer(std::size_t capacity)
    : _capacity(capacity)
{
    fatal_if(capacity == 0, "Tracer needs a non-zero capacity");
    // A system registers on the order of a dozen components; one up-front
    // reservation keeps tid() interning from rehashing mid-run.
    _tids.reserve(32);
    _components.reserve(32);
}

std::uint32_t
Tracer::tid(const std::string &component)
{
    auto it = _tids.find(component);
    if (it != _tids.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(_components.size());
    _components.push_back(component);
    _tids.emplace(component, id);
    return id;
}

TraceEvent *
Tracer::append()
{
    if (_events.size() >= _capacity) {
        ++_dropped;
        return nullptr;
    }
    _events.emplace_back();
    TraceEvent &ev = _events.back();
    ev.seq = _laneBits | _nextSeq++;
    return &ev;
}

void
Tracer::span(const std::string &component, const std::string &name,
             Tick start, Tick end, std::uint32_t pid)
{
    panic_if(end < start, "trace span '%s' ends before it starts",
             name.c_str());
    TraceEvent *ev = append();
    if (!ev)
        return;
    ev->phase = TraceEvent::Phase::Span;
    ev->ts = start;
    ev->dur = end - start;
    ev->tid = tid(component);
    ev->pid = pid;
    ev->name = name;
}

void
Tracer::instant(const std::string &component, const std::string &name,
                Tick ts, std::uint32_t pid)
{
    TraceEvent *ev = append();
    if (!ev)
        return;
    ev->phase = TraceEvent::Phase::Instant;
    ev->ts = ts;
    ev->tid = tid(component);
    ev->pid = pid;
    ev->name = name;
}

void
Tracer::counter(const std::string &component, const std::string &name,
                Tick ts, double value, std::uint32_t pid)
{
    TraceEvent *ev = append();
    if (!ev)
        return;
    ev->phase = TraceEvent::Phase::Counter;
    ev->ts = ts;
    ev->tid = tid(component);
    ev->pid = pid;
    ev->name = name;
    ev->counterValue = value;
}

std::vector<TraceEvent>
Tracer::sortedEvents() const
{
    std::vector<TraceEvent> sorted = _events;
    std::sort(sorted.begin(), sorted.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.ts != b.ts)
                      return a.ts < b.ts;
                  return a.seq < b.seq;
              });
    return sorted;
}

void
Tracer::clear()
{
    _events.clear();
    _dropped = 0;
    _nextSeq = 0;
}

void
Tracer::writeJson(std::ostream &os) const
{
    // Compact mode: a big trace pretty-printed triples its size for no
    // benefit (Perfetto is the reader, not a human).
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();

    // Metadata: name every (pid, tid) pair that appears so Perfetto's
    // track labels read "asid N / component" instead of raw integers.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> tracks;
    for (const TraceEvent &ev : _events)
        tracks.emplace_back(ev.pid, ev.tid);
    std::sort(tracks.begin(), tracks.end());
    tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());

    std::uint32_t last_pid = 0;
    bool named_pid = false;
    for (const auto &[pid, tid] : tracks) {
        if (!named_pid || pid != last_pid) {
            w.beginObject();
            w.field("name", "process_name");
            w.field("ph", "M");
            w.field("pid", pid);
            w.field("tid", std::uint32_t{0});
            w.key("args");
            w.beginObject();
            w.field("name", "asid " + std::to_string(pid));
            w.endObject();
            w.endObject();
            last_pid = pid;
            named_pid = true;
        }
        w.beginObject();
        w.field("name", "thread_name");
        w.field("ph", "M");
        w.field("pid", pid);
        w.field("tid", tid);
        w.key("args");
        w.beginObject();
        w.field("name", _components.at(tid));
        w.endObject();
        w.endObject();
    }

    for (const TraceEvent &ev : sortedEvents()) {
        w.beginObject();
        w.field("name", ev.name);
        w.field("cat", _components.at(ev.tid));
        w.field("ph", std::string(1, static_cast<char>(ev.phase)));
        w.field("ts", ev.ts);
        if (ev.phase == TraceEvent::Phase::Span)
            w.field("dur", ev.dur);
        w.field("pid", ev.pid);
        w.field("tid", ev.tid);
        if (ev.phase == TraceEvent::Phase::Instant)
            w.field("s", "t");  // thread-scoped instant marker
        if (ev.phase == TraceEvent::Phase::Counter) {
            w.key("args");
            w.beginObject();
            w.field("value", ev.counterValue);
            w.endObject();
        }
        w.endObject();
    }

    w.endArray();
    if (_dropped > 0)
        w.field("droppedEvents", _dropped);
    w.endObject();
    os << '\n';
}

} // namespace secpb::obs

#include "obs/sampler.hh"

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "stats/json.hh"

namespace secpb::obs
{

void
SampleSeries::toJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("period", period);
    w.field("epochs_dropped", epochsDropped);
    w.key("channels");
    w.beginArray();
    for (const std::string &c : channels)
        w.value(c);
    w.endArray();
    w.key("ticks");
    w.beginArray();
    for (Tick t : ticks)
        w.value(t);
    w.endArray();
    w.key("values");
    w.beginArray();
    for (const std::vector<double> &col : values) {
        w.beginArray();
        for (double v : col)
            w.value(v);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

Sampler::Sampler(EventQueue &eq, Tick period, std::size_t capacity)
    : _eq(eq), _period(period), _capacity(capacity)
{
    fatal_if(period == 0, "Sampler needs a non-zero period");
    fatal_if(capacity == 0, "Sampler needs a non-zero ring capacity");
}

void
Sampler::addChannel(std::string name, Probe probe)
{
    panic_if(_epochsTaken != 0,
             "Sampler channels must be registered before sampling");
    _channels.push_back(std::move(name));
    _probes.push_back(std::move(probe));
}

void
Sampler::sampleNow()
{
    Epoch *slot;
    if (_ring.size() < _capacity) {
        _ring.emplace_back();
        slot = &_ring.back();
    } else {
        slot = &_ring[_head];
    }
    _head = (_head + 1) % _capacity;
    ++_epochsTaken;

    const Tick now = _eq.curTick();
    slot->tick = now;
    slot->values.resize(_probes.size());
    for (std::size_t c = 0; c < _probes.size(); ++c) {
        slot->values[c] = _probes[c]();
        TRACE_COUNTER("sampler", _channels[c], now, slot->values[c]);
    }
}

void
Sampler::start()
{
    panic_if(_running, "Sampler::start called twice");
    _running = true;
    sampleNow();
    _eq.schedule(_eq.curTick() + _period, [this] { fire(); });
}

void
Sampler::fire()
{
    if (!_running)
        return;
    sampleNow();
    // Retire when nothing else is pending: the simulation is over, and
    // rescheduling would keep the queue alive forever.
    if (_eq.empty()) {
        _running = false;
        return;
    }
    _eq.schedule(_eq.curTick() + _period, [this] { fire(); });
}

SampleSeries
Sampler::series() const
{
    SampleSeries s;
    s.period = _period;
    s.channels = _channels;
    s.epochsDropped =
        _epochsTaken > _ring.size() ? _epochsTaken - _ring.size() : 0;

    const std::size_t n = _ring.size();
    s.ticks.reserve(n);
    s.values.assign(_channels.size(), {});
    for (auto &col : s.values)
        col.reserve(n);

    // Oldest epoch: _head when the ring has wrapped, 0 otherwise.
    const std::size_t start = n == _capacity ? _head : 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Epoch &e = _ring[(start + i) % n];
        s.ticks.push_back(e.tick);
        for (std::size_t c = 0; c < _channels.size(); ++c)
            s.values[c].push_back(e.values[c]);
    }
    return s;
}

} // namespace secpb::obs

/**
 * @file
 * Epoch time-series sampling of simulator state.
 *
 * A Sampler schedules itself on the EventQueue every `period` ticks and
 * snapshots a set of named scalar channels (SecPB occupancy, battery
 * energy headroom, WPQ depth, ...) into a bounded ring buffer. Probes
 * must be side-effect-free reads of model state: sampling adds events
 * to the queue but never perturbs what the simulation computes, so a
 * sampled run reports bit-identical results to an unsampled one.
 *
 * The sampler stops itself when its tick finds no other event pending
 * -- at that point the simulation has nothing left to do, so an
 * unconditional reschedule would keep the queue alive forever (and
 * deadlock harnesses that run the queue to exhaustion).
 *
 * When a tracer session is active, each epoch also emits Perfetto
 * counter events, so the time-series appears as counter tracks on the
 * same timeline as the span/instant events.
 */

#ifndef SECPB_OBS_SAMPLER_HH
#define SECPB_OBS_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"

namespace secpb
{

class JsonWriter;

namespace obs
{

/**
 * The unrolled result of a sampling run: epochs in time order, one
 * value per channel per epoch. Plain data so results can outlive the
 * system that produced them (the sweep engine copies it into each
 * point's ExperimentResult).
 */
struct SampleSeries
{
    Tick period = 0;
    std::vector<std::string> channels;
    std::vector<Tick> ticks;  ///< Epoch timestamps, ascending.
    /** values[c][i] = channel c at ticks[i] (columnar). */
    std::vector<std::vector<double>> values;
    /** Epochs overwritten by the ring before being read. */
    std::uint64_t epochsDropped = 0;

    bool empty() const { return ticks.empty(); }
    std::size_t numEpochs() const { return ticks.size(); }

    /** Serialize as one JSON object (the sweep schema's "samples"). */
    void toJson(JsonWriter &w) const;
};

/** Ring capacity of a system's sampler: the most recent epochs retained. */
constexpr std::size_t SampleCapacity = 4096;

/** Periodic sampler of scalar probes; see the file comment. */
class Sampler
{
  public:
    /** Probe returning one channel's current value. */
    using Probe = std::function<double()>;

    Sampler(EventQueue &eq, Tick period,
            std::size_t capacity = SampleCapacity);

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Register a channel; call before start(). */
    void addChannel(std::string name, Probe probe);

    /**
     * Take the epoch-0 snapshot now and begin periodic sampling. The
     * sampler retires itself when an epoch finds the queue otherwise
     * empty.
     */
    void start();

    /** Stop sampling after the current epoch (idempotent). */
    void stop() { _running = false; }

    /** Take one snapshot immediately (crash instants, tests). */
    void sampleNow();

    Tick period() const { return _period; }
    bool running() const { return _running; }

    /** Unroll the ring into a time-ordered series. */
    SampleSeries series() const;

  private:
    struct Epoch
    {
        Tick tick = 0;
        std::vector<double> values;
    };

    void fire();

    EventQueue &_eq;
    Tick _period;
    std::size_t _capacity;
    bool _running = false;

    std::vector<std::string> _channels;
    std::vector<Probe> _probes;

    /** Ring of the most recent `_capacity` epochs. */
    std::vector<Epoch> _ring;
    std::size_t _head = 0;          ///< Next slot to write.
    std::uint64_t _epochsTaken = 0;
};

} // namespace obs
} // namespace secpb

#endif // SECPB_OBS_SAMPLER_HH

/**
 * @file
 * Phase-change-memory (PCM) main-memory timing model.
 *
 * Table I of the paper: 8 GB PCM, 55 ns reads, 150 ns writes. The device
 * is banked: accesses to distinct banks overlap, same-bank accesses
 * serialize. (Table I's controller queues are not modelled here; the
 * ADR write pending queue is mem/wpq.hh.) Two interfaces are
 * offered: a callback style (read/write with completion events) used by the
 * drain machinery, and an occupancy style (readOccupy/writeOccupy) that
 * returns the queuing + service delay for callers that fold memory latency
 * into a larger computed duration (e.g. the BMT update walker).
 */

#ifndef SECPB_MEM_PCM_HH
#define SECPB_MEM_PCM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace secpb
{

/** PCM device configuration (defaults follow Table I at 4 GHz). */
struct PcmConfig
{
    Cycles readLatency = 220;   ///< 55 ns at 4 GHz.
    Cycles writeLatency = 600;  ///< 150 ns at 4 GHz.
    unsigned numBanks = 32;     ///< Bank/partition parallelism.
};

static_assert(cyclesToNs(PcmConfig{}.readLatency) == 55.0 &&
                  cyclesToNs(PcmConfig{}.writeLatency) == 150.0,
              "Table I: 55 ns PCM reads and 150 ns writes at 4 GHz");

/** Banked PCM timing model. */
class PcmModel
{
  public:
    PcmModel(EventQueue &eq, const PcmConfig &cfg, StatGroup &parent)
        : _eq(eq), _cfg(cfg),
          _bankFree(cfg.numBanks, 0),
          _stats("pcm", &parent),
          statReads(_stats, "reads", "PCM read accesses"),
          statWrites(_stats, "writes", "PCM write accesses"),
          statReadDelay(_stats, "read_delay",
                        "total read delay incl. queuing (cycles)"),
          statWriteDelay(_stats, "write_delay",
                         "total write delay incl. queuing (cycles)")
    {
        panic_if(cfg.numBanks == 0, "PCM needs >= 1 bank");
    }

    /** Issue a read; fires @p done when data is available. */
    Tick
    read(Addr addr, EventCallback done)
    {
        ++statReads;
        const Tick finish = occupy(addr, _cfg.readLatency);
        if (done)
            _eq.schedule(finish, std::move(done));
        statReadDelay.sample(static_cast<double>(finish - _eq.curTick()));
        TRACE_SPAN("pcm", "read", _eq.curTick(), finish);
        return finish;
    }

    /** Issue a write; fires @p done once the cell array is updated. */
    Tick
    write(Addr addr, EventCallback done)
    {
        ++statWrites;
        const Tick finish = occupy(addr, _cfg.writeLatency);
        if (done)
            _eq.schedule(finish, std::move(done));
        statWriteDelay.sample(static_cast<double>(finish - _eq.curTick()));
        TRACE_SPAN("pcm", "write", _eq.curTick(), finish);
        return finish;
    }

    /**
     * Occupy the bank for a read and return the total delay (queuing +
     * service) as seen from now. For callers that compute an aggregate
     * duration instead of chaining events.
     */
    Cycles
    readOccupy(Addr addr)
    {
        ++statReads;
        const Cycles delay = occupy(addr, _cfg.readLatency) - _eq.curTick();
        statReadDelay.sample(static_cast<double>(delay));
        return delay;
    }

    /** Occupancy-style write; see readOccupy(). */
    Cycles
    writeOccupy(Addr addr)
    {
        ++statWrites;
        const Cycles delay = occupy(addr, _cfg.writeLatency) - _eq.curTick();
        statWriteDelay.sample(static_cast<double>(delay));
        return delay;
    }

    const PcmConfig &config() const { return _cfg; }

    /** Current tick (for clients without their own EventQueue ref). */
    Tick now() const { return _eq.curTick(); }

    std::uint64_t numReads() const
    { return static_cast<std::uint64_t>(statReads.value()); }
    std::uint64_t numWrites() const
    { return static_cast<std::uint64_t>(statWrites.value()); }

  private:
    /**
     * Hold @p addr's bank (block-interleaved) for @p latency cycles from
     * max(now, the bank's free tick); returns the finish tick.
     */
    Tick
    occupy(Addr addr, Cycles latency)
    {
        Tick &free = _bankFree[blockIndex(addr) % _bankFree.size()];
        free = std::max(_eq.curTick(), free) + latency;
        return free;
    }

    EventQueue &_eq;
    PcmConfig _cfg;
    std::vector<Tick> _bankFree;  ///< Per bank: tick it next goes idle.
    StatGroup _stats;

  public:
    Scalar statReads;
    Scalar statWrites;
    Average statReadDelay;
    Average statWriteDelay;
};

} // namespace secpb

#endif // SECPB_MEM_PCM_HH

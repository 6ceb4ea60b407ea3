/**
 * @file
 * Simple hardware-resource occupancy models.
 *
 * Resource models a unit that can service one request at a time (a hash
 * unit, an AES pipeline stage, a cache port). Requests queue FIFO; each
 * holds the unit for a caller-specified number of cycles and fires a
 * completion callback. BankedResource models N such units with address
 * interleaving (used for PCM banks).
 */

#ifndef SECPB_SIM_RESOURCE_HH
#define SECPB_SIM_RESOURCE_HH

#include <algorithm>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace secpb
{

/**
 * A single-server FIFO resource.
 *
 * request(duration, cb) grants the unit at max(now, freeAt), holds it for
 * @p duration cycles, then fires @p cb. Total busy time is tracked for
 * utilization statistics.
 */
class Resource
{
  public:
    Resource(EventQueue &eq, std::string name)
        : _eq(eq), _name(std::move(name))
    {}

    /**
     * Occupy the unit for @p duration cycles; fire @p done on completion.
     * @return the tick at which the request completes.
     */
    Tick
    request(Cycles duration, EventCallback done)
    {
        Tick start = std::max(_eq.curTick(), _freeAt);
        Tick finish = start + duration;
        _freeAt = finish;
        _busyCycles += duration;
        ++_requests;
        if (done)
            _eq.schedule(finish, std::move(done));
        return finish;
    }

    /** True if a request issued now would start immediately. */
    bool idle() const { return _freeAt <= _eq.curTick(); }

    /** Total cycles this unit has been (or is scheduled to be) busy. */
    Cycles busyCycles() const { return _busyCycles; }

    /** Number of requests serviced. */
    std::uint64_t requests() const { return _requests; }

    const std::string &name() const { return _name; }

  private:
    EventQueue &_eq;
    std::string _name;
    Tick _freeAt = 0;
    Cycles _busyCycles = 0;
    std::uint64_t _requests = 0;
};

/**
 * N parallel servers selected by address interleaving (block granular).
 * Models banked memories: accesses to distinct banks overlap; accesses to
 * the same bank serialize.
 */
class BankedResource
{
  public:
    BankedResource(EventQueue &eq, std::string name, unsigned num_banks)
        : _name(std::move(name))
    {
        panic_if(num_banks == 0, "BankedResource needs >= 1 bank");
        _banks.reserve(num_banks);
        for (unsigned i = 0; i < num_banks; ++i)
            _banks.emplace_back(eq, _name + ".bank" + std::to_string(i));
    }

    /** Bank servicing @p addr. */
    Resource &
    bankFor(Addr addr)
    {
        return _banks[blockIndex(addr) % _banks.size()];
    }

    /** Occupy the bank owning @p addr for @p duration cycles. */
    Tick
    request(Addr addr, Cycles duration, EventCallback done)
    {
        return bankFor(addr).request(duration, std::move(done));
    }

    unsigned numBanks() const { return static_cast<unsigned>(_banks.size()); }

    /** Aggregate busy cycles across banks. */
    Cycles
    busyCycles() const
    {
        Cycles total = 0;
        for (const auto &b : _banks)
            total += b.busyCycles();
        return total;
    }

    std::uint64_t
    requests() const
    {
        std::uint64_t total = 0;
        for (const auto &b : _banks)
            total += b.requests();
        return total;
    }

  private:
    std::string _name;
    std::vector<Resource> _banks;
};

} // namespace secpb

#endif // SECPB_SIM_RESOURCE_HH

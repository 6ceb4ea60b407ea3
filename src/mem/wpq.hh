/**
 * @file
 * Write Pending Queue (WPQ) -- the ADR persistence domain in the MC.
 *
 * Anything accepted by the WPQ is guaranteed durable: on power loss, ADR
 * flushes the queue to the PCM cell array. The queue coalesces by block
 * address (a second write to a queued block merges into the existing
 * entry), which is what lets counter/MAC block writes from consecutive
 * SecPB drains share slots. When full, pushes fail and the producer must
 * wait for a free-slot notification -- this is the backpressure path that
 * throttles SecPB draining under write-heavy workloads.
 */

#ifndef SECPB_MEM_WPQ_HH
#define SECPB_MEM_WPQ_HH

#include <deque>
#include <vector>

#include "mem/flat_map.hh"
#include "mem/pcm.hh"
#include "sim/event_queue.hh"
#include "sim/wait_list.hh"
#include "stats/stats.hh"

namespace secpb
{

/** The memory controller's ADR write pending queue. */
class WritePendingQueue
{
  public:
    WritePendingQueue(EventQueue &eq, PcmModel &pcm, unsigned num_entries,
                      StatGroup &parent)
        : _eq(eq), _pcm(pcm), _numEntries(num_entries),
          _stats("wpq", &parent),
          statPushes(_stats, "pushes", "writes accepted by the WPQ"),
          statCoalesced(_stats, "coalesced",
                        "writes merged into an existing WPQ entry"),
          statFullRejects(_stats, "full_rejects",
                          "pushes rejected because the WPQ was full"),
          statOccupancy(_stats, "occupancy", "WPQ occupancy at push")
    {
        // Occupancy is capped at _numEntries; one up-front reservation
        // means the queued-block set never rehashes mid-run.
        _queued.reserve(num_entries);
    }

    /**
     * Try to enqueue a persistent write of the block at @p addr.
     * @return true if accepted (possibly coalesced); false if full.
     */
    bool
    push(Addr addr)
    {
        const Addr aligned = blockAlign(addr);
        if (_queued.contains(aligned)) {
            ++statCoalesced;
            return true;
        }
        if (_queued.size() >= _numEntries) {
            ++statFullRejects;
            TRACE_INSTANT("wpq", "wpq_full", _eq.curTick());
            return false;
        }
        _queued.insert(aligned);
        ++statPushes;
        statOccupancy.sample(static_cast<double>(_queued.size()));
        issue(aligned);
        return true;
    }

    /** Register a callback fired the next time a slot frees up. */
    void
    notifyOnSpace(EventCallback cb)
    {
        _waiters.add(std::move(cb));
    }

    std::size_t occupancy() const { return _queued.size(); }
    bool full() const { return _queued.size() >= _numEntries; }
    unsigned capacity() const { return _numEntries; }

    /**
     * Worst-case number of block writes the battery must push to PCM if a
     * crash happens right now (the WPQ is in the persistence domain, so
     * this is energy already provisioned by ADR, not the SecPB battery --
     * exposed for the energy model's accounting).
     */
    std::size_t pendingAtCrash() const { return _queued.size(); }

  private:
    void
    issue(Addr aligned)
    {
        _pcm.write(aligned, [this, aligned] {
            _queued.erase(aligned);
            // A broadcast: every waiter retries its push, and those that
            // lose re-register. It runs from a PCM completion event,
            // never from inside a waiter.
            _waiters.wakeAll();
        });
    }

    EventQueue &_eq;
    PcmModel &_pcm;
    unsigned _numEntries;
    FlatSet<Addr> _queued;
    WaitList _waiters;
    StatGroup _stats;

  public:
    Scalar statPushes;
    Scalar statCoalesced;
    Scalar statFullRejects;
    Average statOccupancy;
};

} // namespace secpb

#endif // SECPB_MEM_WPQ_HH

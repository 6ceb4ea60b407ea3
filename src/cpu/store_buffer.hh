/**
 * @file
 * The core's store buffer.
 *
 * Retired stores wait here until the SecPB accepts them. Stores issue to
 * the SecPB strictly in program order, one at a time: the SecPB raises its
 * unblock signal when the current store's early tuple subset is complete,
 * and only then is the next store offered (paper Section IV-B). When the
 * buffer fills, the core stalls retirement -- this is the mechanism that
 * converts security-metadata latency into slowdown.
 */

#ifndef SECPB_CPU_STORE_BUFFER_HH
#define SECPB_CPU_STORE_BUFFER_HH

#include <vector>

#include "secpb/secpb.hh"
#include "sim/event_queue.hh"
#include "sim/wait_list.hh"
#include "stats/stats.hh"

namespace secpb
{

/** In-order store buffer feeding the SecPB. */
class StoreBuffer
{
  public:
    StoreBuffer(EventQueue &eq, SecPb &pb, unsigned num_entries,
                StatGroup &parent)
        : _eq(eq), _pb(pb), _numEntries(num_entries), _ring(num_entries),
          _stats("store_buffer", &parent),
          statPushes(_stats, "pushes", "stores retired into the buffer"),
          statFullStalls(_stats, "full_stalls",
                         "retire attempts rejected: buffer full"),
          statOccupancy(_stats, "occupancy", "occupancy at each push")
    {
        fatal_if(num_entries == 0, "store buffer needs >= 1 entry");
    }

    /**
     * Retire a store into the buffer.
     * @return false if the buffer is full (core must stall).
     */
    bool
    tryPush(Addr addr, std::uint64_t value, std::uint32_t asid = 0)
    {
        if (_count >= _numEntries) {
            ++statFullStalls;
            TRACE_INSTANT_P("store_buffer", "full_stall", _eq.curTick(),
                            asid);
            return false;
        }
        ++statPushes;
        statOccupancy.sample(static_cast<double>(_count));
        _ring[slot(_count++)] = PendingStore{addr, value, asid};
        issueHead();
        return true;
    }

    /** Register a one-shot callback fired when a slot frees. */
    void
    notifyOnSpace(EventCallback cb)
    {
        _spaceWaiters.add(std::move(cb));
    }

    /** Register a one-shot callback fired when the buffer drains empty. */
    void
    notifyWhenEmpty(EventCallback cb)
    {
        if (empty()) {
            cb();
            return;
        }
        _emptyWaiters.add(std::move(cb));
    }

    bool empty() const { return _count == 0 && !_issueInFlight; }
    std::size_t occupancy() const { return _count; }

    /**
     * Stores retired but not yet accepted by the SecPB, in program
     * order. With a battery-backed store buffer (paper Section IV-C(b))
     * these are part of the persistence domain and the battery absorbs
     * them at crash time.
     */
    std::vector<std::pair<Addr, std::uint64_t>>
    pendingStores() const
    {
        std::vector<std::pair<Addr, std::uint64_t>> out;
        out.reserve(_count);
        // The head entry stays queued until its unblock arrives; when an
        // issue is in flight the SecPB has already accepted (persisted)
        // it, so it must not be absorbed a second time.
        for (std::size_t i = _issueInFlight ? 1 : 0; i < _count; ++i) {
            const PendingStore &ps = _ring[slot(i)];
            out.emplace_back(ps.addr, ps.value);
        }
        return out;
    }

  private:
    struct PendingStore
    {
        Addr addr;
        std::uint64_t value;
        std::uint32_t asid;
    };

    /** Ring slot of the @p i-th oldest queued store. */
    std::size_t
    slot(std::size_t i) const
    {
        const std::size_t s = _head + i;
        return s < _numEntries ? s : s - _numEntries;
    }

    void
    issueHead()
    {
        if (_issueInFlight || _count == 0)
            return;
        const PendingStore &head = _ring[_head];
        _issueInFlight = true;
        const bool accepted = _pb.tryAcceptStore(
            head.addr, head.value, [this] { headUnblocked(); },
            head.asid);
        if (!accepted) {
            _issueInFlight = false;
            if (!_waitingForPbSpace) {
                _waitingForPbSpace = true;
                _pb.notifyOnSpace([this] {
                    _waitingForPbSpace = false;
                    issueHead();
                });
            }
        }
    }

    void
    headUnblocked()
    {
        if (++_head == _numEntries)
            _head = 0;
        --_count;
        _issueInFlight = false;
        _spaceWaiters.wakeAll();
        if (_count == 0)
            _emptyWaiters.wakeAll();
        else
            issueHead();
    }

    EventQueue &_eq;
    SecPb &_pb;
    unsigned _numEntries;
    /** FIFO of retired stores: a fixed ring of _numEntries slots. */
    std::vector<PendingStore> _ring;
    std::size_t _head = 0;   ///< Slot of the oldest store.
    std::size_t _count = 0;  ///< Stores queued.
    bool _issueInFlight = false;
    bool _waitingForPbSpace = false;
    WaitList _spaceWaiters;
    WaitList _emptyWaiters;
    StatGroup _stats;

  public:
    Scalar statPushes;
    Scalar statFullStalls;
    Average statOccupancy;
};

} // namespace secpb

#endif // SECPB_CPU_STORE_BUFFER_HH

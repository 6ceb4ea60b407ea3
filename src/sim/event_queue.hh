/**
 * @file
 * Discrete-event simulation kernel.
 *
 * EventQueue keeps a time-ordered queue of callbacks. Events scheduled for
 * the same tick fire in FIFO order of scheduling, which keeps simulations
 * deterministic. The kernel is deliberately simple: every hardware model in
 * this project expresses timing by scheduling closures.
 *
 * Hot-path layout: a two-level queue. Events landing inside the near
 * window (the next kRingSize ticks -- which is nearly all of them: model
 * latencies top out around 600 cycles) go into a bucket ring, one FIFO
 * vector per tick, making schedule and pop O(1) with no sift at all.
 * An occupancy mask with one bit per bucket finds the next non-empty
 * bucket in at most 17 word loads, so advancing over an idle stretch
 * (a multi-core slice with no event before its barrier) costs O(1),
 * not one bucket probe per tick.
 * Events beyond the window fall back to a binary heap of 24-byte
 * {when, seq, slot} records. Callbacks themselves sit in a pooled slot
 * array indexed by both structures, and popped slots recycle through a
 * free list, so steady-state schedule/pop performs no heap allocation at
 * all (InlineCallback keeps typical captures inline too).
 *
 * Determinism across the two levels: for any tick T, every heap-resident
 * event was scheduled while curTick <= T - kRingSize, strictly before any
 * ring insert for T (which requires curTick > T - kRingSize); scheduling
 * order is seq order, so draining the heap's T-events (themselves
 * seq-ordered by the heap tie-break) before the T-bucket's FIFO
 * reproduces the exact global (tick, seq) order of a single heap.
 */

#ifndef SECPB_SIM_EVENT_QUEUE_HH
#define SECPB_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace secpb
{

/** Callback type fired when an event reaches the head of the queue. */
using EventCallback = InlineCallback;

/** Hook invoked after every executed event (fault injection, probes). */
using PostEventHook = std::function<void()>;

/**
 * A time-ordered event queue; the heart of the simulator.
 *
 * Usage:
 * @code
 *   EventQueue eq;
 *   eq.schedule(10, [] { ... });
 *   eq.run();             // runs until the queue drains
 * @endcode
 */
class EventQueue
{
  public:
    /** Current simulated time in core cycles. */
    Tick curTick() const { return _curTick; }

    /** Number of events executed so far (for progress reporting). */
    std::uint64_t numExecuted() const { return _numExecuted; }

    /**
     * Schedule @p cb to fire at absolute time @p when.
     * Scheduling in the past is a simulator bug.
     */
    void
    schedule(Tick when, EventCallback cb)
    {
        panic_if(when < _curTick,
                 "scheduling event in the past (%llu < %llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(_curTick));
        std::uint32_t slot;
        if (_freeSlots.empty()) {
            slot = static_cast<std::uint32_t>(_slots.size());
            _slots.push_back(std::move(cb));
        } else {
            slot = _freeSlots.back();
            _freeSlots.pop_back();
            _slots[slot] = std::move(cb);
        }
        if (when - _curTick < kRingSize) {
            const std::size_t bucket = when & kRingMask;
            _ring[bucket].slots.push_back(slot);
            _occupied[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
            ++_ringCount;
            // The scan cursor may already sit past this tick (it advances
            // over buckets that were empty when last probed).
            if (when < _ringScan)
                _ringScan = when;
        } else {
            _heap.push_back(HeapItem{when, _nextSeq++, slot});
            std::push_heap(_heap.begin(), _heap.end(), Later{});
        }
    }

    /** Schedule @p cb to fire @p delta cycles from now. */
    void
    scheduleIn(Cycles delta, EventCallback cb)
    {
        schedule(_curTick + delta, std::move(cb));
    }

    /** True when no events remain. */
    bool empty() const { return _heap.empty() && _ringCount == 0; }

    /**
     * @name Execution interposition (fault injection)
     * A post-event hook observes the simulation after every executed
     * event -- the only points where model state is consistent -- and may
     * call requestStop() to interrupt run() at an arbitrary event
     * boundary (e.g. to crash the machine mid-run at a chosen cycle or
     * persist count). The stop request is sticky until clearStop().
     * @{
     */
    void setPostEventHook(PostEventHook hook) { _postHook = std::move(hook); }
    void clearPostEventHook() { _postHook = nullptr; }
    void requestStop() { _stopRequested = true; }
    void clearStop() { _stopRequested = false; }
    bool stopRequested() const { return _stopRequested; }
    /** @} */

    /** Tick of the earliest pending event; MaxTick when empty. */
    Tick
    nextTick() const
    {
        return empty() ? MaxTick : nextPendingTick();
    }

    /**
     * Execute events until the queue drains or @p limit is reached.
     *
     * With an explicit @p limit, time advances to @p limit even when the
     * queue drains first -- a caller running to a deadline observes the
     * deadline, not the tick of whatever event happened to run last. An
     * open-ended run (or one interrupted by requestStop()) leaves time at
     * the last executed event.
     *
     * @return the tick at which execution stopped.
     */
    Tick
    run(Tick limit = MaxTick)
    {
        while (!empty() && !_stopRequested) {
            const Tick t = nextPendingTick();
            if (t > limit) {
                _curTick = limit;
                return _curTick;
            }
            popAndExecute(t);
        }
        if (limit != MaxTick && !_stopRequested && _curTick < limit)
            _curTick = limit;
        return _curTick;
    }

    /** Execute exactly one event, if any. @return true if one ran. */
    bool
    step()
    {
        if (empty())
            return false;
        popAndExecute(nextPendingTick());
        return true;
    }

    /** Reset time and drop all pending events (tests only). */
    void
    reset()
    {
        _curTick = 0;
        _numExecuted = 0;
        _nextSeq = 0;
        _stopRequested = false;
        _postHook = nullptr;
        _heap.clear();
        _slots.clear();
        _freeSlots.clear();
        for (Bucket &b : _ring) {
            b.slots.clear();
            b.head = 0;
        }
        _occupied.fill(0);
        _ringCount = 0;
        _ringScan = 0;
    }

  private:
    /** Near-window span: events within this many ticks take the ring. */
    static constexpr std::size_t kRingSize = 1024;
    static constexpr Tick kRingMask = kRingSize - 1;
    static constexpr std::size_t kMaskWords = kRingSize / 64;

    /** One ring bucket: FIFO of slot ids for a single pending tick. */
    struct Bucket
    {
        std::vector<std::uint32_t> slots;
        std::size_t head = 0;
    };

    /** Heap record: time order only; the callback lives in _slots. */
    struct HeapItem
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const HeapItem &a, const HeapItem &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * Tick of the earliest pending event; requires !empty(). Moves the
     * (mutable) ring scan cursor to the first occupied bucket at or after
     * it, found in the occupancy mask in at most kMaskWords + 1 word
     * loads: the cursor's word, the others around the ring, and the
     * cursor's word again for the buckets behind it.
     */
    Tick
    nextPendingTick() const
    {
        const Tick heap_t = _heap.empty() ? MaxTick : _heap.front().when;
        if (_ringCount == 0)
            return heap_t;
        if (_ringScan < _curTick)
            _ringScan = _curTick;
        // Every ring entry lies in [_ringScan, _curTick + kRingSize), so
        // the first occupied bucket going round the ring from the
        // cursor's holds the earliest ring tick, and its distance from
        // the cursor's bucket is that tick's distance from the cursor.
        const std::size_t from = _ringScan & kRingMask;
        const std::size_t w0 = from / 64;
        const std::uint64_t ahead = ~std::uint64_t{0} << (from % 64);
        std::size_t bucket;
        if (const std::uint64_t bits = _occupied[w0] & ahead) {
            bucket = w0 * 64 + std::countr_zero(bits);
        } else {
            // The other words in ring order. A scan that comes back round
            // to w0 finds only buckets behind the cursor there: the ones
            // ahead were just seen clear.
            std::size_t w = (w0 + 1) % kMaskWords;
            while (w != w0 && _occupied[w] == 0)
                w = (w + 1) % kMaskWords;
            panic_if(_occupied[w] == 0, "event ring holds %zu events but "
                     "no occupied bucket", _ringCount);
            bucket = w * 64 + std::countr_zero(_occupied[w]);
        }
        _ringScan += (bucket - from) & kRingMask;
        return std::min(heap_t, _ringScan);
    }

    void
    popAndExecute(Tick t)
    {
        std::uint32_t slot;
        if (!_heap.empty() && _heap.front().when == t) {
            // Heap events for a tick always precede its ring events in
            // seq order (see file comment), so drain them first.
            slot = _heap.front().slot;
            std::pop_heap(_heap.begin(), _heap.end(), Later{});
            _heap.pop_back();
        } else {
            Bucket &b = _ring[t & kRingMask];
            slot = b.slots[b.head++];
            --_ringCount;
            if (b.head == b.slots.size()) {
                // Drained: recycle in place, keeping the capacity.
                b.slots.clear();
                b.head = 0;
                const std::size_t bucket = t & kRingMask;
                _occupied[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
            }
        }
        _curTick = t;
        // Move the callback out and recycle the slot *before* invoking:
        // the callback may schedule (growing the pool) or reset() the
        // queue, and moved-from InlineCallback is guaranteed empty.
        EventCallback cb = std::move(_slots[slot]);
        _freeSlots.push_back(slot);
        ++_numExecuted;
        cb();
        if (_postHook)
            _postHook();
    }

    std::vector<HeapItem> _heap;
    std::vector<EventCallback> _slots;
    std::vector<std::uint32_t> _freeSlots;
    std::array<Bucket, kRingSize> _ring;
    /** Bit b set iff bucket b holds an unpopped event. */
    std::array<std::uint64_t, kMaskWords> _occupied{};
    std::size_t _ringCount = 0;
    /** No pending ring entries at ticks below this (scan memoization). */
    mutable Tick _ringScan = 0;
    Tick _curTick = 0;
    std::uint64_t _numExecuted = 0;
    std::uint64_t _nextSeq = 0;
    PostEventHook _postHook;
    bool _stopRequested = false;
};

} // namespace secpb

#endif // SECPB_SIM_EVENT_QUEUE_HH

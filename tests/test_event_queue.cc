/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <queue>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/wait_list.hh"

using namespace secpb;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextTick(), MaxTick);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.curTick(), 28u);
}

TEST(EventQueue, SchedulingAtCurrentTickIsAllowed)
{
    EventQueue eq;
    bool inner = false;
    eq.schedule(10, [&] {
        eq.schedule(eq.curTick(), [&] { inner = true; });
    });
    eq.run();
    EXPECT_TRUE(inner);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    eq.schedule(20, [] {});
    eq.reset();
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.numExecuted(), 0u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 42; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.numExecuted(), 42u);
}

TEST(EventQueue, RunAdvancesToLimitWhenQueueDrains)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    // The queue drains at tick 10, but the caller asked to simulate up to
    // 50: time must advance to the limit, not stall at the last event.
    EXPECT_EQ(eq.run(50), 50u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 50u);
    // An empty queue advances to an explicit limit too.
    EXPECT_EQ(eq.run(80), 80u);
    EXPECT_EQ(eq.curTick(), 80u);
    // Open-ended runs still finish at the last executed event.
    eq.schedule(90, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(eq.curTick(), 90u);
}

TEST(EventQueue, LargeCapturesFallBackToHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 16> payload{};  // 128 B > inline buffer
    std::iota(payload.begin(), payload.end(), 1u);
    std::uint64_t sum = 0;
    eq.schedule(1, [payload, &sum] {
        for (std::uint64_t v : payload)
            sum += v;
    });
    eq.run();
    EXPECT_EQ(sum, 16u * 17u / 2u);
}

TEST(EventQueue, MoveOnlyCallablesAreSchedulable)
{
    EventQueue eq;
    auto p = std::make_unique<int>(41);
    int got = 0;
    eq.schedule(1, [p = std::move(p), &got] { got = *p + 1; });
    eq.run();
    EXPECT_EQ(got, 42);
}

TEST(EventQueue, CallbackMoveLeavesSourceEmpty)
{
    EventCallback a = [] {};
    EXPECT_TRUE(static_cast<bool>(a));
    EventCallback b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b = nullptr;
    EXPECT_FALSE(static_cast<bool>(b));
}

TEST(EventQueue, PoolRecyclesSlotsAcrossWaves)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (int w = 0; w < 100; ++w) {
        const Tick base = eq.curTick();
        for (int i = 0; i < 64; ++i)
            eq.schedule(base + 1 + static_cast<Tick>(i),
                        [&fired] { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 6400u);
    EXPECT_EQ(eq.numExecuted(), 6400u);
}

namespace
{

/**
 * Differential fuzz of the event kernel against a reference priority
 * queue ordered by (tick, scheduling order). Every event scheduled on
 * the kernel is mirrored into the reference; when an event fires it
 * must be the reference's minimum, at its own tick. Delays straddle the
 * mask-word (64) and ring (1,024) edges, so events land in both levels
 * and in every position relative to the scan cursor.
 */
class QueueFuzz
{
  public:
    explicit QueueFuzz(std::uint64_t seed) : _rng(seed) {}

    /** Run @p actions random actions; stops at the first divergence. */
    void
    run(unsigned actions)
    {
        for (unsigned i = 0; i < actions; ++i) {
            // A diverged queue may point at an empty bucket: stop.
            if (!checkNextTick())
                return;
            const std::uint64_t r = _rng.below(100);
            if (r < 30) {
                schedule(randomDelay());
            } else if (r < 60) {
                const bool had_event = !_ref.empty();
                EXPECT_EQ(_eq.step(), had_event);
            } else if (r < 94) {
                // A slice to a deadline, often one inside an empty stretch.
                const Tick limit = _eq.curTick() + randomDelay();
                EXPECT_EQ(_eq.run(limit), limit);
                EXPECT_GT(refNext(), limit);
            } else if (r < 97) {
                _eq.run();
                EXPECT_TRUE(_ref.empty());
            } else {
                // A reset with events pending in the ring and the heap:
                // nothing of them may survive into the fresh schedule.
                _eq.reset();
                _ref = {};
                EXPECT_TRUE(_eq.empty());
                EXPECT_EQ(_eq.nextTick(), MaxTick);
                EXPECT_EQ(_eq.curTick(), 0u);
                for (int k = 0; k < 3; ++k)
                    schedule(randomDelay());
            }
        }
        if (!checkNextTick())
            return;
        _eq.run();
        EXPECT_TRUE(_ref.empty());
    }

    bool diverged() const { return _diverged; }
    std::uint64_t fired() const { return _fired; }

  private:
    struct RefEvent
    {
        Tick when;
        std::uint64_t id;  ///< Scheduling order: the same-tick tie-break.
    };

    struct RefLater
    {
        bool
        operator()(const RefEvent &a, const RefEvent &b) const
        {
            return a.when != b.when ? a.when > b.when : a.id > b.id;
        }
    };

    Tick
    randomDelay()
    {
        static constexpr Tick Edges[] = {0, 1, 63, 64, 1023, 1024, 1025};
        if (_rng.chance(0.6))
            return Edges[_rng.below(std::size(Edges))];
        return _rng.below(4096);
    }

    void
    schedule(Tick delay)
    {
        const Tick when = _eq.curTick() + delay;
        const std::uint64_t id = _nextId++;
        _ref.push(RefEvent{when, id});
        _eq.schedule(when, [this, id] { fire(id); });
    }

    /** An event fires: it must be the reference's minimum. Some events
     *  schedule more (0.7 children on average, so chains end). */
    void
    fire(std::uint64_t id)
    {
        ++_fired;
        if (_diverged)
            return;
        if (_ref.empty() || _ref.top().id != id ||
            _ref.top().when != _eq.curTick()) {
            ADD_FAILURE() << "event " << id << " fired at tick "
                          << _eq.curTick() << "; reference expected "
                          << (_ref.empty() ? MaxTick : _ref.top().id)
                          << " at " << refNext();
            _diverged = true;
            return;
        }
        _ref.pop();
        if (_rng.chance(0.45))
            return;
        const int children = _rng.chance(0.75) ? 1 : 2;
        for (int k = 0; k < children; ++k)
            schedule(randomDelay());
    }

    Tick refNext() const { return _ref.empty() ? MaxTick : _ref.top().when; }

    /** @return false once the kernel and the reference diverged. */
    bool
    checkNextTick()
    {
        if (!_diverged && _eq.nextTick() != refNext()) {
            ADD_FAILURE() << "nextTick() " << _eq.nextTick()
                          << ", reference " << refNext() << " at tick "
                          << _eq.curTick();
            _diverged = true;
        }
        return !_diverged;
    }

    EventQueue _eq;
    std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> _ref;
    Rng _rng;
    std::uint64_t _nextId = 0;
    std::uint64_t _fired = 0;
    bool _diverged = false;
};

} // namespace

TEST(EventQueueFuzz, MatchesReferencePriorityQueue)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        QueueFuzz fuzz(seed);
        fuzz.run(4000);
        EXPECT_FALSE(fuzz.diverged()) << "seed " << seed;
        EXPECT_GT(fuzz.fired(), 1000u) << "seed " << seed;
    }
}

TEST(EventQueue, ResetForgetsOccupiedBuckets)
{
    // Events pending at ticks 5 and 700 when the queue resets: a fresh
    // event at 900 must be the next one, not a ghost of the old buckets.
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.schedule(700, [&] { ++fired; });
    eq.run(2);
    eq.reset();
    eq.schedule(900, [&] { fired += 10; });
    EXPECT_EQ(eq.nextTick(), 900u);
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.curTick(), 900u);
}

TEST(EventQueue, IdleSliceJumpsAcrossTheRing)
{
    // One event per stretch, each far past a mask word and around the
    // ring's end; slices stop short of, at, and past each event.
    EventQueue eq;
    std::vector<Tick> seen;
    Tick when = 0;
    for (Tick gap : {1000u, 1u, 1023u, 64u, 63u, 1024u, 1025u, 700u}) {
        when += gap;
        eq.schedule(when, [&] { seen.push_back(eq.curTick()); });
        EXPECT_EQ(eq.nextTick(), when);
        EXPECT_EQ(eq.run(when - 1), when - 1);
        EXPECT_EQ(eq.nextTick(), when);
        EXPECT_EQ(eq.run(when), when);
        EXPECT_TRUE(eq.empty());
    }
    EXPECT_EQ(seen, (std::vector<Tick>{1000, 1001, 2024, 2088, 2151, 3175,
                                       4200, 4900}));
}

TEST(WaitList, WakesInOrderAndReRegistrantsWaitForTheNextWake)
{
    WaitList list;
    std::vector<int> order;
    list.add([&] { order.push_back(1); });
    list.add([&] {
        order.push_back(2);
        list.add([&] { order.push_back(4); });
    });
    list.add([&] { order.push_back(3); });
    list.wakeAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    list.wakeAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    list.wakeAll();  // empty: nothing fires
    EXPECT_EQ(order.size(), 4u);
}

TEST(WaitList, WakeReEnteringItselfPanics)
{
    // The wake runs over a scratch vector a nested wake would clobber.
    WaitList list;
    list.add([&] {
        list.add([] {});
        list.wakeAll();
    });
    EXPECT_DEATH(list.wakeAll(), "wake re-entered");
}

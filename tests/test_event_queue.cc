/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <numeric>

#include "sim/event_queue.hh"
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

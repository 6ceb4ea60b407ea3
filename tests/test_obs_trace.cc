/**
 * @file
 * Unit tests for the Perfetto-compatible event tracer: recording,
 * (ts, seq) sorting, bounded capacity, session scoping, the macro
 * no-op path, and the shape of the emitted trace_event JSON.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace.hh"

using namespace secpb;
using namespace secpb::obs;

TEST(ObsTrace, RecordsSpansInstantsAndCounters)
{
    Tracer t;
    t.span("secpb", "drain", 100, 150, 3);
    t.instant("secpb", "pb_full", 120);
    t.counter("sampler", "occupancy", 130, 17.5);

    ASSERT_EQ(t.numEvents(), 3u);
    const TraceEvent &span = t.events()[0];
    EXPECT_EQ(span.phase, TraceEvent::Phase::Span);
    EXPECT_EQ(span.ts, 100u);
    EXPECT_EQ(span.dur, 50u);
    EXPECT_EQ(span.pid, 3u);
    EXPECT_EQ(span.name, "drain");

    const TraceEvent &inst = t.events()[1];
    EXPECT_EQ(inst.phase, TraceEvent::Phase::Instant);
    EXPECT_EQ(inst.pid, 0u);

    const TraceEvent &ctr = t.events()[2];
    EXPECT_EQ(ctr.phase, TraceEvent::Phase::Counter);
    EXPECT_DOUBLE_EQ(ctr.counterValue, 17.5);
}

TEST(ObsTrace, InternsComponentTids)
{
    Tracer t;
    t.instant("secpb", "a", 1);
    t.instant("bmt", "b", 2);
    t.instant("secpb", "c", 3);
    EXPECT_EQ(t.events()[0].tid, t.events()[2].tid);
    EXPECT_NE(t.events()[0].tid, t.events()[1].tid);
    ASSERT_EQ(t.components().size(), 2u);
    EXPECT_EQ(t.components()[0], "secpb");
    EXPECT_EQ(t.components()[1], "bmt");
}

TEST(ObsTrace, SortedEventsOrderByTickThenSeq)
{
    Tracer t;
    t.instant("c", "late", 50);
    t.instant("c", "early", 10);
    t.instant("c", "tie_first", 30);
    t.instant("c", "tie_second", 30);

    const auto sorted = t.sortedEvents();
    ASSERT_EQ(sorted.size(), 4u);
    EXPECT_EQ(sorted[0].name, "early");
    EXPECT_EQ(sorted[1].name, "tie_first");   // same tick: seq breaks the tie
    EXPECT_EQ(sorted[2].name, "tie_second");
    EXPECT_EQ(sorted[3].name, "late");
}

TEST(ObsTrace, LaneOrdersSameTickEventsBeforeRecordingOrder)
{
    // A span cut by an epoch barrier is recorded after a later lane's
    // events of the same tick; its lane still sorts it first.
    Tracer t;
    t.setLane(1);
    t.instant("c", "core1", 30);
    t.setLane(0);
    t.span("c", "core0_span", 30, 40);
    t.instant("c", "core0_next", 31);

    const auto sorted = t.sortedEvents();
    ASSERT_EQ(sorted.size(), 3u);
    EXPECT_EQ(sorted[0].name, "core0_span");
    EXPECT_EQ(sorted[1].name, "core1");
    EXPECT_EQ(sorted[2].name, "core0_next");  // tick still decides first
}

TEST(ObsTrace, CapacityBoundsBufferAndCountsDrops)
{
    Tracer t(/*capacity=*/4);
    for (int i = 0; i < 10; ++i)
        t.instant("c", "e", static_cast<Tick>(i));
    EXPECT_EQ(t.numEvents(), 4u);
    EXPECT_EQ(t.numDropped(), 6u);

    t.clear();
    EXPECT_EQ(t.numEvents(), 0u);
    EXPECT_EQ(t.numDropped(), 0u);
    t.instant("c", "again", 1);
    EXPECT_EQ(t.numEvents(), 1u);
}

TEST(ObsTrace, MacrosAreNoOpsWithoutSession)
{
    ASSERT_EQ(current(), nullptr);
    // Must not crash or record anywhere.
    TRACE_SPAN("c", "s", 0, 10);
    TRACE_INSTANT("c", "i", 5);
    TRACE_COUNTER("c", "v", 5, 1.0);
    EXPECT_EQ(current(), nullptr);
}

TEST(ObsTrace, SessionInstallsAndMacrosRecord)
{
    Tracer t;
    {
        TraceSession session(&t);
        EXPECT_EQ(current(), &t);
        TRACE_SPAN("c", "s", 0, 10);
        TRACE_INSTANT_P("c", "i", 5, 7);
    }
    EXPECT_EQ(current(), nullptr);
    ASSERT_EQ(t.numEvents(), 2u);
    EXPECT_EQ(t.events()[1].pid, 7u);
}

TEST(ObsTrace, SessionsNestAndRestore)
{
    Tracer outer, inner;
    TraceSession a(&outer);
    {
        TraceSession b(&inner);
        EXPECT_EQ(current(), &inner);
        TRACE_INSTANT("c", "inner_only", 1);
    }
    EXPECT_EQ(current(), &outer);
    TRACE_INSTANT("c", "outer_only", 2);
    EXPECT_EQ(inner.numEvents(), 1u);
    EXPECT_EQ(outer.numEvents(), 1u);
    EXPECT_EQ(inner.events()[0].name, "inner_only");
    EXPECT_EQ(outer.events()[0].name, "outer_only");
}

TEST(ObsTrace, JsonHasMetadataAndSortedEvents)
{
    Tracer t;
    t.span("secpb", "drain", 20, 40, 1);
    t.instant("bmt", "merge", 10);

    std::ostringstream os;
    t.writeJson(os);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    // Metadata names both the process (asid) and each component track.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("asid 0"), std::string::npos);
    EXPECT_NE(json.find("asid 1"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"secpb\""), std::string::npos);
    EXPECT_NE(json.find("\"bmt\""), std::string::npos);
    // Events are sorted: the tick-10 instant precedes the tick-20 span.
    EXPECT_LT(json.find("\"merge\""), json.find("\"drain\""));
    // Span carries a duration; instant carries the scope marker.
    EXPECT_NE(json.find("\"dur\": 20"), std::string::npos);
    EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
    // No drops -> no droppedEvents field.
    EXPECT_EQ(json.find("droppedEvents"), std::string::npos);
}

TEST(ObsTrace, JsonReportsDroppedEvents)
{
    Tracer t(/*capacity=*/1);
    t.instant("c", "kept", 1);
    t.instant("c", "dropped", 2);
    std::ostringstream os;
    t.writeJson(os);
    EXPECT_NE(os.str().find("\"droppedEvents\": 1"), std::string::npos);
}

TEST(ObsTraceDeath, BackwardsSpanPanics)
{
    Tracer t;
    EXPECT_DEATH(t.span("c", "bad", 10, 5), "ends before it starts");
}

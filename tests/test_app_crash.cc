/**
 * @file
 * Tests for the application-crash handling policies of Section III-B:
 * drain-process (ASID-tagged entries, per-process isolation) versus
 * drain-all (the paper's choice).
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "workload/scripted.hh"

using namespace secpb;

namespace
{

SystemConfig
smallCfg()
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Cobcm;
    cfg.secpb.numEntries = 16;
    cfg.pmDataBytes = 1ULL << 30;
    return cfg;
}

/** Two processes write to disjoint regions. */
void
runTwoProcesses(SecPbSystem &sys)
{
    ScriptedGenerator gen;
    for (int i = 0; i < 5; ++i) {
        gen.store(static_cast<Addr>(i) * BlockSize, 0xA000 + i, /*asid=*/1);
        gen.store(0x800000 + static_cast<Addr>(i) * BlockSize, 0xB000 + i,
                  /*asid=*/2);
    }
    sys.run(gen);
}

} // namespace

TEST(AppCrash, DrainProcessDrainsOnlyTheVictim)
{
    SecPbSystem sys(smallCfg());
    runTwoProcesses(sys);
    const std::size_t before = sys.secpb().occupancy();
    ASSERT_EQ(before, 10u);

    CrashWork w = sys.secpb().applicationCrash(
        1, SecPb::AppCrashPolicy::DrainProcess);
    EXPECT_EQ(w.entriesDrained, 5u);
    EXPECT_EQ(sys.secpb().occupancy(), 5u);

    // Process 1's data is persisted and recoverable...
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(sys.pm().hasData(static_cast<Addr>(i) * BlockSize));
    // ...process 2's entries remain resident (coalescing preserved).
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(
            sys.pm().hasData(0x800000 + static_cast<Addr>(i) * BlockSize));
}

TEST(AppCrash, DrainAllIgnoresAsid)
{
    SecPbSystem sys(smallCfg());
    runTwoProcesses(sys);
    CrashWork w = sys.secpb().applicationCrash(
        1, SecPb::AppCrashPolicy::DrainAll);
    EXPECT_EQ(w.entriesDrained, 10u);
    EXPECT_TRUE(sys.secpb().empty());
}

TEST(AppCrash, DrainedProcessDataVerifies)
{
    SecPbSystem sys(smallCfg());
    runTwoProcesses(sys);
    sys.secpb().applicationCrash(1, SecPb::AppCrashPolicy::DrainProcess);

    // Verify only the victim's blocks: tuple-complete and decryptable.
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport report;
    for (int i = 0; i < 5; ++i) {
        const Addr a = static_cast<Addr>(i) * BlockSize;
        const BlockData expected = sys.oracle().blockContent(a);
        verifier.verifyBlock(sys.pm(), sys.tree(), a, &expected, report);
    }
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.blocksChecked, 5u);
}

TEST(AppCrash, SurvivorContinuesAndFullCrashStillRecovers)
{
    // After a drain-process app crash, the machine keeps running; a
    // later system crash must still recover everything.
    SecPbSystem sys(smallCfg());
    runTwoProcesses(sys);
    sys.secpb().applicationCrash(1, SecPb::AppCrashPolicy::DrainProcess);

    // Process 2 keeps writing.
    for (int i = 5; i < 8; ++i)
        sys.storeBuffer().tryPush(
            0x800000 + static_cast<Addr>(i) * BlockSize, 0xB000 + i, 2);
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);

    CrashReport cr = sys.crashNow();
    EXPECT_EQ(cr.verdict, CrashVerdict::Pass);
}

TEST(AppCrash, DrainProcessOnEagerScheme)
{
    // NoGap entries are tuple-complete already; drain-process just moves
    // them out with no late work.
    SystemConfig cfg = smallCfg();
    cfg.scheme = Scheme::NoGap;
    SecPbSystem sys(cfg);
    runTwoProcesses(sys);
    CrashWork w = sys.secpb().applicationCrash(
        2, SecPb::AppCrashPolicy::DrainProcess);
    EXPECT_EQ(w.entriesDrained, 5u);
    EXPECT_EQ(w.otpsGenerated, 0u);
    EXPECT_EQ(w.bmtRootUpdates, 0u);
}

TEST(AppCrash, UnknownAsidDrainsNothing)
{
    SecPbSystem sys(smallCfg());
    runTwoProcesses(sys);
    CrashWork w = sys.secpb().applicationCrash(
        7, SecPb::AppCrashPolicy::DrainProcess);
    EXPECT_EQ(w.entriesDrained, 0u);
    EXPECT_EQ(sys.secpb().occupancy(), 10u);
}

TEST(AppCrash, CrossAsidCoalescingKeepsAllocatorTag)
{
    // A block allocated by process 1 and later written by process 2
    // coalesces into the same entry, which keeps the allocator's ASID:
    // process 2's crash does not drain it, process 1's does -- and the
    // drain carries process 2's coalesced value with it.
    SecPbSystem sys(smallCfg());
    ScriptedGenerator gen;
    gen.store(0x0, 0xAAAA, /*asid=*/1);
    gen.store(0x8, 0xBBBB, /*asid=*/2);  // same block, different process
    sys.run(gen);
    ASSERT_EQ(sys.secpb().occupancy(), 1u);

    CrashWork w2 = sys.secpb().applicationCrash(
        2, SecPb::AppCrashPolicy::DrainProcess);
    EXPECT_EQ(w2.entriesDrained, 0u);
    EXPECT_EQ(sys.secpb().occupancy(), 1u);

    CrashWork w1 = sys.secpb().applicationCrash(
        1, SecPb::AppCrashPolicy::DrainProcess);
    EXPECT_EQ(w1.entriesDrained, 1u);
    EXPECT_TRUE(sys.secpb().empty());
    ASSERT_TRUE(sys.pm().hasData(0x0));

    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport report;
    const BlockData expected = sys.oracle().blockContent(0x0);
    verifier.verifyBlock(sys.pm(), sys.tree(), 0x0, &expected, report);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(blockWord(expected, 1), 0xBBBBu);
}

TEST(AppCrash, SequentialProcessCrashesEmptyTheBuffer)
{
    // Three processes with resident entries; crash them one by one with
    // DrainProcess. Each crash drains exactly its own entries, and the
    // buffer ends empty with every block recoverable.
    SecPbSystem sys(smallCfg());
    ScriptedGenerator gen;
    for (int i = 0; i < 3; ++i)
        for (std::uint32_t asid = 1; asid <= 3; ++asid)
            gen.store((asid * 0x100000ULL) +
                          static_cast<Addr>(i) * BlockSize,
                      asid * 0x1000 + i, asid);
    sys.run(gen);
    ASSERT_EQ(sys.secpb().occupancy(), 9u);

    for (std::uint32_t asid = 1; asid <= 3; ++asid) {
        CrashWork w = sys.secpb().applicationCrash(
            asid, SecPb::AppCrashPolicy::DrainProcess);
        EXPECT_EQ(w.entriesDrained, 3u) << "asid " << asid;
        EXPECT_EQ(sys.secpb().occupancy(), 3u * (3 - asid));
    }
    EXPECT_TRUE(sys.secpb().empty());

    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport r =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.blocksChecked, 9u);
}

TEST(AppCrash, DrainAllWithManyAsidsRecoversEverything)
{
    // 5 ASIDs x 2 blocks = 10 residents, below the 12-entry high
    // watermark so no background drain steals entries mid-test.
    SecPbSystem sys(smallCfg());
    ScriptedGenerator gen;
    for (std::uint32_t asid = 1; asid <= 5; ++asid)
        for (int i = 0; i < 2; ++i)
            gen.store((asid * 0x200000ULL) +
                          static_cast<Addr>(i) * BlockSize,
                      asid + i, asid);
    sys.run(gen);
    const std::size_t resident = sys.secpb().occupancy();
    ASSERT_GT(resident, 0u);

    CrashWork w = sys.secpb().applicationCrash(
        3, SecPb::AppCrashPolicy::DrainAll);
    EXPECT_EQ(w.entriesDrained, resident);
    EXPECT_TRUE(sys.secpb().empty());

    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport r =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.blocksChecked, 10u);
}

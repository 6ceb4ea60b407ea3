/**
 * @file
 * Unit tests for the PCM timing model and the ADR write pending queue.
 */

#include <gtest/gtest.h>

#include "mem/pcm.hh"
#include "mem/wpq.hh"

using namespace secpb;

namespace
{

PcmConfig
smallPcm()
{
    PcmConfig cfg;
    cfg.readLatency = 100;
    cfg.writeLatency = 300;
    cfg.numBanks = 2;
    return cfg;
}

} // namespace

TEST(Pcm, ReadLatencyObserved)
{
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, smallPcm(), g);
    Tick done = 0;
    pcm.read(0, [&] { done = eq.curTick(); });
    eq.run();
    EXPECT_EQ(done, 100u);
    EXPECT_EQ(pcm.numReads(), 1u);
}

TEST(Pcm, WritesToSameBankSerialize)
{
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, smallPcm(), g);
    Tick d1 = 0, d2 = 0;
    const Addr same_bank = 2 * BlockSize;  // 2 banks
    pcm.write(0, [&] { d1 = eq.curTick(); });
    pcm.write(same_bank, [&] { d2 = eq.curTick(); });
    eq.run();
    EXPECT_EQ(d1, 300u);
    EXPECT_EQ(d2, 600u);
}

TEST(Pcm, WritesToDifferentBanksOverlap)
{
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, smallPcm(), g);
    Tick d1 = 0, d2 = 0;
    pcm.write(0, [&] { d1 = eq.curTick(); });
    pcm.write(BlockSize, [&] { d2 = eq.curTick(); });
    eq.run();
    EXPECT_EQ(d1, 300u);
    EXPECT_EQ(d2, 300u);
}

TEST(Pcm, OccupancyStyleReturnsQueuedDelay)
{
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, smallPcm(), g);
    EXPECT_EQ(pcm.readOccupy(0), 100u);
    EXPECT_EQ(pcm.readOccupy(0), 200u);  // queued behind the first
}

TEST(Pcm, IdleBankStartsNow)
{
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, smallPcm(), g);
    Tick finish = 0;
    eq.schedule(1000, [&] { finish = pcm.read(0, nullptr); });
    eq.run();
    EXPECT_EQ(finish, 1100u);  // the idle bank starts at 1000, not 0
}

TEST(Pcm, BackToBackReadsQueueAndCount)
{
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, smallPcm(), g);
    Tick t1 = 0, t2 = 0;
    pcm.read(0, [&] { t1 = eq.curTick(); });
    pcm.read(0, [&] { t2 = eq.curTick(); });
    eq.run();
    EXPECT_EQ(t1, 100u);
    EXPECT_EQ(t2, 200u);
    EXPECT_EQ(pcm.numReads(), 2u);
    // The second read's delay includes its 100 cycles queued in the bank.
    EXPECT_EQ(pcm.statReadDelay.count(), 2u);
    EXPECT_DOUBLE_EQ(pcm.statReadDelay.mean(), 150.0);
}

TEST(Pcm, FourBanksOverlapAcrossInterleave)
{
    EventQueue eq;
    StatGroup g("g");
    PcmConfig cfg = smallPcm();
    cfg.numBanks = 4;
    PcmModel pcm(eq, cfg, g);
    // Consecutive blocks interleave over the banks: all four run at once.
    for (Addr blk = 0; blk < 4; ++blk)
        EXPECT_EQ(pcm.write(blk * BlockSize, nullptr), 300u) << blk;
}

TEST(Pcm, BankInterleaveWrapsToSameBank)
{
    EventQueue eq;
    StatGroup g("g");
    PcmConfig cfg = smallPcm();
    cfg.numBanks = 4;
    PcmModel pcm(eq, cfg, g);
    EXPECT_EQ(pcm.write(0, nullptr), 300u);
    EXPECT_EQ(pcm.write(4 * BlockSize, nullptr), 600u);  // bank 0 again
    EXPECT_EQ(pcm.write(5 * BlockSize, nullptr), 300u);  // bank 1, idle
}

TEST(Wpq, PushAndDrainFreesSlot)
{
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, smallPcm(), g);
    WritePendingQueue wpq(eq, pcm, 2, g);
    EXPECT_TRUE(wpq.push(0x000));
    EXPECT_EQ(wpq.occupancy(), 1u);
    eq.run();
    EXPECT_EQ(wpq.occupancy(), 0u);
    EXPECT_EQ(pcm.numWrites(), 1u);
}

TEST(Wpq, CoalescesSameBlock)
{
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, smallPcm(), g);
    WritePendingQueue wpq(eq, pcm, 2, g);
    EXPECT_TRUE(wpq.push(0x100));
    EXPECT_TRUE(wpq.push(0x108));  // same block -> coalesce
    EXPECT_EQ(wpq.occupancy(), 1u);
    EXPECT_DOUBLE_EQ(wpq.statCoalesced.value(), 1.0);
}

TEST(Wpq, RejectsWhenFullThenNotifies)
{
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, smallPcm(), g);
    WritePendingQueue wpq(eq, pcm, 2, g);
    EXPECT_TRUE(wpq.push(0 * BlockSize));
    EXPECT_TRUE(wpq.push(1 * BlockSize));
    EXPECT_TRUE(wpq.full());
    EXPECT_FALSE(wpq.push(2 * BlockSize));
    bool notified = false;
    wpq.notifyOnSpace([&] { notified = true; });
    eq.run();
    EXPECT_TRUE(notified);
    EXPECT_FALSE(wpq.full());
}

TEST(Wpq, FullRejectCounted)
{
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, smallPcm(), g);
    WritePendingQueue wpq(eq, pcm, 1, g);
    wpq.push(0 * BlockSize);
    wpq.push(1 * BlockSize);
    EXPECT_DOUBLE_EQ(wpq.statFullRejects.value(), 1.0);
}

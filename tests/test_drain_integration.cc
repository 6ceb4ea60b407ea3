/**
 * @file
 * Integration tests of the drain engine against the WPQ and PCM: retry
 * on WPQ-full, write coalescing, metadata-cache writebacks, and drain
 * ordering.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "workload/scripted.hh"

using namespace secpb;

namespace
{

SystemConfig
tinyWpqCfg(Scheme scheme = Scheme::Cobcm)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.secpb.numEntries = 8;
    cfg.wpqEntries = 2;  // tiny ADR domain: drains must retry
    cfg.pmDataBytes = 1ULL << 30;
    // Slow PCM writes keep the WPQ congested.
    cfg.pcm.writeLatency = 2000;
    cfg.pcm.numBanks = 1;
    return cfg;
}

} // namespace

TEST(DrainIntegration, TinyWpqStillDrainsEverything)
{
    SecPbSystem sys(tinyWpqCfg());
    ScriptedGenerator gen;
    for (Addr a = 0; a < 24 * BlockSize; a += BlockSize)
        gen.store(a, a + 5);
    SimulationResult r = sys.run(gen);
    EXPECT_EQ(r.persists, 24u);
    // Force the residue out and verify the WPQ-full retry path persisted
    // every drained block.
    sys.secpb().drainAll(nullptr);
    sys.runUntil(sys.eventQueue().curTick() + 10'000'000);
    EXPECT_TRUE(sys.secpb().empty());
    for (Addr a = 0; a < 24 * BlockSize; a += BlockSize)
        EXPECT_TRUE(sys.pm().hasData(a)) << a;
    EXPECT_GT(sys.wpq().statFullRejects.value(), 0.0);
}

TEST(DrainIntegration, WpqBackpressureSlowsExecution)
{
    auto ticks = [](unsigned wpq_entries) {
        SystemConfig cfg = tinyWpqCfg();
        cfg.wpqEntries = wpq_entries;
        SecPbSystem sys(cfg);
        ScriptedGenerator gen;
        for (Addr a = 0; a < 64 * BlockSize; a += BlockSize)
            gen.store(a, a);
        return sys.run(gen).execTicks;
    };
    EXPECT_GT(ticks(1), ticks(32));
}

TEST(DrainIntegration, DrainsGoOldestFirst)
{
    // FIFO draining: the first-allocated blocks reach PM first.
    SystemConfig cfg;
    cfg.scheme = Scheme::Cobcm;
    cfg.secpb.numEntries = 8;
    cfg.pmDataBytes = 1ULL << 30;
    SecPbSystem sys(cfg);
    ScriptedGenerator gen;
    for (Addr a = 0; a < 6 * BlockSize; a += BlockSize)
        gen.store(a, a);  // reaches the high watermark (6 of 8)
    sys.run(gen);
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
    // Drained down to the low watermark (4): the two oldest went out.
    EXPECT_TRUE(sys.pm().hasData(0 * BlockSize));
    EXPECT_TRUE(sys.pm().hasData(1 * BlockSize));
    EXPECT_FALSE(sys.pm().hasData(5 * BlockSize));
}

TEST(DrainIntegration, OldestEntryWithEarlyOpsInFlightIsSkipped)
{
    // OBCM fetches the counter in the background, so an entry can be
    // unblocked while its fetch is still in flight. Block 0 misses in
    // the counter cache; blocks 1..5 share its page and hit. When block
    // 5 reaches the high watermark, the oldest entry is still fetching:
    // the drain takes the next-oldest entries instead, and stops at the
    // low watermark with block 0 still resident.
    SystemConfig cfg;
    cfg.scheme = Scheme::Obcm;
    cfg.secpb.numEntries = 8;
    cfg.pmDataBytes = 1ULL << 30;
    SecPbSystem sys(cfg);
    ScriptedGenerator gen;
    for (Addr a = 0; a < 6 * BlockSize; a += BlockSize)
        gen.store(a, a + 1);
    sys.run(gen);
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
    EXPECT_EQ(sys.secpb().occupancy(), 4u);
    EXPECT_FALSE(sys.pm().hasData(0 * BlockSize));
    EXPECT_TRUE(sys.pm().hasData(1 * BlockSize));
    EXPECT_TRUE(sys.pm().hasData(2 * BlockSize));
    EXPECT_FALSE(sys.pm().hasData(3 * BlockSize));
}

TEST(DrainIntegration, MigratedEntryIsNewestInPersistOrder)
{
    // An entry that leaves and comes back (page migration) re-enters as
    // the newest resident, so the crash drain -- which completes entries
    // in persist order -- drains it last.
    SystemConfig cfg;
    cfg.scheme = Scheme::Cobcm;
    cfg.secpb.numEntries = 8;
    cfg.pmDataBytes = 1ULL << 30;
    SecPbSystem sys(cfg);
    ScriptedGenerator gen;
    for (Addr a = 0; a < 4 * BlockSize; a += BlockSize)
        gen.store(a, a + 1);  // below the high watermark: no drains
    sys.run(gen);
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
    ASSERT_EQ(sys.secpb().occupancy(), 4u);

    const std::optional<PbEntry> e =
        sys.secpb().extractForMigration(1 * BlockSize);
    ASSERT_TRUE(e.has_value());
    sys.secpb().injectMigrated(*e);

    const CrashReport cr = sys.crashNow();
    EXPECT_TRUE(cr.recovered);
    const std::vector<Addr> order = {0 * BlockSize, 2 * BlockSize,
                                     3 * BlockSize, 1 * BlockSize};
    EXPECT_EQ(cr.work.drainedBlocks, order);
}

TEST(DrainIntegration, MetadataCacheWritebacksReachPcm)
{
    // Enough distinct pages to overflow the counter cache: dirty counter
    // blocks must be written back to PCM on eviction.
    SystemConfig cfg;
    cfg.scheme = Scheme::Cobcm;
    cfg.secpb.numEntries = 8;
    cfg.ctrCacheGeom = CacheGeometry{1024, 2, 64};  // 16 blocks only
    cfg.pmDataBytes = 1ULL << 30;
    SecPbSystem sys(cfg);
    ScriptedGenerator gen;
    for (Addr page = 0; page < 64; ++page)
        gen.store(page * PageSize, page);
    sys.run(gen);
    sys.secpb().drainAll(nullptr);
    sys.runUntil(sys.eventQueue().curTick() + 10'000'000);
    EXPECT_GT(sys.ctrCache().statWritebacks.value(), 0.0);
}

TEST(DrainIntegration, WpqCoalescesCounterBlockWrites)
{
    // SP pushes one data block per tuple; blocks within a page share a
    // counter block, and in the old 3-push design those writes coalesced.
    // With MDC-resident metadata the WPQ only sees data blocks -- verify
    // they do NOT coalesce (distinct addresses) but repeated tuples to
    // the same block do.
    SystemConfig cfg;
    cfg.scheme = Scheme::Sp;
    cfg.pmDataBytes = 1ULL << 30;
    SecPbSystem sys(cfg);
    ScriptedGenerator gen;
    gen.store(0x000, 1).store(0x000, 2).store(0x040, 3);
    sys.run(gen);
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    EXPECT_TRUE(
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle()).ok());
}

TEST(DrainIntegration, DrainAllOnEmptyBufferFiresImmediately)
{
    SecPbSystem sys;
    bool fired = false;
    sys.secpb().drainAll([&] { fired = true; });
    EXPECT_TRUE(fired);
}

TEST(DrainIntegration, CrashDuringCongestedDrainRecovers)
{
    SecPbSystem sys(tinyWpqCfg(Scheme::Cm));
    ScriptedGenerator gen;
    for (Addr a = 0; a < 32 * BlockSize; a += BlockSize)
        gen.store(a, a + 1);
    sys.start(gen);
    sys.runUntil(3'000);  // mid-drain, WPQ congested
    CrashReport cr = sys.crashNow();
    EXPECT_TRUE(cr.recovered);
}

/**
 * @file
 * Regression pins for the flat-layout migration: the unordered_map ->
 * FlatMap moves (SecPB index, walker in-flight set, counter store, PM
 * image), the dense SoA Merkle tree, and the batched drain crypto. Each
 * test targets a hazard the migration introduced -- value pointers that
 * die on mutation, iteration-order changes, the hashWords shortcut --
 * and the final test pins fixed-seed fig6 smoke points to golden values
 * so any behavioural drift in a refactor fails loudly.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/system.hh"
#include "crypto/hash.hh"
#include "metadata/bmt.hh"
#include "workload/scripted.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

SystemConfig
smallConfig(Scheme scheme, unsigned entries = 8)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.secpb.numEntries = entries;
    cfg.pmDataBytes = 1ULL << 30;
    return cfg;
}

} // namespace

TEST(FlatMigration, BmtNodeDigestMatchesPackedHash)
{
    // The dense tree hashes nodes with hashWords over the child array
    // instead of materializing the 64-byte wire form. Both sides memcpy
    // the same native words, so the digests must be bit-identical --
    // this equivalence is what keeps every stored digest, and hence the
    // root register, unchanged across the SoA migration.
    std::uint64_t x = 0x5eed;
    for (int trial = 0; trial < 64; ++trial) {
        BmtNode n;
        for (auto &c : n.child) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            c = x;
        }
        const std::uint64_t seed = x ^ 0xb0a5a1b0a5a1ULL;
        EXPECT_EQ(n.digest(seed), hashBlock(n.pack(), seed));
    }
    // Degenerate contents too: all-zero and all-ones nodes.
    BmtNode zero;
    EXPECT_EQ(zero.digest(1), hashBlock(zero.pack(), 1));
    BmtNode ones;
    ones.child.fill(~0ULL);
    EXPECT_EQ(ones.digest(1), hashBlock(ones.pack(), 1));
}

TEST(FlatMigration, WalkerInFlightSetDrainsToZero)
{
    // The walker's completion events erase from the in-flight FlatMap by
    // key (a stored pointer would dangle across later growth or
    // back-shift). A full run with heavy merging must leave the set
    // empty once the queue runs dry -- a leaked entry would wrongly
    // merge a future walk into a long-retired one.
    SystemConfig cfg =
        SecPbSystem::configFor(Scheme::Cobcm, profileByName("gamess"));
    SecPbSystem sys(cfg);
    SyntheticGenerator gen(profileByName("gamess"), 20'000, 7);
    sys.run(gen);
    // run() returns at SB-empty with walk completions still scheduled;
    // drain the queue so every completion event has fired.
    sys.eventQueue().run();
    EXPECT_GT(sys.walker().statMergedUpdates.value(), 0.0);
    EXPECT_EQ(sys.walker().inFlightWalks(), 0u);
}

TEST(FlatMigration, IndexChurnSurvivesCrashRecovery)
{
    // 40k instructions of gcc churn the SecPB index through thousands of
    // insert/erase cycles (every allocation and release mutates the
    // table, back-shifting probe clusters). Any stale-pointer or lost-
    // entry bug corrupts the drain bookkeeping; a crash drain plus full
    // recovery verification catches it.
    SystemConfig cfg =
        SecPbSystem::configFor(Scheme::Cobcm, profileByName("gcc"));
    SecPbSystem sys(cfg);
    SyntheticGenerator gen(profileByName("gcc"), 40'000, 7);
    sys.run(gen);
    CrashReport cr = sys.crashNow();
    EXPECT_TRUE(cr.recovered);
    EXPECT_TRUE(cr.recovery.ok());
    EXPECT_EQ(cr.recovery.plaintextMismatches, 0u);
    EXPECT_GT(cr.recovery.blocksChecked, 0u);
}

TEST(FlatMigration, MultiBlockPageReencryptionRecovers)
{
    // reencryptPage iterates the page's blocks while incrementing the
    // counter store -- under FlatMap the old CounterBlock must be read
    // through a COPY (the increment can grow the table and invalidate
    // references), and the per-block OTP/MAC work goes through one
    // batched crypto train. Populate several blocks of one page, then
    // overflow the 7-bit minor so the re-encryption loop runs with
    // count > 1, and verify recovery still checks out.
    SecPbSystem sys(smallConfig(Scheme::SecWt, 8));
    ScriptedGenerator gen;
    for (Addr a = 0x040; a <= 0x1C0; a += BlockSize)
        gen.store(a, 0xBEEF + a);
    for (int i = 0; i < 130; ++i)
        gen.store(0x000, static_cast<std::uint64_t>(i));
    sys.run(gen);
    EXPECT_GE(sys.secpb().statPageReencrypts.value(), 1.0);
    EXPECT_GE(sys.counters().counterFor(0x000).major, 1u);
    CrashReport cr = sys.crashNow();
    EXPECT_TRUE(cr.recovered);
    EXPECT_TRUE(cr.recovery.ok());
}

namespace
{

/** One fixed-seed fig6 smoke point's golden outputs, then its crash. */
struct Fig6Pin
{
    Scheme scheme;
    std::uint64_t execTicks, persists, allocations, bmtRootUpdates,
        pageReencryptions, drainedEntries, sbFullStalls, pbFullRejects,
        pcmReads, pcmWrites;
    double ipc, nwpe, ctrCacheHitRate, bmtCacheHitRate,
        meanUnblockLatency, crashEnergyJ;
};

/**
 * Runs gamess at 20k instructions, seed 7, 32 entries, then a battery
 * crash drain, and checks every result field plus the crash energy
 * against @p pin. ANY timing, functional or crash-work drift fails here
 * as an exact-value mismatch.
 */
void
expectFig6Pin(const Fig6Pin &pin)
{
    SCOPED_TRACE(schemeName(pin.scheme));
    SystemConfig cfg =
        SecPbSystem::configFor(pin.scheme, profileByName("gamess"));
    cfg.secpb.numEntries = 32;
    SecPbSystem sys(cfg);
    SyntheticGenerator gen(profileByName("gamess"), 20'000, 7);
    const SimulationResult r = sys.run(gen);

    EXPECT_EQ(r.execTicks, pin.execTicks);
    EXPECT_EQ(r.instructions, 20'000u);
    EXPECT_EQ(r.persists, pin.persists);
    EXPECT_EQ(r.allocations, pin.allocations);
    EXPECT_EQ(r.bmtRootUpdates, pin.bmtRootUpdates);
    EXPECT_EQ(r.pageReencryptions, pin.pageReencryptions);
    EXPECT_EQ(r.drainedEntries, pin.drainedEntries);
    EXPECT_EQ(r.sbFullStalls, pin.sbFullStalls);
    EXPECT_EQ(r.pbFullRejects, pin.pbFullRejects);
    EXPECT_EQ(r.pcmReads, pin.pcmReads);
    EXPECT_EQ(r.pcmWrites, pin.pcmWrites);
    EXPECT_DOUBLE_EQ(r.ipc, pin.ipc);
    EXPECT_DOUBLE_EQ(r.ppti, 50.1);
    EXPECT_DOUBLE_EQ(r.nwpe, pin.nwpe);
    EXPECT_DOUBLE_EQ(r.ctrCacheHitRate, pin.ctrCacheHitRate);
    EXPECT_DOUBLE_EQ(r.bmtCacheHitRate, pin.bmtCacheHitRate);
    EXPECT_DOUBLE_EQ(r.meanUnblockLatency, pin.meanUnblockLatency);

    const CrashReport cr = sys.crashNow();
    EXPECT_TRUE(cr.recovered);
    EXPECT_DOUBLE_EQ(cr.actualEnergyJ, pin.crashEnergyJ);
}

} // namespace

TEST(FlatMigration, Fig6SmokePointIsByteIdentical)
{
    // COBCM is the heaviest-drain point: 399 drained entries and 93 root
    // updates exercise the fused drain event, the batched crypto train,
    // walker merging, and every migrated hot table.
    expectFig6Pin({Scheme::Cobcm, 12842, 1002, 431, 93, 0, 399, 365, 785,
                   273, 395, 1.557389814670612, 2.355889724310777,
                   0.95533498759305213, 0.90937019969278032, 2.0,
                   0.0015676057600000001});
}

TEST(FlatMigration, Fig6EagerPointIsByteIdentical)
{
    // The eager CM scheme (no SecPB drain batching in play) separates a
    // regression in the shared metadata path from one in the
    // SecPB-specific fused-drain path.
    expectFig6Pin({Scheme::Cm, 175761, 1002, 434, 434, 0, 416, 756, 0, 284,
                   416, 0.11379088648790119, 2.3125, 0.95529411764705885,
                   0.97992100065832788, 175.41017964071855,
                   0.00030403059199999997});
}

TEST(FlatMigration, Fig6PinsAreByteIdentical)
{
    // SP, sec_wt and BBB pin the strict-persistency accept path, the
    // write-through regeneration, and the insecure buffer, which no other
    // golden covers.
    const Fig6Pin pins[] = {
        {Scheme::Sp, 405201, 1002, 976, 957, 0, 0, 944, 0, 295, 791,
         0.049358219747730137, 1.026639344262295, 0.96106557377049184,
         0.99089416330795643, 404.3922155688623, 0.000168150528},
        {Scheme::SecWt, 366780, 1002, 434, 1002, 0, 416, 946, 0, 295, 416,
         0.05452860025083156, 2.3125, 0.97320169252468269,
         0.99130310806957511, 366.04790419161679, 0.00022059302400000001},
        {Scheme::Bbb, 11896, 1002, 436, 0, 0, 416, 80, 588, 0, 408,
         1.6812373907195697, 2.3052884615384617, 0.0, 0.0, 2.0,
         2.9525759999999998e-05},
    };
    for (const Fig6Pin &pin : pins)
        expectFig6Pin(pin);
}

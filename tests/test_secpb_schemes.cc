/**
 * @file
 * Parameterized tests over the whole scheme spectrum: every scheme must
 * preserve the crash-recovery invariants and expose its documented
 * early/late split. TEST_P sweeps all six SecPB schemes plus SP and
 * sec_wt where applicable.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "workload/scripted.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

SystemConfig
cfgFor(Scheme scheme, unsigned entries = 8)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.secpb.numEntries = entries;
    cfg.pmDataBytes = 1ULL << 30;
    return cfg;
}

class AllSchemes : public ::testing::TestWithParam<Scheme>
{};

class SecureSchemes : public ::testing::TestWithParam<Scheme>
{};

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Spectrum, AllSchemes,
    ::testing::Values(Scheme::Bbb, Scheme::Sp, Scheme::SecWt,
                      Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm, Scheme::Cm,
                      Scheme::M, Scheme::NoGap, Scheme::Secpm,
                      Scheme::Triad, Scheme::Eadr, Scheme::Stream),
    [](const auto &info) { return std::string(schemeName(info.param)); });

INSTANTIATE_TEST_SUITE_P(
    Spectrum, SecureSchemes,
    ::testing::Values(Scheme::Sp, Scheme::SecWt, Scheme::Cobcm,
                      Scheme::Obcm, Scheme::Bcm, Scheme::Cm, Scheme::M,
                      Scheme::NoGap, Scheme::Secpm, Scheme::Triad,
                      Scheme::Eadr, Scheme::Stream),
    [](const auto &info) { return std::string(schemeName(info.param)); });

TEST_P(AllSchemes, RunsScriptedWorkloadToCompletion)
{
    SecPbSystem sys(cfgFor(GetParam()));
    ScriptedGenerator gen;
    for (Addr a = 0; a < 20 * BlockSize; a += BlockSize)
        gen.store(a, a + 1).instr(10).load();
    SimulationResult r = sys.run(gen);
    EXPECT_EQ(r.persists, 20u);
    EXPECT_GT(r.execTicks, 0u);
}

TEST_P(AllSchemes, CrashRecoveryMatchesOracle)
{
    SecPbSystem sys(cfgFor(GetParam()));
    ScriptedGenerator gen;
    for (int i = 0; i < 40; ++i)
        gen.store((i % 12) * BlockSize + 8 * (i % 8),
                  0x1000u + static_cast<std::uint64_t>(i));
    sys.run(gen);
    CrashReport cr = sys.crashNow();
    EXPECT_TRUE(cr.recovered) << schemeName(GetParam());
    EXPECT_EQ(cr.recovery.plaintextMismatches, 0u);
    EXPECT_EQ(cr.recovery.macFailures, 0u);
    EXPECT_EQ(cr.recovery.bmtFailures, 0u);
}

TEST_P(AllSchemes, PageReencryptionReachesHeldCounterSnapshots)
{
    // Block 1 of page 0 sits one increment from minor-counter overflow,
    // so the store to 0x040 re-encrypts the page. Block 0's counter
    // snapshot is then held outside the resident index: an SP tuple still
    // in flight, or (lazy schemes) an entry the crash drain has already
    // completed. Re-encryption must move every copy to the new major.
    SecPbSystem sys(cfgFor(GetParam()));
    CounterBlock cb;
    cb.minors[1] = MinorCounterMax;
    sys.counters().setBlock(0, cb);
    ScriptedGenerator gen;
    gen.store(0x000, 0xA).store(0x040, 0xB);
    sys.run(gen);
    CrashReport cr = sys.crashNow();
    EXPECT_TRUE(cr.recovered);
    EXPECT_EQ(cr.recovery.macFailures, 0u);
    EXPECT_EQ(cr.recovery.plaintextMismatches, 0u);
}

TEST_P(SecureSchemes, TupleConsistentMidExecutionCrash)
{
    // Crash at several points mid-run; recovery must always verify.
    for (Tick crash_at : {500u, 2'000u, 10'000u, 50'000u}) {
        SecPbSystem sys(cfgFor(GetParam()));
        const BenchmarkProfile &p = profileByName("gcc");
        SyntheticGenerator gen(p, 20'000, /*seed=*/3);
        sys.start(gen);
        sys.runUntil(crash_at);
        CrashReport cr = sys.crashNow();
        EXPECT_TRUE(cr.recovered)
            << schemeName(GetParam()) << " @ " << crash_at;
    }
}

TEST_P(SecureSchemes, ActualCrashEnergyWithinProvisioned)
{
    SecPbSystem sys(cfgFor(GetParam()));
    ScriptedGenerator gen;
    for (Addr a = 0; a < 8 * BlockSize; a += BlockSize)
        gen.store(a, a);
    sys.run(gen);
    CrashReport cr = sys.crashNow();
    // SP holds no entries; others must have used positive energy.
    if (GetParam() != Scheme::Sp) {
        EXPECT_GT(cr.actualEnergyJ, 0.0);
    }
    EXPECT_LE(cr.actualEnergyJ, cr.provisionedEnergyJ * 1.05)
        << schemeName(GetParam());
}

TEST_P(SecureSchemes, EarlyBitsMatchTraits)
{
    // After the early phase completes, the entry's valid bits must match
    // the scheme's early set (Figure 5's per-design field table).
    const Scheme s = GetParam();
    const SchemeTraits t = schemeTraits(s);
    SecPbSystem sys(cfgFor(s));
    ScriptedGenerator gen;
    gen.store(0x5000, 0xFEED);
    sys.run(gen);

    BonsaiMerkleTree fresh(sys.layout().numPages(),
                           sys.config().keys.macKey ^ 0xb037);

    if (s == Scheme::Sp) {
        // SP keeps no SecPB entries -- the WPQ is the persistence domain
        // -- so its invariant is the converse of the buffered schemes':
        // zero occupancy, the counter bumped synchronously at accept,
        // and (after the battery completes any in-flight tuple) the
        // block durable with the eagerly-updated root.
        EXPECT_EQ(sys.secpb().occupancy(), 0u);
        EXPECT_EQ(sys.counters().counterFor(0x5000).minor, 1u);
        CrashReport cr = sys.crashNow();
        EXPECT_TRUE(cr.recovered);
        EXPECT_TRUE(sys.pm().hasData(0x5000));
        EXPECT_NE(sys.tree().root(), fresh.root());
        return;
    }

    // Inspect the functional state through side effects: counter
    // increments and crypto-engine op counts.
    const BlockCounter c = sys.counters().counterFor(0x5000);
    EXPECT_EQ(c.minor, t.earlyCounter ? 1u : 0u);

    // BMT root moved only for early-BMT schemes.
    if (t.earlyBmt)
        EXPECT_NE(sys.tree().root(), fresh.root());
    else
        EXPECT_EQ(sys.tree().root(), fresh.root());
}

TEST_P(SecureSchemes, PersistOrderInvariantUnderCrash)
{
    // Persist-order invariant (PLP invariant 2): if store A precedes
    // store B and B is recovered, A must be too. We run a sequence of
    // stores with strictly increasing values to distinct words and crash
    // mid-way; the recovered prefix must be exactly the oracle state.
    SecPbSystem sys(cfgFor(GetParam()));
    ScriptedGenerator gen;
    const int n = 30;
    for (int i = 0; i < n; ++i)
        gen.store(static_cast<Addr>(i) * BlockSize, 100u + i);
    sys.start(gen);
    sys.runUntil(700);  // some stores accepted, some not
    CrashReport cr = sys.crashNow();
    ASSERT_TRUE(cr.recovered);

    // Every block the oracle saw must decrypt to the oracle's value;
    // no block beyond the oracle's persist point may appear "newer".
    const std::uint64_t persisted = sys.oracle().numPersists();
    EXPECT_LE(persisted, static_cast<std::uint64_t>(n));
    // Prefix property: blocks 0..persisted-1 are exactly the ones the
    // oracle saw (stores go in program order through the store buffer).
    for (std::uint64_t i = 0; i < persisted; ++i)
        EXPECT_TRUE(sys.oracle().touched(i * BlockSize));
    for (std::uint64_t i = persisted; i < n; ++i)
        EXPECT_FALSE(sys.oracle().touched(i * BlockSize));
}

TEST_P(SecureSchemes, TamperedDataFailsRecovery)
{
    SecPbSystem sys(cfgFor(GetParam()));
    ScriptedGenerator gen;
    for (Addr a = 0; a < 10 * BlockSize; a += BlockSize)
        gen.store(a, a + 7);
    sys.run(gen);
    sys.crashNow();  // clean battery drain

    // Physical attacker flips one ciphertext bit after power-off.
    sys.pm().tamperData(0x000, 3, 0x40);
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport report =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    EXPECT_GT(report.macFailures + report.plaintextMismatches, 0u);
}

TEST_P(SecureSchemes, TamperedCounterFailsBmtVerification)
{
    SecPbSystem sys(cfgFor(GetParam()));
    ScriptedGenerator gen;
    for (Addr a = 0; a < 10 * BlockSize; a += BlockSize)
        gen.store(a, a + 7);
    sys.run(gen);
    sys.crashNow();

    sys.pm().tamperCounter(sys.layout().pageIndex(0x000),
                           sys.layout().blockInPage(0x000));
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport report =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    EXPECT_GT(report.bmtFailures, 0u);
}

TEST_P(SecureSchemes, ReplayedTupleFailsBmtVerification)
{
    // Full-tuple replay: capture an old consistent (ct, ctr, mac) triple,
    // let the system persist a newer version, then roll the PM back.
    // Data, counter, and MAC are mutually consistent, so only the BMT
    // root (in the on-chip register) can expose the rollback.
    SecPbSystem sys(cfgFor(GetParam()));
    ScriptedGenerator gen1;
    gen1.store(0x000, 0xAAAA);
    sys.run(gen1);
    sys.secpb().drainAll(nullptr);
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);

    const BlockData old_ct = sys.pm().readData(0x000);
    const CounterBlock old_cb = sys.pm().readCounterBlock(0);
    const MacValue old_mac = sys.pm().readMac(0x000);

    // Newer version persists (fresh residency, counter bumps again).
    ScriptedGenerator gen2;
    gen2.store(0x000, 0xBBBB);
    // Reuse the same system: drive the store buffer directly.
    bool done = false;
    sys.storeBuffer().tryPush(0x000, 0xBBBB);
    sys.storeBuffer().notifyWhenEmpty([&] { done = true; });
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
    ASSERT_TRUE(done);
    CrashReport cr = sys.crashNow();
    ASSERT_TRUE(cr.recovered);

    sys.pm().writeBlock(0x000, old_ct, old_mac);
    sys.pm().writeCounterBlock(0, old_cb);
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport report =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    EXPECT_GT(report.bmtFailures + report.plaintextMismatches, 0u)
        << schemeName(GetParam());
}

// ---------------------------------------------------------------------------
// Scheme-zoo invariants: the per-design behavior each related-work scheme
// switches on through its scheme-table column.
// ---------------------------------------------------------------------------

TEST(SchemeZoo, SecpmCounterWriteThroughKeepsCtrCacheClean)
{
    // SecPM writes counters through to PCM, so the persistent copy is
    // always current and a crash never owes a counter-cache flush.
    SecPbSystem sys(cfgFor(Scheme::Secpm));
    ScriptedGenerator gen;
    for (Addr a = 0; a < 24 * BlockSize; a += BlockSize)
        gen.store(a, a + 11);
    sys.run(gen);
    EXPECT_EQ(sys.ctrCache().numDirty(), 0u);

    // Contrast: the same run under BCM (also early-counter, but lazy
    // write-back) leaves dirty counter blocks behind.
    SecPbSystem lazy(cfgFor(Scheme::Bcm));
    ScriptedGenerator gen2;
    for (Addr a = 0; a < 24 * BlockSize; a += BlockSize)
        gen2.store(a, a + 11);
    lazy.run(gen2);
    EXPECT_GT(lazy.ctrCache().numDirty(), 0u);

    CrashReport cr = sys.crashNow();
    EXPECT_TRUE(cr.recovered);
}

TEST(SchemeZoo, TriadFewerPersistedLevelsMeansMoreRebuildWork)
{
    std::uint64_t rebuilt_at_two = 0;
    for (unsigned levels : {2u, 1u}) {
        SystemConfig cfg = cfgFor(Scheme::Triad);
        cfg.secpb.params.triadLevels = levels;
        SecPbSystem sys(cfg);
        ScriptedGenerator gen;
        for (int i = 0; i < 40; ++i)
            gen.store((i % 16) * BlockSize,
                      0x2000u + static_cast<std::uint64_t>(i));
        sys.run(gen);
        CrashReport cr = sys.crashNow();
        ASSERT_TRUE(cr.recovered) << "triad:levels=" << levels;
        EXPECT_GT(cr.work.bmtNodesRebuilt, 0u);
        if (levels == 2)
            rebuilt_at_two = cr.work.bmtNodesRebuilt;
        else
            EXPECT_GT(cr.work.bmtNodesRebuilt, rebuilt_at_two);
    }
}

TEST(SchemeZoo, TriadRebuildRepairsTamperedVolatileNode)
{
    // The rebuild is not vacuous: forging a node in the volatile upper
    // region is caught by verification, and rebuildFromLevel() restores
    // exactly the pre-tamper tree.
    SystemConfig cfg = cfgFor(Scheme::Triad);
    cfg.secpb.params.triadLevels = 1;
    SecPbSystem sys(cfg);
    ScriptedGenerator gen;
    for (Addr a = 0; a < 12 * BlockSize; a += BlockSize)
        gen.store(a, a + 9);
    sys.run(gen);
    CrashReport cr = sys.crashNow();
    ASSERT_TRUE(cr.recovered);

    BonsaiMerkleTree &tree = sys.tree();
    const Digest good_root = tree.root();
    const unsigned lvl = 1;  // volatile under triad:levels=1
    ASSERT_TRUE(tree.hasNode(lvl, 0));
    BmtNode forged = tree.node(lvl, 0);
    forged.child[0] ^= 0xDEADULL;
    ASSERT_TRUE(tree.tamperNode(lvl, 0, forged));

    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport bad = verifier.verifyAll(sys.pm(), tree, sys.oracle());
    EXPECT_GT(bad.bmtFailures, 0u);  // zero silent acceptance

    EXPECT_GT(tree.rebuildFromLevel(lvl), 0u);
    EXPECT_EQ(tree.root(), good_root);
    RecoveryReport good = verifier.verifyAll(sys.pm(), tree, sys.oracle());
    EXPECT_EQ(good.bmtFailures, 0u);
}

TEST(SchemeZoo, EadrPricesWholeHierarchyFlush)
{
    SecPbSystem sys(cfgFor(Scheme::Eadr));
    ScriptedGenerator gen;
    for (Addr a = 0; a < 8 * BlockSize; a += BlockSize)
        gen.store(a, a + 5);
    sys.run(gen);

    const std::uint64_t lines = TableIDataCaches.lines();
    EXPECT_EQ(sys.secpb().predictCrashDrainWork().cacheLinesFlushed, lines);

    CrashReport cr = sys.crashNow();
    ASSERT_TRUE(cr.recovered);
    EXPECT_EQ(cr.work.cacheLinesFlushed, lines);
    EXPECT_GT(cr.actualEnergyJ, 0.0);
    EXPECT_LE(cr.actualEnergyJ, cr.provisionedEnergyJ);

    // The provisioned battery must cover the hierarchy: strictly larger
    // than the same-size COBCM SecPB battery.
    SecPbSystem cob(cfgFor(Scheme::Cobcm));
    EXPECT_GT(sys.provisionedCrashEnergy(), cob.provisionedCrashEnergy());
}

TEST(SchemeZoo, StreamNotSlowerThanNoGapSameSecurity)
{
    // Streamlined BMT issue keeps NoGap's eager tuple but unblocks the
    // store at pipelined walk issue, so it can never run slower.
    auto runOne = [](Scheme s) {
        SecPbSystem sys(cfgFor(s));
        ScriptedGenerator gen;
        for (int i = 0; i < 60; ++i)
            gen.store((i % 20) * BlockSize,
                      0x3000u + static_cast<std::uint64_t>(i));
        return sys.run(gen).execTicks;
    };
    EXPECT_LE(runOne(Scheme::Stream), runOne(Scheme::NoGap));

    // Crash mid-run with walks still retiring in the background: the
    // functionally-eager tree must still verify.
    SecPbSystem sys(cfgFor(Scheme::Stream));
    const BenchmarkProfile &p = profileByName("gcc");
    SyntheticGenerator gen(p, 20'000, /*seed=*/3);
    sys.start(gen);
    sys.runUntil(5'000);
    CrashReport cr = sys.crashNow();
    EXPECT_TRUE(cr.recovered);
}

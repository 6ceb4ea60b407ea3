/**
 * @file
 * Tests for the SP (strict persistency, SPoP at the MC) baseline: WPQ
 * coalescing window, durability semantics, backpressure, crash completion
 * of pending tuples, and its position in the performance ordering.
 */

#include <gtest/gtest.h>

#include <optional>

#include "core/system.hh"
#include "workload/scripted.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

SystemConfig
spCfg()
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Sp;
    cfg.pmDataBytes = 1ULL << 30;
    return cfg;
}

} // namespace

TEST(SpBaseline, StoresPersistWithFullTuple)
{
    SecPbSystem sys(spCfg());
    ScriptedGenerator gen;
    gen.store(0x000, 0x11).store(0x040, 0x22);
    sys.run(gen);
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
    EXPECT_TRUE(sys.pm().hasData(0x000));
    EXPECT_TRUE(sys.pm().hasData(0x040));
    // Tuples verify without any crash drain (SPoP == PoP at the MC).
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport r =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    EXPECT_TRUE(r.ok());
}

TEST(SpBaseline, HotStoresCoalesceInWpqWindow)
{
    SecPbSystem sys(spCfg());
    ScriptedGenerator gen;
    // A burst to the same block: the first store opens the window, the
    // rest coalesce into the pending tuple.
    for (int i = 0; i < 10; ++i)
        gen.store(0x100, 0x1000 + i);
    sys.run(gen);
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
    EXPECT_GT(sys.secpb().statCoalescedHits.value(), 0.0);
    // The persisted ciphertext decrypts to the LAST coalesced value.
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport r =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(blockWord(sys.oracle().blockContent(0x100), 4 /*0x20/8*/),
              0u);
    EXPECT_EQ(blockWord(sys.oracle().blockContent(0x100), 0), 0x1009u);
}

TEST(SpBaseline, CountersBumpPerTupleNotPerStore)
{
    SecPbSystem sys(spCfg());
    ScriptedGenerator gen;
    for (int i = 0; i < 10; ++i)
        gen.store(0x100, i);
    sys.run(gen);
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
    // Far fewer increments than stores thanks to WPQ-window coalescing.
    const BlockCounter c = sys.counters().counterFor(0x100);
    EXPECT_GE(c.minor, 1u);
    EXPECT_LT(c.minor, 10u);
}

TEST(SpBaseline, MidStoreCrashStillRecovers)
{
    SecPbSystem sys(spCfg());
    ScriptedGenerator gen;
    for (Addr a = 0; a < 40 * BlockSize; a += BlockSize)
        gen.store(a, a + 1);
    sys.start(gen);
    sys.runUntil(300);  // mid tuple-update
    CrashReport cr = sys.crashNow();
    EXPECT_EQ(cr.verdict, CrashVerdict::Pass);
}

TEST(SpBaseline, PendingTuplesCompleteAsFullTuplesUnderAnyBudget)
{
    // Crash mid tuple-update, first on an unbounded battery and then on
    // a budget too small for anything: pending SP tuples are ADR-domain
    // obligations, so both complete every one. Each counts one OTP,
    // ciphertext, MAC and BMT root update, and no counter work (the
    // counter was bumped when the store was accepted).
    auto crash = [](std::optional<double> budget) {
        SecPbSystem sys(spCfg());
        ScriptedGenerator gen;
        for (Addr a = 0; a < 40 * BlockSize; a += BlockSize)
            gen.store(a, a + 1);
        sys.start(gen);
        sys.runUntil(3000);  // several tuple updates in flight
        CrashOptions opts;
        opts.batteryEnergyJ = budget;
        return sys.crashNow(opts);
    };
    const CrashReport unbounded = crash(std::nullopt);
    const CrashReport bounded = crash(1e-9);
    for (const CrashReport *cr : {&unbounded, &bounded}) {
        const CrashWork &w = cr->work;
        EXPECT_GT(w.entriesDrained, 0u);
        EXPECT_EQ(w.ciphertexts, w.entriesDrained);
        EXPECT_EQ(w.otpsGenerated, w.entriesDrained);
        EXPECT_EQ(w.macsComputed, w.entriesDrained);
        EXPECT_EQ(w.bmtRootUpdates, w.entriesDrained);
        EXPECT_EQ(w.counterFetches, 0u);
        EXPECT_EQ(w.countersIncremented, 0u);
        EXPECT_FALSE(w.batteryExhausted);
        EXPECT_TRUE(w.abandoned.empty());
        EXPECT_EQ(cr->verdict, CrashVerdict::Pass);
    }
    EXPECT_EQ(bounded.work.entriesDrained, unbounded.work.entriesDrained);
}

TEST(SpBaseline, NoSecPbEntriesUsed)
{
    SecPbSystem sys(spCfg());
    ScriptedGenerator gen;
    for (Addr a = 0; a < 10 * BlockSize; a += BlockSize)
        gen.store(a, a);
    sys.run(gen);
    EXPECT_EQ(sys.secpb().occupancy(), 0u);
}

TEST(SpBaseline, SlowerThanCobcmOnEveryProfileClass)
{
    auto ticks = [](Scheme s, const char *bench) {
        const BenchmarkProfile &p = profileByName(bench);
        SystemConfig cfg = SecPbSystem::configFor(s, p);
        SecPbSystem sys(cfg);
        SyntheticGenerator gen(p, 30'000, 3);
        return sys.run(gen).execTicks;
    };
    for (const char *bench : {"gamess", "sjeng", "lbm"})
        EXPECT_GT(ticks(Scheme::Sp, bench), ticks(Scheme::Cobcm, bench))
            << bench;
}

/**
 * @file
 * Crash-recovery property tests: the heart of the correctness argument.
 *
 * Property (paper Section III-A, the two PLP invariants): for ANY scheme
 * and ANY crash point, after the battery-powered drain the recovery
 * observer sees exactly the persist oracle's state, with every MAC and
 * the BMT root verifying. The early/late strategies must be
 * *observationally equivalent* (Figure 3's claim).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "core/system.hh"
#include "workload/scripted.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

SystemConfig
cfgFor(Scheme scheme, unsigned entries = 16)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.secpb.numEntries = entries;
    cfg.pmDataBytes = 1ULL << 30;
    return cfg;
}

struct CrashCase
{
    Scheme scheme;
    std::uint64_t seed;
};

class RandomCrash : public ::testing::TestWithParam<CrashCase>
{};

std::string
crashCaseName(const ::testing::TestParamInfo<CrashCase> &info)
{
    return std::string(schemeName(info.param.scheme)) + "_seed" +
           std::to_string(info.param.seed);
}

std::vector<CrashCase>
allCrashCases()
{
    std::vector<CrashCase> cases;
    for (Scheme s : {Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm, Scheme::Cm,
                     Scheme::M, Scheme::NoGap, Scheme::Sp, Scheme::SecWt})
        for (std::uint64_t seed : {11ull, 22ull, 33ull})
            cases.push_back({s, seed});
    return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Property, RandomCrash,
                         ::testing::ValuesIn(allCrashCases()),
                         crashCaseName);

TEST_P(RandomCrash, RecoveryMatchesOracleAtRandomCrashPoints)
{
    const CrashCase &c = GetParam();
    Rng rng(c.seed * 977);
    // Several crash points per case, drawn over the run's duration.
    for (int trial = 0; trial < 4; ++trial) {
        SecPbSystem sys(cfgFor(c.scheme));
        const BenchmarkProfile &p = profileByName(
            trial % 2 ? "gamess" : "omnetpp");
        SyntheticGenerator gen(p, 15'000, c.seed);
        sys.start(gen);
        const Tick crash_at = 200 + rng.below(40'000);
        sys.runUntil(crash_at);
        CrashReport cr = sys.crashNow();
        ASSERT_TRUE(cr.recovered)
            << schemeName(c.scheme) << " seed " << c.seed << " @ "
            << crash_at;
        ASSERT_EQ(cr.recovery.plaintextMismatches, 0u);
        ASSERT_EQ(cr.recovery.macFailures, 0u);
        ASSERT_EQ(cr.recovery.bmtFailures, 0u);
    }
}

TEST(Recovery, EarlyAndLateStrategiesObservationallyEquivalent)
{
    // Figure 3's claim: after crash + battery drain, the observable
    // plaintext state is identical regardless of strategy. Run the same
    // trace under NoGap (early) and COBCM (late), crash both at the same
    // persist count, and compare recovered plaintext block by block.
    auto recovered_state = [](Scheme s) {
        SecPbSystem sys(cfgFor(s));
        ScriptedGenerator gen;
        Rng rng(5);
        for (int i = 0; i < 60; ++i)
            gen.store(blockAlign(rng.below(1 << 20)) + 8 * rng.below(8),
                      rng.next());
        sys.run(gen);
        CrashReport cr = sys.crashNow();
        EXPECT_TRUE(cr.recovered);
        std::map<Addr, BlockData> state;
        for (Addr a : sys.oracle().touchedBlocks())
            state[a] = sys.oracle().blockContent(a);
        return state;
    };
    EXPECT_EQ(recovered_state(Scheme::NoGap),
              recovered_state(Scheme::Cobcm));
}

TEST(Recovery, IntegrityOnlyScanPassesOnCleanPm)
{
    SecPbSystem sys(cfgFor(Scheme::Cobcm));
    ScriptedGenerator gen;
    for (Addr a = 0; a < 20 * BlockSize; a += BlockSize)
        gen.store(a, a * 3 + 1);
    sys.run(gen);
    sys.crashNow();
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport r = verifier.verifyIntegrity(sys.pm(), sys.tree());
    EXPECT_TRUE(r.ok());
    EXPECT_GT(r.blocksChecked, 0u);
}

TEST(Recovery, MacTamperLocalizedToOneBlock)
{
    SecPbSystem sys(cfgFor(Scheme::Cobcm));
    ScriptedGenerator gen;
    for (Addr a = 0; a < 20 * BlockSize; a += BlockSize)
        gen.store(a, a);
    sys.run(gen);
    sys.crashNow();
    sys.pm().tamperMac(5 * BlockSize, 0x1);
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport r =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    EXPECT_EQ(r.macFailures, 1u);
    EXPECT_EQ(r.bmtFailures, 0u);
}

TEST(Recovery, CounterTamperBreaksWholePageBlocks)
{
    SecPbSystem sys(cfgFor(Scheme::Cobcm));
    ScriptedGenerator gen;
    // Two blocks in page 0, one in page 1.
    gen.store(0x000, 1).store(0x040, 2).store(PageSize, 3);
    sys.run(gen);
    sys.crashNow();
    sys.pm().tamperCounter(0, 0);
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport r =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    // Both page-0 blocks fail BMT verification; page 1 is clean.
    EXPECT_EQ(r.bmtFailures, 2u);
}

TEST(Recovery, BatteryFailureLeavesDetectableInconsistency)
{
    // Why battery sizing matters: if the battery fails to drain the
    // SecPB (we simply don't call crashDrainAll), PM may hold persisted
    // counters/BMT state for data that never arrived -- recovery must
    // NOT silently succeed against the oracle.
    SecPbSystem sys(cfgFor(Scheme::NoGap, 8));
    ScriptedGenerator gen;
    // Force drains so early tuple state reaches PM, then keep residents.
    for (Addr a = 0; a < 14 * BlockSize; a += BlockSize)
        gen.store(a, 0xC0FFEE00 + a);
    sys.run(gen);
    ASSERT_GT(sys.secpb().occupancy(), 0u);
    // NO battery drain here.
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport r =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    EXPECT_FALSE(r.ok());
}

TEST(Recovery, CrashWorkReflectsSchemeLaziness)
{
    // COBCM defers everything: its battery does strictly more kinds of
    // work than NoGap's at the same crash point.
    auto work_for = [](Scheme s) {
        SecPbSystem sys(cfgFor(s, 16));
        ScriptedGenerator gen;
        for (Addr a = 0; a < 10 * BlockSize; a += BlockSize)
            gen.store(a, a);
        sys.run(gen);
        return sys.crashNow().work;
    };
    const CrashWork lazy = work_for(Scheme::Cobcm);
    const CrashWork eager = work_for(Scheme::NoGap);
    EXPECT_GT(lazy.countersIncremented, 0u);
    EXPECT_GT(lazy.otpsGenerated, 0u);
    EXPECT_GT(lazy.bmtRootUpdates, 0u);
    EXPECT_GT(lazy.macsComputed, 0u);
    EXPECT_EQ(eager.countersIncremented, 0u);
    EXPECT_EQ(eager.otpsGenerated, 0u);
    EXPECT_EQ(eager.bmtRootUpdates, 0u);
    EXPECT_EQ(eager.macsComputed, 0u);
}

TEST(Recovery, ActualEnergyOrderedBySchemeLaziness)
{
    auto energy_for = [](Scheme s) {
        SecPbSystem sys(cfgFor(s, 16));
        ScriptedGenerator gen;
        for (Addr a = 0; a < 10 * BlockSize; a += BlockSize)
            gen.store(a, a);
        sys.run(gen);
        return sys.crashNow().actualEnergyJ;
    };
    EXPECT_GT(energy_for(Scheme::Cobcm), energy_for(Scheme::Cm));
    EXPECT_GT(energy_for(Scheme::Cm), energy_for(Scheme::Bbb));
}

TEST(Recovery, DoubleCrashIsIdempotent)
{
    SecPbSystem sys(cfgFor(Scheme::Cobcm));
    ScriptedGenerator gen;
    for (Addr a = 0; a < 10 * BlockSize; a += BlockSize)
        gen.store(a, a + 9);
    sys.run(gen);
    CrashReport first = sys.crashNow();
    EXPECT_TRUE(first.recovered);
    CrashReport second = sys.crashNow();
    EXPECT_TRUE(second.recovered);
    EXPECT_EQ(second.work.entriesDrained, 0u);  // nothing left to drain
}

TEST(Recovery, DrainLatencyOrderedBySchemeLaziness)
{
    // The observer-blocked window (Section III-B blocking/warning
    // policies) grows with deferred work: COBCM > CM > NoGap.
    auto window_for = [](Scheme s) {
        SecPbSystem sys(cfgFor(s, 16));
        ScriptedGenerator gen;
        for (Addr a = 0; a < 12 * BlockSize; a += BlockSize)
            gen.store(a, a);
        sys.run(gen);
        return sys.crashNow().drainLatency;
    };
    const Cycles lazy = window_for(Scheme::Cobcm);
    const Cycles mid = window_for(Scheme::Cm);
    const Cycles eager = window_for(Scheme::NoGap);
    EXPECT_GT(lazy, mid);
    // CM and NoGap are within noise of each other (NoGap trades compute
    // for extra dirty-MDC flushes); both are far below COBCM.
    EXPECT_GE(static_cast<double>(mid) * 1.1,
              static_cast<double>(eager));
    EXPECT_GT(eager, 0u);  // even NoGap must move the entries out
}

TEST(Recovery, DrainLatencyScalesWithResidency)
{
    auto window_entries = [](unsigned stores) {
        SystemConfig cfg = cfgFor(Scheme::Cobcm, 64);
        SecPbSystem sys(cfg);
        ScriptedGenerator gen;
        for (Addr a = 0; a < stores * BlockSize; a += BlockSize)
            gen.store(a, a);
        sys.run(gen);
        return sys.crashNow().drainLatency;
    };
    EXPECT_GT(window_entries(40), window_entries(5));
}

TEST(Recovery, DrainWindowCountsTheMdcFlushOnce)
{
    // Drain the buffer cleanly, then crash: the battery's only work is
    // the dirty metadata-cache flush, N block writes with no compute, so
    // the window is N writes over the banks plus the serial tail.
    const SystemConfig cfg = cfgFor(Scheme::Cobcm, 16);
    SecPbSystem sys(cfg);
    ScriptedGenerator gen;
    for (Addr a = 0; a < 12 * BlockSize; a += BlockSize)
        gen.store(a, a);
    sys.run(gen);
    sys.secpb().drainAll(nullptr);
    sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
    const CrashReport cr = sys.crashNow();
    const CrashWork &w = cr.work;
    ASSERT_EQ(w.entriesDrained, 0u);
    ASSERT_GT(w.mdcBlockFlushes, 0u);
    ASSERT_EQ(w.pmBlockWrites, w.mdcBlockFlushes);
    ASSERT_EQ(w.otpsGenerated + w.macsComputed + w.bmtLevelsWalked +
                  w.bmtNodesRebuilt + w.counterFetches +
                  w.cacheLinesFlushed,
              0u);
    const PcmConfig &pcm = cfg.pcm;
    const CryptoLatencies &lat = cfg.crypto;
    const Cycles tail = pcm.readLatency + lat.aesPad + 8 * lat.bmtHash +
                        lat.macHash + pcm.writeLatency;
    EXPECT_EQ(cr.drainLatency,
              w.mdcBlockFlushes * pcm.writeLatency / pcm.numBanks + tail);
}

TEST(Recovery, DrainLatencyNsMatchesClock)
{
    SecPbSystem sys(cfgFor(Scheme::Cobcm, 16));
    ScriptedGenerator gen;
    gen.store(0x0, 1).store(0x40, 2);
    sys.run(gen);
    CrashReport cr = sys.crashNow();
    // 4 GHz: 1 cycle = 0.25 ns.
    EXPECT_NEAR(cr.drainLatencyNs, cr.drainLatency * 0.25, 1e-6);
}

TEST(Recovery, SnapshotRowsAreTheOpenResidencies)
{
    // The oracle keeps a pre-residency snapshot only while a residency
    // is open: one row per resident entry through a gamess run, so never
    // more than the buffer's entries, and after a starved battery's
    // crash exactly the abandoned residencies. Every scheme row.
    std::vector<Scheme> rows = {Scheme::Bbb, Scheme::Sp, Scheme::SecWt};
    rows.insert(rows.end(), std::begin(SchemeZoo), std::end(SchemeZoo));
    for (Scheme scheme : rows) {
        const SystemConfig cfg = cfgFor(scheme, 32);
        SecPbSystem sys(cfg);
        const PersistOracle &oracle = sys.oracle();
        SyntheticGenerator gen(profileByName("gamess"), 100'000, 3);
        sys.start(gen);
        for (Tick t = 10'000; t <= 60'000; t += 10'000) {
            sys.runUntil(t);
            ASSERT_EQ(oracle.numOpenResidencies(), sys.secpb().occupancy())
                << schemeName(scheme) << " at tick " << t;
            EXPECT_LE(oracle.numOpenResidencies(), cfg.secpb.numEntries);
        }
        sys.runUntil(MaxTick);
        ASSERT_TRUE(sys.finished());
        EXPECT_EQ(oracle.numOpenResidencies(), sys.secpb().occupancy())
            << schemeName(scheme);

        CrashOptions opts;
        opts.batteryEnergyJ = 0.15 * sys.provisionedCrashEnergy();
        const CrashReport cr = sys.crashNow(opts);
        EXPECT_TRUE(cr.recovered) << schemeName(scheme);
        EXPECT_EQ(oracle.numOpenResidencies(), cr.work.abandoned.size())
            << schemeName(scheme);
        for (const AbandonedResidency &a : cr.work.abandoned)
            EXPECT_TRUE(oracle.residencyOpen(a.addr)) << schemeName(scheme);
        if (scheme == Scheme::Cobcm) {
            EXPECT_FALSE(cr.work.abandoned.empty());
        }
    }
}

TEST(RecoveryDeath, AbandonedResidencyMustMatchTheSnapshot)
{
    // A starved battery abandons residencies; their pendingWrites agree
    // with the oracle's snapshots, so the crash's own verifyAll
    // passes. A residency claiming one store too many is a bookkeeping
    // bug, and the verifier must stop on it rather than clamp it away.
    SecPbSystem sys(cfgFor(Scheme::Cobcm));
    SyntheticGenerator gen(profileByName("gamess"), 10'000, 3);
    sys.start(gen);
    sys.runUntil(40'000);
    CrashOptions opts;
    opts.batteryEnergyJ = 0.15 * sys.provisionedCrashEnergy();
    const CrashReport cr = sys.crashNow(opts);
    ASSERT_FALSE(cr.work.abandoned.empty());
    ASSERT_TRUE(cr.recovered);

    std::vector<AbandonedResidency> wrong = cr.work.abandoned;
    ++wrong.front().pendingWrites;
    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    EXPECT_DEATH(verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle(),
                                    wrong),
                 "abandoned residency 0x[0-9a-f]+: [0-9]+ of [0-9]+ stores "
                 "pending");
}

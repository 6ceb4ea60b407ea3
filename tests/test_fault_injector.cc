/**
 * @file
 * Fault-injection subsystem tests: arbitrary-point crashes, bounded
 * battery drains with prefix verification, and tamper detection.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/system.hh"
#include "fault/injector.hh"
#include "fault/tamper.hh"
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

/** Stores to @p n consecutive distinct blocks, in address order. */
ScriptedGenerator
sequentialStores(unsigned n)
{
    ScriptedGenerator gen;
    for (Addr a = 0; a < n * std::uint64_t{BlockSize}; a += BlockSize)
        gen.store(a, a + 0x1234);
    return gen;
}

} // namespace

TEST(FaultInjector, CrashAtTickStopsMidRun)
{
    SecPbSystem sys(cfgFor(Scheme::Cobcm));
    SyntheticGenerator gen(profileByName("gamess"), 20'000, 7);
    FaultPlan plan;
    plan.crashAtTick = 5'000;
    FaultReport r = FaultInjector(sys, plan).run(gen);
    EXPECT_TRUE(r.crashedMidRun);
    EXPECT_LE(r.crashTick, 5'000u);
    EXPECT_TRUE(r.ok()) << plan.describe();
}

TEST(FaultInjector, CrashAtPersistCountTriggersPromptly)
{
    SecPbSystem sys(cfgFor(Scheme::Bcm));
    SyntheticGenerator gen(profileByName("omnetpp"), 20'000, 11);
    FaultPlan plan;
    plan.crashAtPersist = 40;
    FaultReport r = FaultInjector(sys, plan).run(gen);
    EXPECT_TRUE(r.crashedMidRun);
    EXPECT_GE(r.persistsAtCrash, 40u);
    // The hook fires at the first event boundary after the threshold;
    // one event admits at most a handful of coalesced stores.
    EXPECT_LE(r.persistsAtCrash, 48u);
    EXPECT_TRUE(r.ok()) << plan.describe();
}

TEST(FaultInjector, UnboundedPlanMatchesPlainCrash)
{
    // A plan with no trigger and an infinite battery reduces to the
    // classic end-of-run crashNow() experiment.
    SecPbSystem sys(cfgFor(Scheme::Cobcm));
    ScriptedGenerator gen = sequentialStores(12);
    FaultReport r = FaultInjector(sys, FaultPlan{}).run(gen);
    EXPECT_FALSE(r.crashedMidRun);
    EXPECT_FALSE(r.crash.work.batteryExhausted);
    EXPECT_TRUE(r.crash.work.abandoned.empty());
    EXPECT_TRUE(r.ok());
}

TEST(FaultInjector, BoundedBatteryDrainsInOrderPrefix)
{
    // Sequential stores to distinct blocks allocate entries in address
    // order, so allocation order == address order among residents: every
    // drained block must precede every abandoned block.
    SecPbSystem sys(cfgFor(Scheme::Cobcm, 32));
    ScriptedGenerator gen = sequentialStores(20);
    sys.run(gen);
    const std::size_t resident = sys.secpb().occupancy();
    ASSERT_GT(resident, 4u);

    CrashOptions opts;
    opts.batteryEnergyJ = 0.4 * sys.provisionedCrashEnergy();
    CrashReport cr = sys.crashNow(opts);

    EXPECT_TRUE(cr.work.batteryExhausted);
    EXPECT_FALSE(cr.work.abandoned.empty());
    EXPECT_FALSE(cr.work.drainedBlocks.empty());
    EXPECT_EQ(cr.work.drainedBlocks.size() + cr.work.abandoned.size(),
              resident);
    // Abandoned entries stay resident; drained ones are released.
    EXPECT_EQ(sys.secpb().occupancy(), cr.work.abandoned.size());

    const Addr max_drained = *std::max_element(
        cr.work.drainedBlocks.begin(), cr.work.drainedBlocks.end());
    for (const AbandonedResidency &a : cr.work.abandoned)
        EXPECT_GT(a.addr, max_drained);

    EXPECT_LE(cr.work.energySpentJ, *opts.batteryEnergyJ);
    EXPECT_TRUE(cr.recovery.ok()) << "partial drain must stay consistent";
    EXPECT_EQ(cr.recovery.staleConsistent + cr.recovery.tornDetected,
              cr.work.abandoned.size());
    EXPECT_TRUE(cr.recovered);
}

TEST(FaultInjector, ZeroBudgetAbandonsEverything)
{
    SecPbSystem sys(cfgFor(Scheme::Cobcm, 32));
    ScriptedGenerator gen = sequentialStores(10);
    sys.run(gen);
    const std::size_t resident = sys.secpb().occupancy();
    ASSERT_GT(resident, 0u);

    CrashOptions opts;
    opts.batteryEnergyJ = 0.0;
    CrashReport cr = sys.crashNow(opts);
    EXPECT_TRUE(cr.work.batteryExhausted);
    EXPECT_TRUE(cr.work.drainedBlocks.empty());
    EXPECT_EQ(cr.work.abandoned.size(), resident);
    // COBCM defers everything, so nothing of the abandoned residencies
    // ever reached PM: recovery serves the pre-residency versions.
    EXPECT_TRUE(cr.recovery.ok());
    EXPECT_TRUE(cr.recovered);
}

TEST(FaultInjector, FullBudgetNeverExhausts)
{
    // The provisioning is worst-case by construction: a battery holding
    // exactly the provisioned energy must always finish the drain.
    for (Scheme s : SecPbSchemes) {
        SecPbSystem sys(cfgFor(s, 16));
        SyntheticGenerator gen(profileByName("lbm"), 10'000, 3);
        sys.run(gen);
        CrashOptions opts;
        opts.batteryEnergyJ = sys.provisionedCrashEnergy();
        CrashReport cr = sys.crashNow(opts);
        EXPECT_FALSE(cr.work.batteryExhausted) << schemeName(s);
        EXPECT_TRUE(cr.work.abandoned.empty()) << schemeName(s);
        EXPECT_TRUE(cr.recovered) << schemeName(s);
    }
}

TEST(FaultInjector, BoundedDrainConsistentAcrossAllSchemes)
{
    // The prefix property must hold regardless of which tuple work each
    // scheme does early: eager schemes leave detectably torn residencies
    // (durable BMT root / counters cover the lost update), lazy schemes
    // leave clean pre-residency versions. Neither is silent corruption.
    for (Scheme s : SecPbSchemes) {
        SecPbSystem sys(cfgFor(s, 32));
        ScriptedGenerator gen = sequentialStores(20);
        sys.run(gen);
        CrashOptions opts;
        opts.batteryEnergyJ = 0.3 * sys.provisionedCrashEnergy();
        CrashReport cr = sys.crashNow(opts);
        EXPECT_TRUE(cr.recovery.ok())
            << schemeName(s) << ": prefix verification failed";
        EXPECT_TRUE(cr.recovered) << schemeName(s);
    }
}

TEST(FaultInjector, BbbBoundedDrainKeepsPlaintextPrefix)
{
    SecPbSystem sys(cfgFor(Scheme::Bbb, 32));
    ScriptedGenerator gen = sequentialStores(16);
    sys.run(gen);
    const std::size_t resident = sys.secpb().occupancy();
    ASSERT_GT(resident, 0u);
    CrashOptions opts;
    opts.batteryEnergyJ = 0.4 * sys.provisionedCrashEnergy();
    CrashReport cr = sys.crashNow(opts);
    EXPECT_TRUE(cr.work.batteryExhausted);
    EXPECT_TRUE(cr.recovered)
        << "insecure drain must still lose only a suffix";
}

TEST(FaultInjector, BbbCorruptedDrainedBlockIsPlaintextMismatch)
{
    // BBB has no integrity metadata, so recovery is a plaintext
    // comparison -- and it must still catch a block that differs from
    // what was persisted.
    SecPbSystem sys(cfgFor(Scheme::Bbb));
    ScriptedGenerator gen = sequentialStores(40);
    sys.run(gen);
    ASSERT_TRUE(sys.pm().hasData(0)) << "block 0 must have drained";
    sys.pm().tamperData(0, 3, 0x5a);
    const CrashReport cr = sys.crashNow();
    EXPECT_FALSE(cr.recovered);
    EXPECT_EQ(cr.recovery.plaintextMismatches, 1u);
    ASSERT_EQ(cr.recovery.faults.size(), 1u);
    EXPECT_EQ(cr.recovery.faults[0].addr, 0u);
    EXPECT_EQ(cr.recovery.faults[0].kind,
              BlockFaultKind::PlaintextMismatch);
}

TEST(FaultInjector, TamperEachRegionDetected)
{
    // Force one tamper of each region in turn and demand detection.
    for (unsigned region = 0; region < 4; ++region) {
        SecPbSystem sys(cfgFor(Scheme::Cobcm));
        ScriptedGenerator gen = sequentialStores(12);
        sys.run(gen);
        CrashReport cr = sys.crashNow();
        ASSERT_TRUE(cr.recovered);

        std::vector<Addr> candidates = sys.oracle().touchedBlocks();
        std::sort(candidates.begin(), candidates.end());
        const Addr victim = candidates[region % candidates.size()];
        const std::uint64_t page = sys.layout().pageIndex(victim);

        TamperRecord rec;
        rec.blockAddr = victim;
        rec.page = page;
        rec.mask = 0x5a;
        switch (region) {
          case 0:
            rec.region = TamperRegion::Data;
            sys.pm().tamperData(victim, 3, 0x5a);
            break;
          case 1:
            rec.region = TamperRegion::Counter;
            rec.mask = 1;
            sys.pm().tamperCounter(page,
                                   sys.layout().blockInPage(victim));
            break;
          case 2:
            rec.region = TamperRegion::Mac;
            sys.pm().tamperMac(victim, 0x5a);
            break;
          case 3: {
            rec.region = TamperRegion::BmtNode;
            const auto path = sys.tree().pathIndices(page);
            rec.level = 1;
            rec.nodeIndex = path[1];
            BmtNode forged = sys.tree().node(1, path[1]);
            forged.child[path[0] % 8] ^= 0x5a;
            ASSERT_TRUE(sys.tree().tamperNode(1, path[1], forged));
            break;
          }
        }

        RecoveryVerifier verifier(sys.layout(), sys.config().keys);
        RecoveryReport after =
            verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
        EXPECT_FALSE(after.ok()) << rec.describe();
        EXPECT_TRUE(TamperInjector::detected(rec, after, sys.layout(),
                                             sys.tree()))
            << rec.describe();
    }
}

TEST(FaultInjector, RandomTampersAllDetectedViaPlan)
{
    FaultPlan plan;
    plan.crashAtPersist = 60;
    plan.tamperCount = 4;
    plan.tamperSeed = 99;
    SecPbSystem sys(cfgFor(Scheme::Obcm));
    SyntheticGenerator gen(profileByName("gamess"), 20'000, 17);
    FaultReport r = FaultInjector(sys, plan).run(gen);
    ASSERT_TRUE(r.crash.recovered);
    ASSERT_EQ(r.tampers.size(), 4u);
    EXPECT_FALSE(r.postTamper.ok());
    EXPECT_TRUE(r.tampersAllDetected) << plan.describe();
    EXPECT_TRUE(r.ok());
}

TEST(FaultInjector, SpuriousBlockReported)
{
    // A PM write the oracle never saw (attacker-planted block) must be
    // flagged by the full scan, not silently ignored.
    SecPbSystem sys(cfgFor(Scheme::Cobcm));
    ScriptedGenerator gen = sequentialStores(6);
    sys.run(gen);
    sys.crashNow();
    const Addr planted = 1ULL << 20;
    ASSERT_FALSE(sys.oracle().touched(planted));
    BlockData junk = zeroBlock();
    setBlockWord(junk, 0, 0xdeadbeef);
    sys.pm().writeData(planted, junk);

    RecoveryVerifier verifier(sys.layout(), sys.config().keys);
    RecoveryReport r =
        verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
    EXPECT_EQ(r.spuriousBlocks, 1u);
    EXPECT_FALSE(r.ok());
    const auto it = std::find_if(
        r.faults.begin(), r.faults.end(), [&](const BlockFault &f) {
            return f.kind == BlockFaultKind::SpuriousBlock &&
                   f.addr == planted;
        });
    EXPECT_NE(it, r.faults.end());
}

TEST(FaultInjector, PlanDescribeNamesEveryKnob)
{
    FaultPlan plan;
    plan.crashAtTick = 123;
    plan.crashAtPersist = 45;
    plan.batteryFraction = 0.5;
    plan.tamperCount = 2;
    plan.tamperSeed = 7;
    const std::string d = plan.describe();
    EXPECT_NE(d.find("tick=123"), std::string::npos) << d;
    EXPECT_NE(d.find("persist=45"), std::string::npos) << d;
    EXPECT_NE(d.find("battery=0.5"), std::string::npos) << d;
    EXPECT_NE(d.find("tampers=2"), std::string::npos) << d;
    EXPECT_EQ(FaultPlan{}.describe(), "crash@end");
}

TEST(FaultInjector, SoakTrialLineNamesTheWorkloadThatRan)
{
    // fault_soak's classic FAIL line: the drawn synthetic profile, or
    // the --workload spec that ran in its place.
    SoakTrial t = SoakTrial::draw(2026, 3);
    t.plan = FaultPlan{};
    const std::string head =
        std::string("scheme=") + schemeSpecName(t.scheme, t.params);
    const std::string tail = " instrs=" + std::to_string(t.instructions) +
                             " wseed=" + std::to_string(t.workloadSeed) +
                             " crash@end";
    EXPECT_EQ(t.describe(),
              head + " profile=" + std::string(t.profile) + tail);
    EXPECT_EQ(t.describe("kv_wal:keys=64"),
              head + " workload=kv_wal:keys=64" + tail);
}

TEST(FaultInjector, PostEventHookObservesEveryEvent)
{
    EventQueue eq;
    int events = 0, hooks = 0;
    eq.setPostEventHook([&] { ++hooks; });
    for (Tick t = 1; t <= 5; ++t)
        eq.schedule(t, [&] { ++events; });
    eq.run();
    EXPECT_EQ(events, 5);
    EXPECT_EQ(hooks, 5);

    // A stop request interrupts run() at the next event boundary and is
    // sticky until cleared.
    eq.schedule(10, [&] { ++events; });
    eq.schedule(11, [&] { ++events; });
    eq.setPostEventHook([&] { eq.requestStop(); });
    eq.run();
    EXPECT_EQ(events, 6);
    EXPECT_TRUE(eq.stopRequested());
    eq.clearStop();
    eq.clearPostEventHook();
    eq.run();
    EXPECT_EQ(events, 7);
}

/**
 * @file
 * Intermittent-power robustness tests: the system Capacitor as the
 * crash-drain budget (byte-identical to the flat scalar at full nominal
 * charge), crash-recover-crash power schedules across every scheme,
 * power loss during recovery, and the adaptive drain policy's
 * never-overspend invariant under brownouts.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/system.hh"
#include "fault/injector.hh"
#include "fault/power.hh"
#include "obs/trace.hh"
#include "recovery/restore.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

SystemConfig
batteryConfig(Scheme scheme, double provision_fraction = 1.0,
              bool adaptive = false,
              const CapacitorParams &params = {})
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.pmDataBytes = 1ULL << 30;
    cfg.battery.enabled = true;
    cfg.battery.cap = params;
    cfg.battery.provisionFraction = provision_fraction;
    cfg.battery.adaptive.enabled = adaptive;
    return cfg;
}

} // namespace

TEST(CapacitorBudget, FullNominalIsByteIdenticalToFlatBudget)
{
    // The acceptance contract for replacing the scalar budget: a
    // fixed-seed run crashing on an ideal capacitor at fraction f of
    // the worst-case provisioning must be *bit-identical* to the same
    // run under FaultPlan::batteryFraction = f.
    for (double f : {0.4, 0.75, 1.0}) {
        FaultReport flat, cell;
        {
            SystemConfig cfg;
            cfg.scheme = Scheme::Cobcm;
            cfg.pmDataBytes = 1ULL << 30;
            SecPbSystem sys(cfg);
            FaultPlan plan;
            plan.crashAtPersist = 150;
            plan.batteryFraction = f;
            SyntheticGenerator gen(profileByName("gamess"), 12'000, 7);
            flat = FaultInjector(sys, plan).run(gen);
        }
        {
            SecPbSystem sys(batteryConfig(Scheme::Cobcm, f));
            FaultPlan plan;
            plan.crashAtPersist = 150;  // Budget comes from the cell.
            SyntheticGenerator gen(profileByName("gamess"), 12'000, 7);
            cell = FaultInjector(sys, plan).run(gen);
        }

        ASSERT_TRUE(flat.crash.batteryBudgetJ.has_value());
        ASSERT_TRUE(cell.crash.batteryBudgetJ.has_value());
        EXPECT_EQ(*flat.crash.batteryBudgetJ, *cell.crash.batteryBudgetJ)
            << "budget mismatch at f=" << f;
        EXPECT_EQ(flat.crashTick, cell.crashTick);
        EXPECT_EQ(flat.persistsAtCrash, cell.persistsAtCrash);
        EXPECT_EQ(flat.crash.work.energySpentJ,
                  cell.crash.work.energySpentJ);
        EXPECT_EQ(flat.crash.work.batteryExhausted,
                  cell.crash.work.batteryExhausted);
        EXPECT_EQ(flat.crash.work.drainedBlocks,
                  cell.crash.work.drainedBlocks);
        ASSERT_EQ(flat.crash.work.abandoned.size(),
                  cell.crash.work.abandoned.size());
        for (std::size_t i = 0; i < flat.crash.work.abandoned.size(); ++i)
            EXPECT_EQ(flat.crash.work.abandoned[i].addr,
                      cell.crash.work.abandoned[i].addr);
        EXPECT_EQ(flat.crash.recovered, cell.crash.recovered);
        EXPECT_EQ(cell.crash.verdict, CrashVerdict::Pass);
        // And the cell's charge accounting closed the loop.
        ASSERT_TRUE(cell.crash.batteryAfterJ.has_value());
        EXPECT_FALSE(flat.crash.batteryAfterJ.has_value());
    }
}

TEST(CapacitorBudget, DrainDepletesTheCell)
{
    SecPbSystem sys(batteryConfig(Scheme::Bcm, 1.0));
    const double before = sys.battery()->storedEnergyJ();
    SyntheticGenerator gen(profileByName("lbm"), 8'000, 11);
    sys.start(gen);
    sys.runUntil(30'000);
    const CrashReport cr = sys.crashNow();
    ASSERT_TRUE(cr.batteryAfterJ.has_value());
    EXPECT_DOUBLE_EQ(before - *cr.batteryAfterJ, cr.work.energySpentJ);
    EXPECT_FALSE(cr.work.batteryExhausted);
    EXPECT_EQ(cr.verdict, CrashVerdict::Pass);
}

TEST(Intermittent, ScheduleDrawsAreDeterministicAndIndependent)
{
    PowerScheduleSpec spec = PowerScheduleSpec::parse("cycles=5,brownout=0.5");
    spec.seed = 99;
    for (unsigned c = 0; c < 5; ++c) {
        const PowerCycleDraw a = spec.draw(c);
        const PowerCycleDraw b = spec.draw(c);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.workloadSeed, b.workloadSeed);
        EXPECT_EQ(a.crashDelta, b.crashDelta);
        EXPECT_EQ(a.brownout, b.brownout);
        EXPECT_EQ(a.rechargeFraction, b.rechargeFraction);
        EXPECT_GE(a.instructions, spec.minInstructions);
        EXPECT_LE(a.instructions, spec.maxInstructions);
    }
    // Tampers only ever land on the final cycle.
    for (unsigned c = 0; c + 1 < 5; ++c)
        EXPECT_EQ(spec.draw(c).tampers, 0u);
}

TEST(IntermittentDeath, BadScheduleKeysAreFatal)
{
    EXPECT_EXIT(PowerScheduleSpec::parse("cycles=0"),
                ::testing::ExitedWithCode(1), "cycles must be");
    EXPECT_EXIT(PowerScheduleSpec::parse("bogus=1"),
                ::testing::ExitedWithCode(1), "unknown key");
    EXPECT_EXIT(PowerScheduleSpec::parse("cycles"),
                ::testing::ExitedWithCode(1), "key=value");
    EXPECT_EXIT(PowerScheduleSpec::parse("brownout=x"),
                ::testing::ExitedWithCode(1),
                "not a finite non-negative decimal number");
    // The schedule's seed is set by whoever runs it, not by the text.
    EXPECT_EXIT(PowerScheduleSpec::parse("cycles=3,seed=5"),
                ::testing::ExitedWithCode(1), "unknown key 'seed'");
    // Counts are strict decimals that fit their field: no sign wrap,
    // no silent truncation to 32 bits.
    EXPECT_EXIT(PowerScheduleSpec::parse("cycles=-1"),
                ::testing::ExitedWithCode(1), "not a decimal integer");
    EXPECT_EXIT(PowerScheduleSpec::parse("cycles=4294967297"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(PowerScheduleSpec::parse("tamper-max=-2"),
                ::testing::ExitedWithCode(1), "not a decimal integer");
    // Chances and charge fractions lie in [0, 1]; NaN is no number.
    EXPECT_EXIT(PowerScheduleSpec::parse("brownout=nan"),
                ::testing::ExitedWithCode(1),
                "brownout 'nan': not a finite non-negative decimal number");
    EXPECT_EXIT(PowerScheduleSpec::parse("brownout=7"),
                ::testing::ExitedWithCode(1), "must be in \\[0, 1\\]");
    EXPECT_EXIT(PowerScheduleSpec::parse("retain-min=0.9,retain-max=0.5"),
                ::testing::ExitedWithCode(1), "retain-max < retain-min");
    EXPECT_EXIT(PowerScheduleSpec::parse("fade=0"),
                ::testing::ExitedWithCode(1), "fade must be in");
}

TEST(Intermittent, CrashRecoverCrashSurvivesEverySecureScheme)
{
    // Three power cycles of crash -> restore -> run -> crash per
    // scheme, with brownouts and mid-recovery power loss in the
    // schedule. Every cycle must restore to a verified image and every
    // crash must recover prefix-consistently: zero silent acceptance.
    PowerScheduleSpec spec = PowerScheduleSpec::parse(
        "cycles=3,brownout=0.6,interrupt=0.6,tamper-max=2");
    spec.seed = 21;
    for (Scheme scheme : SchemeZoo) {
        IntermittentPowerInjector inj(batteryConfig(scheme), spec,
                                      "omnetpp");
        const IntermittentReport r = inj.run();
        ASSERT_EQ(r.cycles.size(), 3u);
        EXPECT_TRUE(r.ok()) << "scheme " << schemeName(scheme);
        for (const PowerCycleOutcome &c : r.cycles) {
            EXPECT_TRUE(c.restoreFinal.complete);
            EXPECT_TRUE(c.restoreFinal.verified);
            EXPECT_TRUE(c.fault.crash.recovered);
        }
    }
}

TEST(Intermittent, RestoreClosesEveryAbandonedResidency)
{
    // Deep brownouts on the unprotected flat cell abandon residencies at
    // most crashes. Each restore -- the interrupted pass and its re-run
    // alike -- reconciles every one of them, so the oracle is left with
    // no open residency and keeps no snapshot row across a power cycle.
    PowerScheduleSpec spec = PowerScheduleSpec::parse(
        "cycles=5,brownout=1,retain-min=0.05,retain-max=0.3,interrupt=0.5");
    spec.seed = 7;
    std::size_t abandoned = 0;
    for (Scheme scheme : {Scheme::Cobcm, Scheme::NoGap, Scheme::Bbb}) {
        IntermittentPowerInjector inj(batteryConfig(scheme), spec, "gamess");
        const IntermittentReport r = inj.run();
        ASSERT_EQ(r.cycles.size(), 5u);
        EXPECT_TRUE(r.ok()) << schemeName(scheme);
        for (std::size_t i = 0; i < r.cycles.size(); ++i) {
            const PowerCycleOutcome &c = r.cycles[i];
            EXPECT_EQ(c.restoreFirst.openResidencies, 0u)
                << schemeName(scheme) << " cycle " << i;
            EXPECT_EQ(c.restoreFinal.openResidencies, 0u)
                << schemeName(scheme) << " cycle " << i;
            // The next cycle restores this crash's abandoned suffix.
            if (i + 1 < r.cycles.size())
                abandoned += c.fault.crash.work.abandoned.size();
        }
    }
    EXPECT_GT(abandoned, 0u);
}

TEST(Intermittent, TraceMarksEveryBootAndInterruptedRestore)
{
    PowerScheduleSpec spec = PowerScheduleSpec::parse(
        "cycles=3,brownout=0.6,interrupt=0.6");
    spec.seed = 21;
    IntermittentPowerInjector inj(batteryConfig(Scheme::Cobcm), spec,
                                  "omnetpp");
    obs::Tracer t;
    IntermittentReport r;
    {
        obs::TraceSession session(&t);
        r = inj.run();
    }
    std::size_t boots = 0, interrupted = 0, expected_interrupted = 0;
    for (const obs::TraceEvent &e : t.events()) {
        boots += e.name == "power_cycle";
        interrupted += e.name == "restore_interrupted";
    }
    for (const PowerCycleOutcome &c : r.cycles)
        expected_interrupted += c.restoreInterrupted;
    EXPECT_EQ(boots, 3u);
    EXPECT_EQ(interrupted, expected_interrupted);
}

TEST(Intermittent, InterruptedRestoreRerunsToConvergence)
{
    // Crash with a starved battery to strand abandoned residencies,
    // then restore on a fresh incarnation with the BMT rebuild cut off
    // mid-walk -- power died during recovery. The re-run must converge
    // to a complete, verified restore.
    SystemConfig cfg;
    cfg.scheme = Scheme::Cobcm;
    cfg.pmDataBytes = 1ULL << 30;
    PmImage pm;
    BonsaiMerkleTree tree(1);
    PersistOracle oracle;
    std::vector<AbandonedResidency> abandoned;
    {
        SecPbSystem sys(cfg);
        SyntheticGenerator gen(profileByName("gamess"), 10'000, 3);
        sys.start(gen);
        sys.runUntil(40'000);
        CrashOptions opts;
        opts.batteryEnergyJ = 0.15 * sys.provisionedCrashEnergy();
        const CrashReport cr = sys.crashNow(opts);
        ASSERT_TRUE(cr.work.batteryExhausted);
        ASSERT_FALSE(cr.work.abandoned.empty());
        ASSERT_EQ(cr.verdict, CrashVerdict::Pass);
        pm = sys.pm();
        tree = sys.tree();
        oracle = sys.oracle();
        abandoned = cr.work.abandoned;
    }

    SecPbSystem reboot(cfg);
    reboot.adoptPersistentState(pm, tree, oracle);
    EXPECT_EQ(reboot.oracle().numOpenResidencies(), abandoned.size());
    RestoreManager rm(reboot);

    RestoreOptions cut;
    cut.maxLeafRepairs = 1;
    obs::Tracer t;
    RestoreReport first;
    {
        obs::TraceSession session(&t);
        first = rm.restore(abandoned, cut);
    }
    ASSERT_FALSE(first.complete);
    ASSERT_EQ(t.numEvents(), 1u);
    EXPECT_EQ(t.events()[0].name, "restore_interrupted");
    EXPECT_EQ(first.leavesRebuilt, 1u);
    EXPECT_FALSE(first.verified);
    EXPECT_EQ(first.openResidencies, 0u);

    const RestoreReport second = rm.restore(abandoned);
    EXPECT_TRUE(second.complete);
    EXPECT_TRUE(second.verified) << "re-run restore must converge";
    // Every abandoned residency was classified, none silently kept.
    EXPECT_EQ(second.blocksRetained + second.blocksRolledBack +
                  second.blocksForgotten + second.blocksQuarantined,
              abandoned.size());
    // The re-run classifies the same blocks with no residency open: a
    // reconciled block's current version is its durable one.
    EXPECT_EQ(second.blocksRetained + second.blocksForgotten,
              first.blocksRetained + first.blocksRolledBack +
                  first.blocksForgotten + first.blocksQuarantined);
    EXPECT_EQ(second.openResidencies, 0u);

    // And the restored image sustains a fresh workload segment.
    SyntheticGenerator gen2(profileByName("gamess"), 5'000, 4);
    reboot.start(gen2);
    reboot.runUntil(1'000'000'000);
    const CrashReport cr2 = reboot.crashNow();
    EXPECT_TRUE(cr2.recovered);
}

TEST(Intermittent, BbbBoundedCrashRestoresVerified)
{
    // BBB keeps plaintext in PM and no integrity metadata: restore has
    // no counters to reload and no BMT to rebuild, but it must still
    // reconcile the abandoned suffix and verify the image.
    SystemConfig cfg;
    cfg.scheme = Scheme::Bbb;
    cfg.pmDataBytes = 1ULL << 30;
    PmImage pm;
    BonsaiMerkleTree tree(1);
    PersistOracle oracle;
    std::vector<AbandonedResidency> abandoned;
    {
        SecPbSystem sys(cfg);
        SyntheticGenerator gen(profileByName("gamess"), 10'000, 3);
        sys.start(gen);
        sys.runUntil(40'000);
        CrashOptions opts;
        opts.batteryEnergyJ = 0.15 * sys.provisionedCrashEnergy();
        const CrashReport cr = sys.crashNow(opts);
        ASSERT_TRUE(cr.work.batteryExhausted);
        ASSERT_FALSE(cr.work.abandoned.empty());
        ASSERT_EQ(cr.verdict, CrashVerdict::Pass);
        pm = sys.pm();
        tree = sys.tree();
        oracle = sys.oracle();
        abandoned = cr.work.abandoned;
    }

    SecPbSystem reboot(cfg);
    reboot.adoptPersistentState(pm, tree, oracle);
    const RestoreReport r = RestoreManager(reboot).restore(abandoned);
    EXPECT_TRUE(r.complete);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.counterPagesReloaded, 0u);
    EXPECT_EQ(r.leavesRebuilt, 0u);
    EXPECT_EQ(r.blocksQuarantined, 0u);
    EXPECT_EQ(r.blocksRetained + r.blocksRolledBack + r.blocksForgotten,
              abandoned.size());
    EXPECT_EQ(r.verify.blocksChecked,
              reboot.oracle().touchedBlocks().size());
}

TEST(Intermittent, AdaptivePolicyNeverOverspendsTheCell)
{
    // The tentpole invariant: with the adaptive drain policy enabled,
    // no crash drain may need more energy than the capacitor held at
    // crash time -- even under a schedule of deep brownouts, partial
    // recharges, and per-cycle aging on a derated supercap.
    const CapacitorParams params = capacitorPresetFor("supercap", 0.4);
    PowerScheduleSpec spec = PowerScheduleSpec::parse(
        "cycles=4,brownout=0.9,retain-min=0.05,retain-max=0.3,"
        "fade=0.9,recharge-floor=0.5");
    spec.seed = 13;
    for (Scheme scheme : {Scheme::Cobcm, Scheme::NoGap}) {
        IntermittentPowerInjector inj(
            batteryConfig(scheme, 1.0, /*adaptive=*/true, params), spec,
            "mcf");
        const IntermittentReport r = inj.run();
        EXPECT_TRUE(r.ok()) << "scheme " << schemeName(scheme);
        for (const PowerCycleOutcome &c : r.cycles)
            EXPECT_NE(c.fault.verdict(), CrashVerdict::Overspent)
                << "scheme " << schemeName(scheme)
                << ": drain needed more than the cell held";
    }
}

TEST(Adaptive, WatermarksTightenWithBatteryHeadroom)
{
    // Provision the cell for only a sliver of the worst case: the
    // effective watermarks must derive below the configured ones, and
    // the allocation gate must engage under load.
    SystemConfig cfg = batteryConfig(Scheme::Cobcm, 0.05, true);
    SecPbSystem sys(cfg);
    SecPb &pb = sys.secpb();
    EXPECT_LT(pb.effectiveHighWatermarkEntries(),
              pb.highWatermarkEntries());
    EXPECT_LT(pb.effectiveLowWatermarkEntries(),
              pb.effectiveHighWatermarkEntries());

    SyntheticGenerator gen(profileByName("lbm"), 20'000, 9);
    const SimulationResult res = sys.run(gen);
    EXPECT_GT(res.persists, 0u);
    EXPECT_GT(pb.statBatteryStalls.value(), 0u);

    // The occupancy the gate enforced stays drainable: crash now and
    // the cell must cover the whole drain.
    const CrashReport cr = sys.crashNow();
    EXPECT_FALSE(cr.work.batteryExhausted);
    EXPECT_LE(cr.work.energySpentJ, *cr.batteryBudgetJ + 1e-12);
    EXPECT_EQ(cr.verdict, CrashVerdict::Pass);
}

TEST(Adaptive, FullNominalCellLeavesWatermarksAlone)
{
    // At full worst-case provisioning the policy must be invisible:
    // the effective watermarks equal the configured ones (modulo the
    // conservative in-flight margin never binding) and no stalls occur.
    SystemConfig cfg = batteryConfig(Scheme::Cobcm, 1.0, true);
    SecPbSystem sys(cfg);
    SecPb &pb = sys.secpb();
    EXPECT_EQ(pb.effectiveHighWatermarkEntries(),
              pb.highWatermarkEntries());
    EXPECT_EQ(pb.effectiveLowWatermarkEntries(),
              pb.lowWatermarkEntries());

    SyntheticGenerator gen(profileByName("gamess"), 15'000, 5);
    sys.run(gen);
    EXPECT_EQ(pb.statBatteryStalls.value(), 0u);
}

TEST(Intermittent, BrownoutReserveProtectsCommittedWork)
{
    // Load the buffer, brown the rail out to near-nothing, and crash
    // immediately: the BBU reserve must leave enough deliverable
    // energy for the committed obligation, so nothing is abandoned
    // beyond what the policy admitted.
    SystemConfig cfg = batteryConfig(Scheme::Obcm, 1.0, true);
    SecPbSystem sys(cfg);
    SyntheticGenerator gen(profileByName("lbm"), 10'000, 17);
    sys.start(gen);
    sys.runUntil(25'000);
    sys.applyBrownout(0.0);  // As deep as a sag can go.
    const CrashReport cr = sys.crashNow();
    EXPECT_LE(cr.work.energySpentJ, *cr.batteryBudgetJ + 1e-12);
    EXPECT_EQ(cr.verdict, CrashVerdict::Pass);
}

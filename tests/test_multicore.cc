/**
 * @file
 * Multi-core SecPB tests (paper Section IV-C(c)): entry migration on
 * remote writes, flush on remote reads, metadata travelling with
 * migrated entries, and crash recovery with per-core buffers. The
 * EpochGrid suite pins the epoch engine's schedule: barriers sit on the
 * absolute grid, so chopping a run into runUntil() steps changes
 * nothing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/multicore.hh"
#include "workload/scripted.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

SystemConfig
mcBase(Scheme scheme = Scheme::Cobcm)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.secpb.numEntries = 8;
    cfg.pmDataBytes = 1ULL << 30;
    return cfg;
}

/** Owned generators + the raw-pointer view MultiCoreSystem wants. */
struct GenSet
{
    std::vector<std::unique_ptr<SyntheticGenerator>> owned;
    std::vector<WorkloadGenerator *> raw;
};

/**
 * Four generators with pairwise-overlapping regions (cores 0/2 and 1/3
 * share pages), so the run exercises migrations, stop marks, and grant
 * ordering -- the machinery a shifted barrier would change.
 */
GenSet
sharingGens(std::uint64_t instr, std::uint64_t seed)
{
    GenSet g;
    for (unsigned c = 0; c < 4; ++c) {
        g.owned.push_back(std::make_unique<SyntheticGenerator>(
            profileByName("gcc"), instr, seed + c,
            /*region_base=*/0x100000ULL * (c % 2)));
        g.raw.push_back(g.owned.back().get());
    }
    return g;
}

std::string
fingerprint(const SimulationResult &r)
{
    std::ostringstream os;
    os.precision(17);
    r.visitFields([&](const char *k, auto v) { os << k << '=' << v << '\n'; });
    return os.str();
}

std::string
statsDump(const MultiCoreSystem &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

/** Crash-report fields plus every stat, as one comparable string. */
std::string
crashFingerprint(MultiCoreSystem &sys)
{
    const CrashReport cr = sys.crashNow();
    std::ostringstream os;
    os.precision(17);
    os << "drained=" << cr.work.entriesDrained
       << " root_updates=" << cr.work.bmtRootUpdates
       << " rebuilt=" << cr.work.bmtNodesRebuilt
       << " flushed=" << cr.work.cacheLinesFlushed
       << " window=" << cr.drainLatency << " energy=" << cr.actualEnergyJ
       << " recovered=" << cr.recovered << '\n';
    sys.dumpStats(os);
    return os.str();
}

} // namespace

TEST(MultiCore, PrivateWorkingSetsRunToCompletion)
{
    MultiCoreSystem sys(mcBase(), 4);
    std::vector<std::unique_ptr<ScriptedGenerator>> gens;
    std::vector<WorkloadGenerator *> raw;
    for (unsigned c = 0; c < 4; ++c) {
        auto g = std::make_unique<ScriptedGenerator>();
        for (int i = 0; i < 10; ++i)
            g->store(0x100000ULL * c + i * BlockSize, 0xC0 + i);
        raw.push_back(g.get());
        gens.push_back(std::move(g));
    }
    MultiCoreResult r = sys.run(raw);
    ASSERT_EQ(r.perCore.size(), 4u);
    for (const auto &pc : r.perCore)
        EXPECT_EQ(pc.persists, 10u);
    EXPECT_EQ(r.migrations, 0u);  // disjoint sets never migrate
    EXPECT_EQ(sys.totalPersists(), 40u);
    EXPECT_TRUE(sys.invariantNoReplication());
}

TEST(MultiCore, SharedBlockMigratesBetweenCores)
{
    MultiCoreSystem sys(mcBase(), 2);
    ScriptedGenerator g0, g1;
    g0.store(0x1000, 0xAAAA).instr(200);
    g1.instr(200).store(0x1000, 0xBBBB);
    std::vector<WorkloadGenerator *> gens{&g0, &g1};
    MultiCoreResult r = sys.run(gens);
    EXPECT_GE(r.migrations, 1u);
    // Last writer wins; the resident slice's oracle holds the block.
    EXPECT_EQ(blockWord(
                  sys.residentSystem(0x1000).oracle().blockContent(0x1000),
                  0),
              0xBBBBu);
    EXPECT_EQ(sys.totalPersists(), 2u);
    // No replication: at most one SecPB holds the block.
    const unsigned holders =
        (sys.secpb(0).occupancy() ? 1 : 0) +
        (sys.secpb(1).occupancy() ? 1 : 0);
    EXPECT_LE(holders, 1u);
}

TEST(MultiCore, MigrationCarriesValueIndependentMetadata)
{
    // Paper: "the requesting core would not require a counter, OTP, or
    // BMT root update" -- the counter bumps once per residency even when
    // the residency spans two cores.
    MultiCoreSystem sys(mcBase(Scheme::NoGap), 2);
    ScriptedGenerator g0, g1;
    g0.store(0x2000, 0x1);
    g1.instr(2000).store(0x2000, 0x2);
    std::vector<WorkloadGenerator *> gens{&g0, &g1};
    MultiCoreResult r = sys.run(gens);
    EXPECT_GE(r.migrations, 1u);
    // One residency, one increment -- across both cores. The page's
    // durable state (counter block included) lives in the slice it
    // migrated to; a crash must verify and leave the minor at 1.
    CrashReport cr = sys.crashNow();
    EXPECT_EQ(cr.verdict, CrashVerdict::Pass);
    SecPbSystem &home = sys.residentSystem(0x2000);
    EXPECT_GT(home.tree().numLevels(), 0u);
    EXPECT_EQ(home.pm()
                  .readCounterBlock(home.layout().pageIndex(0x2000))
                  .counterFor(home.layout().blockInPage(0x2000))
                  .minor,
              1u);
}

TEST(MultiCore, MigratedResidencyRecoversOnAStarvedDestination)
{
    // A resident entry migrates with its page; its oracle residency
    // goes with it, still open. A crash on the destination with no
    // battery to spare abandons it, and recovery must classify the
    // block against the snapshot taken on the source core.
    MultiCoreSystem sys(mcBase(), 2);
    ScriptedGenerator g0, g1;
    g0.store(0x3000, 0x1).store(0x3008, 0x2);
    g1.instr(2000).store(0x3010, 0x3);
    sys.start({&g0, &g1});
    sys.runUntil(20'000);
    ASSERT_GE(sys.directory().statMigrations.value(), 1.0);
    ASSERT_EQ(sys.secpb(0).occupancy(), 0u);
    ASSERT_EQ(sys.secpb(1).occupancy(), 1u);
    const PersistOracle &src = sys.slice(0).oracle();
    const PersistOracle &dst = sys.slice(1).oracle();
    EXPECT_EQ(src.numOpenResidencies(), 0u);
    ASSERT_TRUE(dst.residencyOpen(0x3000));
    EXPECT_EQ(dst.storeCount(0x3000), 3u);
    EXPECT_EQ(dst.preResidencyCount(0x3000), 0u);

    CrashOptions starved;
    starved.batteryEnergyJ = 0.0;
    const CrashReport cr = sys.slice(1).crashNow(starved);
    ASSERT_EQ(cr.work.abandoned.size(), 1u);
    EXPECT_EQ(cr.work.abandoned[0].pendingWrites, 3u);
    EXPECT_EQ(cr.verdict, CrashVerdict::Pass);
    EXPECT_EQ(cr.recovery.staleConsistent + cr.recovery.tornDetected, 1u);
    EXPECT_TRUE(dst.residencyOpen(0x3000));
}

TEST(MultiCore, RemoteReadFlushesOwnerEntry)
{
    MultiCoreSystem sys(mcBase(), 2);
    ScriptedGenerator g0, g1;
    g0.store(0x3000, 0x77);
    g1.instr(100);
    std::vector<WorkloadGenerator *> gens{&g0, &g1};
    sys.run(gens);
    ASSERT_EQ(sys.directory().owner(0x3000), 0u);

    EXPECT_TRUE(sys.coreRead(1, 0x3000));
    sys.runUntil(sys.now() + 1'000'000);
    EXPECT_EQ(sys.directory().owner(0x3000), NoOwner);
    // Residence stays with the flushing slice: its PM has the data.
    EXPECT_TRUE(sys.residentSystem(0x3000).pm().hasData(0x3000));
    EXPECT_EQ(sys.secpb(0).occupancy(), 0u);
}

TEST(MultiCore, LocalReadDoesNotFlush)
{
    MultiCoreSystem sys(mcBase(), 2);
    ScriptedGenerator g0, g1;
    g0.store(0x3000, 0x77);
    g1.instr(10);
    std::vector<WorkloadGenerator *> gens{&g0, &g1};
    sys.run(gens);
    EXPECT_FALSE(sys.coreRead(0, 0x3000));
    EXPECT_EQ(sys.directory().owner(0x3000), 0u);
}

TEST(MultiCore, PingPongSharingStillRecovers)
{
    // Heavy migration traffic: two cores alternately writing the same
    // small block set. The persist oracle and PM must agree afterwards.
    // Coherence is page-granular and grants batch at epoch barriers, so
    // the four shared blocks (one page) ping-pong as a unit: expect the
    // page to move both directions, not once per block.
    MultiCoreSystem sys(mcBase(Scheme::Cobcm), 2);
    ScriptedGenerator g0, g1;
    for (int i = 0; i < 30; ++i) {
        g0.store((i % 4) * BlockSize, 0xA000 + i).instr(60);
        g1.instr(30).store((i % 4) * BlockSize, 0xB000 + i).instr(30);
    }
    std::vector<WorkloadGenerator *> gens{&g0, &g1};
    MultiCoreResult r = sys.run(gens);
    EXPECT_GE(r.migrations, 2u);
    CrashReport cr = sys.crashNow();
    EXPECT_EQ(cr.verdict, CrashVerdict::Pass);
    EXPECT_TRUE(sys.invariantNoReplication());
}

TEST(MultiCore, RandomSharingPropertyCrash)
{
    // Four cores, overlapping random writes, crash mid-flight: recovery
    // must match the shared oracle for every secure scheme class.
    for (Scheme s : {Scheme::Cobcm, Scheme::Cm, Scheme::NoGap}) {
        MultiCoreSystem sys(mcBase(s), 4);
        Rng rng(314);
        std::vector<std::unique_ptr<ScriptedGenerator>> gens;
        std::vector<WorkloadGenerator *> raw;
        for (unsigned c = 0; c < 4; ++c) {
            auto g = std::make_unique<ScriptedGenerator>();
            for (int i = 0; i < 40; ++i) {
                g->store(blockAlign(rng.below(24 * BlockSize)) +
                             8 * rng.below(8),
                         rng.next());
                g->instr(static_cast<std::uint32_t>(1 + rng.below(30)));
            }
            raw.push_back(g.get());
            gens.push_back(std::move(g));
        }
        sys.start(raw);
        sys.runUntil(1'500);
        CrashReport cr = sys.crashNow();
        EXPECT_EQ(cr.verdict, CrashVerdict::Pass) << schemeName(s);
        EXPECT_TRUE(sys.directory().invariantSingleOwner());
        EXPECT_TRUE(sys.invariantNoReplication()) << schemeName(s);
    }
}

TEST(MultiCore, FourCoresAggregateThroughput)
{
    // Scaling smoke test: four cores retire four workloads' instructions.
    SystemConfig cfg = mcBase();
    cfg.secpb.numEntries = 32;
    MultiCoreSystem sys(cfg, 4);
    std::vector<std::unique_ptr<SyntheticGenerator>> gens;
    std::vector<WorkloadGenerator *> raw;
    for (unsigned c = 0; c < 4; ++c) {
        gens.push_back(std::make_unique<SyntheticGenerator>(
            profileByName("gcc"), 10'000, 100 + c,
            /*region_base=*/0x4000000ULL * c));
        raw.push_back(gens.back().get());
    }
    MultiCoreResult r = sys.run(raw);
    EXPECT_EQ(r.totalInstructions, 40'000u);
    EXPECT_EQ(r.migrations, 0u);
    // Shared-MC contention can stretch but not shrink any one core's run.
    for (const auto &pc : r.perCore)
        EXPECT_GT(pc.ipc, 0.1);
}

TEST(MultiCore, CrashEnergyProvisionsPerCore)
{
    MultiCoreSystem sys(mcBase(), 4);
    ScriptedGenerator g0, g1, g2, g3;
    g0.store(0x000, 1);
    g1.store(0x100000, 2);
    g2.store(0x200000, 3);
    g3.store(0x300000, 4);
    std::vector<WorkloadGenerator *> gens{&g0, &g1, &g2, &g3};
    sys.run(gens);
    CrashReport cr = sys.crashNow();
    EXPECT_EQ(cr.verdict, CrashVerdict::Pass);
    EXPECT_EQ(cr.work.entriesDrained, 4u);
    // Provisioning covers four SecPBs.
    EnergyModel em(sys.slice(0).tree().numLevels() + 1);
    EXPECT_NEAR(cr.provisionedEnergyJ,
                4 * em.secPbBatteryEnergy(Scheme::Cobcm, 8), 1e-9);
}

TEST(MultiCore, CrashReportSumsPerCoreBatteries)
{
    // With no budget given each core drains from its own Capacitor: the
    // report's budget is what the cells could deliver. An explicit
    // budget is one shared pool and is reported as given. Either way the
    // charge left is what the cells hold afterwards.
    SystemConfig cfg = mcBase();
    cfg.battery.enabled = true;
    auto check = [&](std::optional<double> pool_share) {
        MultiCoreSystem sys(cfg, 2);
        SyntheticGenerator g0(profileByName("gcc"), 20'000, 5);
        SyntheticGenerator g1(profileByName("gcc"), 20'000, 6,
                              /*region_base=*/0x100000);
        sys.start({&g0, &g1});
        sys.runUntil(20'000);
        double deliverable = 0.0;
        for (unsigned c = 0; c < 2; ++c)
            deliverable += sys.slice(c).battery()->deliverableEnergyJ();
        CrashOptions opts;
        if (pool_share)
            opts.batteryEnergyJ = *pool_share * deliverable;
        const CrashReport cr = sys.crashNow(opts);
        double stored = 0.0;
        for (unsigned c = 0; c < 2; ++c)
            stored += sys.slice(c).battery()->storedEnergyJ();

        EXPECT_GT(cr.work.entriesDrained, 0u);
        EXPECT_EQ(cr.verdict, CrashVerdict::Pass);
        ASSERT_TRUE(cr.batteryBudgetJ.has_value());
        EXPECT_DOUBLE_EQ(*cr.batteryBudgetJ,
                         opts.batteryEnergyJ.value_or(deliverable));
        ASSERT_TRUE(cr.batteryAfterJ.has_value());
        EXPECT_DOUBLE_EQ(*cr.batteryAfterJ, stored);
    };
    check(std::nullopt);  // each core drains its own cell
    check(0.5);           // one shared pool of half the charge
}

TEST(EpochGrid, RunUntilSlicingDoesNotChangeBehavior)
{
    // Epochs end on multiples of epochTicks regardless of how the run is
    // chopped into runUntil() calls: one run() and many odd-sized steps
    // land on the same barriers, hence the same grant order and the
    // same final state.
    MultiCoreSystem whole(mcBase(), 4);
    GenSet wholeGens = sharingGens(4'000, 99);
    const MultiCoreResult r = whole.run(wholeGens.raw);
    EXPECT_GT(r.migrations, 0u) << "workload must exercise sharing";

    MultiCoreSystem stepped(mcBase(), 4);
    GenSet stepGens = sharingGens(4'000, 99);
    stepped.start(stepGens.raw);
    while (!stepped.finished())
        stepped.runUntil(stepped.now() + 777);

    EXPECT_EQ(statsDump(stepped), statsDump(whole));
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(fingerprint(stepped.slice(c).result()),
                  fingerprint(whole.slice(c).result()))
            << "core " << c;
}

TEST(EpochGrid, CrashMidEpochIndependentOfRunUntilSlicing)
{
    // Crash at a tick that is NOT on the epoch grid, reached in one
    // runUntil() and in odd-sized steps: the barriers before the crash,
    // and so the crashed state, must be the same.
    MultiCoreSystem once(mcBase(), 4);
    GenSet onceGens = sharingGens(6'000, 7);
    once.start(onceGens.raw);
    const Tick et = once.epochTicks();
    const Tick crashAt = 2 * et + et / 3;
    once.runUntil(crashAt);
    const std::string ref = crashFingerprint(once);
    EXPECT_NE(ref.find("recovered=1"), std::string::npos);

    MultiCoreSystem stepped(mcBase(), 4);
    GenSet stepGens = sharingGens(6'000, 7);
    stepped.start(stepGens.raw);
    while (stepped.now() < crashAt)
        stepped.runUntil(std::min<Tick>(crashAt, stepped.now() + 13));
    EXPECT_EQ(crashFingerprint(stepped), ref);
}

/**
 * @file
 * Quickstart: build a SecPB system, run a workload, crash it, recover.
 *
 * Demonstrates the three core library operations:
 *  1. assemble a system for a scheme (here COBCM, the paper's best),
 *  2. run a synthetic workload and read out performance statistics,
 *  3. inject a crash, battery-drain the SecPB, and verify that recovery
 *     reproduces the persist oracle with intact integrity metadata.
 */

#include <cinttypes>
#include <cstdio>

#include "core/simulation.hh"
#include "workload/synthetic.hh"

using namespace secpb;

int
main()
{
    setQuietLogging(true);

    // --- 1. Assemble -----------------------------------------------------
    const BenchmarkProfile &profile = profileByName("gamess");
    SimulationSpec spec;
    spec.base = SecPbSystem::configFor(Scheme::Cobcm, profile);
    const SystemConfig &cfg = spec.base;
    Simulation sim(spec);
    SecPbSystem &sys = sim.system();

    std::printf("SecPB quickstart\n");
    std::printf("  scheme          : %s\n", schemeName(cfg.scheme));
    std::printf("  SecPB entries   : %u\n", cfg.secpb.numEntries);
    std::printf("  BMT levels      : %u (+1 leaf hash per update)\n",
                sys.tree().numLevels());

    // --- 2. Run ----------------------------------------------------------
    SyntheticGenerator gen(profile, 200'000, /*seed=*/42);
    SimulationResult r = sys.run(gen);

    std::printf("\nrun of '%s' (%" PRIu64 " instructions)\n",
                profile.name.c_str(), r.instructions);
    std::printf("  exec time       : %" PRIu64 " cycles (IPC %.3f)\n",
                r.execTicks, r.ipc);
    std::printf("  persists        : %" PRIu64 " (PPTI %.1f)\n",
                r.persists, r.ppti);
    std::printf("  NWPE            : %.2f writes/entry\n", r.nwpe);
    std::printf("  BMT root updates: %" PRIu64 "\n", r.bmtRootUpdates);

    // --- 3. Crash + recover ----------------------------------------------
    // A second system, crashed mid-run, to exercise the battery path.
    SecPbSystem crash_sys(cfg);
    SyntheticGenerator gen2(profile, 200'000, /*seed=*/42);
    crash_sys.start(gen2);
    crash_sys.runUntil(50'000);
    CrashReport cr = crash_sys.crashNow();

    std::printf("\ncrash at cycle 50000\n");
    std::printf("  entries drained by battery : %" PRIu64 "\n",
                cr.work.entriesDrained);
    std::printf("  late BMT root updates      : %" PRIu64 "\n",
                cr.work.bmtRootUpdates);
    std::printf("  battery provisioned        : %.3f uJ\n",
                cr.provisionedEnergyJ * 1e6);
    std::printf("  battery actually used      : %.3f uJ\n",
                cr.actualEnergyJ * 1e6);
    std::printf("  observer-blocked window    : %" PRIu64 " cycles "
                "(%.0f ns)\n", cr.drainLatency, cr.drainLatencyNs);
    std::printf("  blocks verified at recovery: %" PRIu64 "\n",
                cr.recovery.blocksChecked);
    std::printf("  recovery                   : %s\n",
                cr.verdict == CrashVerdict::Pass
                    ? "OK (plaintext + MAC + BMT all verified)"
                    : "FAILED");

    return cr.verdict == CrashVerdict::Pass ? 0 : 1;
}

/**
 * @file
 * secpb_sim -- the command-line simulator driver.
 *
 * Runs one (scheme, benchmark) point and prints the result summary, the
 * full statistics tree, or CSV. This is the tool for exploring the
 * design space beyond the canned table/figure harnesses.
 *
 * `--help` lists its flags. The run is built like a sweep point
 * (makePoint + pointWorkload): --workload or --trace-in runs that
 * workload on the server machine model instead of a --bench profile.
 */

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>

#include "exp/experiment.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

struct Options
{
    std::string scheme = "cobcm";
    std::string bench;  ///< Empty: gamess, or the --workload alone.
    unsigned entries = 32;
    std::string bmf = "none";
    bool dumpStats = false;
    bool csv = false;
    Tick crashAt = 0;
    bool list = false;
};

BmfMode
parseBmf(const std::string &s)
{
    for (BmfMode m : {BmfMode::None, BmfMode::Dbmf, BmfMode::Sbmf})
        if (s == bmfModeName(m))
            return m;
    fatal("unknown BMF mode '%s' (none|dbmf|sbmf)", s.c_str());
}

void
printResult(const Options &opt, const std::string &label,
            const SimulationResult &r)
{
    if (opt.csv) {
        std::printf("%s,%s,%" PRIu64 ",%" PRIu64 ",%.4f,%.2f,%.2f,"
                    "%" PRIu64 ",%" PRIu64 "\n",
                    opt.scheme.c_str(), label.c_str(), r.instructions,
                    r.execTicks, r.ipc, r.ppti, r.nwpe, r.bmtRootUpdates,
                    r.pcmWrites);
        return;
    }
    std::printf("%-12s %-8s: %10" PRIu64 " cycles  IPC %.3f  PPTI %.1f  "
                "NWPE %.2f  BMT updates %" PRIu64 "\n",
                label.c_str(), opt.scheme.c_str(), r.execTicks, r.ipc,
                r.ppti, r.nwpe, r.bmtRootUpdates);
}

/** Run @p profile ("" = the server machine under spec.workload). */
int
runOne(const Options &opt, const SimulationSpec &spec,
       const std::string &profile)
{
    SchemeParams params;
    ExperimentPoint p =
        makePoint(parseSchemeSpec(opt.scheme, &params), profile);
    p.label = profile.empty() ? spec.workload : profile;
    SystemConfig &cfg = p.spec.base;
    cfg.secpb.params = params;
    cfg.secpb.numEntries = opt.entries;
    cfg.walker.bmfMode = parseBmf(opt.bmf);
    p.spec.instructions = spec.instructions;
    p.spec.seed = spec.seed;
    p.spec.workload = spec.workload;
    p.spec.traceRecord = spec.traceRecord;
    Simulation sim(p.spec);
    SecPbSystem &sys = sim.system();
    const std::unique_ptr<WorkloadGenerator> gen = pointWorkload(p);

    if (opt.crashAt > 0) {
        sys.start(*gen);
        sys.runUntil(opt.crashAt);
        CrashReport cr = sys.crashNow();
        std::printf("crash @ %" PRIu64 ": drained %" PRIu64 " entries, "
                    "%.2f uJ used / %.2f uJ provisioned, recovery %s\n",
                    static_cast<std::uint64_t>(opt.crashAt),
                    cr.work.entriesDrained, cr.actualEnergyJ * 1e6,
                    cr.provisionedEnergyJ * 1e6,
                    cr.verdict == CrashVerdict::Pass ? "OK" : "FAILED");
        return cr.verdict == CrashVerdict::Pass ? 0 : 1;
    }

    SimulationResult r = sys.run(*gen);
    printResult(opt, p.label, r);
    if (opt.dumpStats)
        sys.dumpStats(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    Options opt;
    SimulationSpec spec;
    spec.parseCli(
        argc, argv, "secpb_sim",
        flag::Instr | flag::Seed | flag::Workloads | flag::TraceRecord,
        {
            {0, "--scheme", "S", "scheme, canonical name (default cobcm)",
             readText(opt.scheme)},
            {0, "--bench", "NAME",
             "profile to run, or all (default gamess)",
             readText(opt.bench)},
            {0, "--entries", "N", "SecPB entries (default 32)",
             readCount(opt.entries)},
            {0, "--bmf", "MODE", "BMT height reduction: none|dbmf|sbmf",
             readText(opt.bmf)},
            {0, "--stats", nullptr, "dump the full stats tree",
             setSwitch(opt.dumpStats, true)},
            {0, "--csv", nullptr, "print CSV rows",
             setSwitch(opt.csv, true)},
            {0, "--crash", "TICK", "crash at TICK and report the drain",
             readCount(opt.crashAt)},
            {0, "--list", nullptr, "list the profiles and schemes",
             setSwitch(opt.list, true)},
        });

    fatal_if(!spec.workload.empty() && !opt.bench.empty(),
             "secpb_sim: --bench and --workload/--trace-in are mutually "
             "exclusive (a workload runs on the server machine model)");

    if (opt.list) {
        std::printf("benchmarks:");
        for (const auto &p : spec2006Profiles())
            std::printf(" %s", p.name.c_str());
        std::printf("\nschemes: %s\n", allSchemeNames().c_str());
        return 0;
    }

    if (opt.csv)
        std::printf("scheme,bench,instructions,cycles,ipc,ppti,nwpe,"
                    "bmt_updates,pcm_writes\n");

    if (!spec.workload.empty())
        return runOne(opt, spec, "");
    if (opt.bench == "all") {
        int rc = 0;
        for (const auto &p : spec2006Profiles()) {
            rc |= runOne(opt, spec, p.name);
            spec.traceRecord.clear();  // --trace-record: first run only
        }
        return rc;
    }
    return runOne(opt, spec, opt.bench.empty() ? "gamess" : opt.bench);
}

/**
 * @file
 * secpb_sim -- the command-line simulator driver.
 *
 * Runs one (scheme, benchmark) point and prints the result summary, the
 * full statistics tree, or CSV. This is the tool for exploring the
 * design space beyond the canned table/figure harnesses.
 *
 * Usage:
 *   secpb_sim [--scheme cobcm] [--bench gamess|all] [--entries N]
 *             [--bmf none|dbmf|sbmf] [--stats] [--csv] [--crash TICK]
 *             [--list] [--help] [spec flags]
 *
 * The spec flags (--instr, --seed, --workload, --trace-in,
 * --trace-record, ...) go through SimulationSpec::fromCli, the parser
 * every bench shares, and the run is built like a sweep point
 * (makePoint + pointWorkload): --workload or --trace-in runs that
 * workload on the server machine model instead of a --bench profile.
 * Integer values must be plain non-negative decimals; anything else
 * (a sign, trailing garbage, overflow) is fatal, never truncated.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "exp/experiment.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

/** The usage block above, printed by --help (-h). */
constexpr const char *Usage =
    "Usage:\n"
    "  secpb_sim [--scheme cobcm] [--bench gamess|all] [--entries N]\n"
    "            [--bmf none|dbmf|sbmf] [--stats] [--csv] [--crash TICK]\n"
    "            [--list] [--help] [spec flags]\n"
    "\n"
    "Spec flags (--workload/--trace-in run on the server machine model\n"
    "instead of a --bench profile; the battery and power flags belong\n"
    "to table6_battery_sweep and fault_soak):\n";

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
    if (s == "none")
        return BmfMode::None;
    if (s == "dbmf")
        return BmfMode::Dbmf;
    if (s == "sbmf")
        return BmfMode::Sbmf;
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
                    cr.recovered ? "OK" : "FAILED");
        return cr.recovered ? 0 : 1;
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
    SimulationSpec spec = SimulationSpec::fromCli(argc, argv, "secpb_sim");
    Options opt;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        auto number = [&](const char *flag) {
            return parseDecimalU64(
                (std::string("secpb_sim: ") + flag).c_str(), need(flag));
        };
        if (!std::strcmp(argv[i], "--scheme"))
            opt.scheme = need("--scheme");
        else if (!std::strcmp(argv[i], "--bench"))
            opt.bench = need("--bench");
        else if (!std::strcmp(argv[i], "--entries")) {
            const std::uint64_t n = number("--entries");
            fatal_if(n > std::numeric_limits<unsigned>::max(),
                     "secpb_sim: --entries '%s': out of range for an "
                     "entry count",
                     argv[i]);
            opt.entries = static_cast<unsigned>(n);
        }
        else if (!std::strcmp(argv[i], "--bmf"))
            opt.bmf = need("--bmf");
        else if (!std::strcmp(argv[i], "--stats"))
            opt.dumpStats = true;
        else if (!std::strcmp(argv[i], "--csv"))
            opt.csv = true;
        else if (!std::strcmp(argv[i], "--crash"))
            opt.crashAt = number("--crash");
        else if (!std::strcmp(argv[i], "--list"))
            opt.list = true;
        else if (!std::strcmp(argv[i], "--help") ||
                 !std::strcmp(argv[i], "-h")) {
            std::fputs(Usage, stdout);
            std::fputs(SimulationSpec::cliHelp(), stdout);
            return 0;
        } else
            fatal("unknown flag '%s'", argv[i]);
    }

    const CapacitorParams &cell = spec.base.battery.cap;
    fatal_if(cell.tech != "ideal" || cell.capacitanceDerate != 1.0 ||
                 !spec.powerSchedule.empty(),
             "secpb_sim: --battery-tech, --battery-derate and "
             "--power-schedule are not modelled here (use "
             "table6_battery_sweep or fault_soak)");
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

/**
 * @file
 * Recovery-window study (supports Section III-B's blocking/warning
 * observer policies; not a paper figure).
 *
 * After a crash the observer must wait for the battery to close the
 * draining + sec-sync gaps. This bench crashes each scheme mid-run on a
 * write-heavy workload and prints the estimated observer-blocked window
 * and the battery energy actually spent -- the "cost of laziness" at
 * recovery time, complementing Table V's provisioning cost. Each scheme
 * is a custom experiment point (crash mid-run instead of run-to-end).
 *
 * The crash table covers the full scheme zoo (the paper's six plus
 * secpm/triad/eadr/stream). A second section sweeps Triad-NVM's
 * `triad:levels=N` knob for N=1..4 against the cobcm/secpm/eadr
 * endpoints, pairing each candidate's crash window with its run-to-end
 * execution overhead over the insecure bbb baseline: the
 * recovery-time-vs-runtime-overhead frontier. Derived rows
 * (frontier_window_ns, frontier_overhead_pct, frontier_rebuild_nodes)
 * serialize the frontier into the JSON document.
 */

#include "bench_common.hh"

using namespace secpb;
using namespace secpb::bench;

namespace
{

/** One frontier candidate: a scheme plus its knobs. */
struct FrontierSpec
{
    Scheme scheme;
    SchemeParams params;

    std::string label() const { return schemeSpecName(scheme, params); }
};

/** The crash@quarter custom runner shared by both sections. */
ExperimentPoint
crashPoint(const BenchCli &cli, const FrontierSpec &fs,
           const std::string &profile, const char *suffix)
{
    ExperimentPoint p = cli.point(fs.scheme, profile);
    p.label = fs.label() + suffix;
    p.spec.base.secpb.params = fs.params;
    p.tag("crash_at", "instr/4");
    p.custom = [](const ExperimentPoint &pt) {
        Simulation sim(pt.spec);
        const auto gen = pointWorkload(pt);
        sim.start(*gen);
        sim.runUntil(pt.spec.instructions / 4);
        const CrashReport cr = sim.crashNow();
        ExperimentResult r;
        r.sim = sim.result();
        r.extra = {
            {"entries_drained",
             static_cast<double>(cr.work.entriesDrained)},
            {"late_bmt_updates",
             static_cast<double>(cr.work.bmtRootUpdates)},
            {"bmt_nodes_rebuilt",
             static_cast<double>(cr.work.bmtNodesRebuilt)},
            {"cache_lines_flushed",
             static_cast<double>(cr.work.cacheLinesFlushed)},
            {"window_cycles", static_cast<double>(cr.drainLatency)},
            {"window_ns", cr.drainLatencyNs},
            {"energy_uj", cr.actualEnergyJ * 1e6},
            {"recovered", cr.verdict == CrashVerdict::Pass ? 1.0 : 0.0},
        };
        return r;
    };
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchCli cli = BenchCli::parse(
        argc, argv, "recovery_window", flag::Grid | flag::Schemes);
    const std::string profile = "gamess";

    // Crash table: the insecure baseline plus the whole secure zoo.
    std::vector<FrontierSpec> schemes;
    if (cli.wantScheme(Scheme::Bbb))
        schemes.push_back({Scheme::Bbb, cli.schemeParams});
    for (Scheme s : SchemeZoo)
        if (cli.wantScheme(s))
            schemes.push_back({s, cli.schemeParams});

    // Frontier candidates: the triad depth sweep between the endpoints.
    std::vector<FrontierSpec> frontier;
    for (Scheme s : {Scheme::Cobcm, Scheme::Secpm, Scheme::Eadr})
        if (cli.wantScheme(s))
            frontier.push_back({s, SchemeParams{}});
    if (cli.wantScheme(Scheme::Triad)) {
        for (unsigned lvl : {1u, 2u, 3u, 4u}) {
            SchemeParams params;
            params.triadLevels = lvl;
            frontier.push_back({Scheme::Triad, params});
        }
    }

    Sweep sweep(cli);
    std::vector<std::size_t> idx;
    for (const FrontierSpec &fs : schemes)
        idx.push_back(
            sweep.add(crashPoint(cli, fs, profile, "/crash@quarter")));

    // Frontier: each candidate contributes a run-to-end point (runtime
    // overhead vs the insecure baseline) and a crash point (window).
    std::size_t baseline_idx = 0;
    std::vector<std::size_t> frontier_run, frontier_crash;
    if (!frontier.empty()) {
        ExperimentPoint base = cli.point(Scheme::Bbb, profile);
        base.label = "bbb/run-to-end";
        baseline_idx = sweep.add(std::move(base));
        for (const FrontierSpec &fs : frontier) {
            ExperimentPoint run = cli.point(fs.scheme, profile);
            run.label = fs.label() + "/run-to-end";
            run.spec.base.secpb.params = fs.params;
            frontier_run.push_back(sweep.add(std::move(run)));
            frontier_crash.push_back(
                sweep.add(crashPoint(cli, fs, profile, "/frontier-crash")));
        }
    }

    sweep.run();

    // A crash that fails its verdict (the "recovered" extra) fails the
    // run.
    int status = 0;
    const auto verdict = [&status](const ExperimentResult &r) {
        if (r.extraValue("recovered") != 0.0)
            return "recovered";
        status = 1;
        return "RECOVERY FAILED";
    };
    std::printf("Recovery window after a crash at mid-run (gamess, "
                "32-entry SecPB)\n\n");
    std::printf("%-14s %8s %9s %9s %8s %12s %12s %10s\n", "scheme",
                "entries", "late BMT", "rebuilt", "flushed", "window (cyc)",
                "window (ns)", "energy uJ");
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const ExperimentResult &r = sweep.at(idx[i]);
        const std::string name = schemes[i].label();
        std::printf("%-14s %8.0f %9.0f %9.0f %8.0f %12.0f %12.1f %10.2f"
                    "   %s\n",
                    name.c_str(), r.extraValue("entries_drained"),
                    r.extraValue("late_bmt_updates"),
                    r.extraValue("bmt_nodes_rebuilt"),
                    r.extraValue("cache_lines_flushed"),
                    r.extraValue("window_cycles"), r.extraValue("window_ns"),
                    r.extraValue("energy_uj"), verdict(r));
        sweep.derive("window_ns", name, r.extraValue("window_ns"));
    }
    std::printf("\nlazier schemes block the crash observer longer: the "
                "other face of the\nperformance/battery trade-off "
                "(Fig. 3's sec-sync gap).\n");

    if (!frontier.empty()) {
        const double base_ticks = static_cast<double>(
            sweep.at(baseline_idx).sim.execTicks);
        std::printf("\nRecovery-time vs runtime-overhead frontier "
                    "(overhead vs bbb run-to-end)\n\n");
        std::printf("%-14s %14s %14s %12s %10s\n", "scheme",
                    "overhead (%)", "window (ns)", "rebuilt", "energy uJ");
        for (std::size_t i = 0; i < frontier.size(); ++i) {
            const ExperimentResult &run = sweep.at(frontier_run[i]);
            const ExperimentResult &cr = sweep.at(frontier_crash[i]);
            const std::string name = frontier[i].label();
            const double overhead_pct =
                base_ticks > 0.0
                    ? (static_cast<double>(run.sim.execTicks) / base_ticks -
                       1.0) * 100.0
                    : 0.0;
            std::printf("%-14s %14.2f %14.1f %12.0f %10.2f   %s\n",
                        name.c_str(), overhead_pct,
                        cr.extraValue("window_ns"),
                        cr.extraValue("bmt_nodes_rebuilt"),
                        cr.extraValue("energy_uj"), verdict(cr));
            sweep.derive("frontier_overhead_pct", name, overhead_pct);
            sweep.derive("frontier_window_ns", name,
                         cr.extraValue("window_ns"));
            sweep.derive("frontier_rebuild_nodes", name,
                         cr.extraValue("bmt_nodes_rebuilt"));
        }
        std::printf("\ntriad:levels trades the two axes: shallow "
                    "persistence (levels=1) is cheap at\nruntime but "
                    "rebuilds more of the tree at recovery; deeper "
                    "persistence converges\non the always-persisted "
                    "endpoints.\n");
    }

    sweep.writeJson();
    return status;
}

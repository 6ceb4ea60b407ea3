/**
 * @file
 * The randomized crash-consistency soak.
 *
 * Sweeps the full secure scheme zoo -- the paper's six SecPB schemes plus
 * secpm/triad/eadr/stream, trial t running SchemeZoo[t % 10] -- through
 * randomized crash points, bounded battery budgets, and post-crash tamper
 * attacks, fully deterministic from one seed, and prints a per-scheme
 * summary of what the sweep exercised. Each trial is drawn by
 * SoakTrial::draw (fault/injector.hh), which also states the machine it
 * runs on, and judged by its FaultReport::verdict(): the one crash
 * verdict that every crashNow sets (judgeCrash, core/results.hh) plus
 * the tamper check. The run exits nonzero, printing a one-line
 * reproducer per failing trial, on an inconsistent recovery, a silently
 * accepted tamper (listing each tamper and whether re-verification
 * flagged it), an unbounded battery that abandons anything, a bounded
 * one that abandons an entry it could pay for, or a drain that spends
 * more than max(budget, the mandatory floor). A soak of 100 or more
 * trials also fails if it missed a regime it exists to exercise (see
 * Column). ctest runs the first 120 trials.
 *
 * Each trial's parameter draw is seeded by (seed, trial index) alone, so
 * trials are independent experiment points: the engine runs them on
 * --jobs threads and the tallies are identical at any job count, and a
 * reproducer's trial can be replayed without its predecessors.
 *
 * The trial range and seed are flags of the soak's own (bench::SoakCli):
 * --trials N (trials [0, N), default 300), --soak-seed S (default 2026)
 * and --trial T (exactly trial T, as a reproducer names it). Each trial
 * draws its own run length and seed. With --workload SPEC the classic
 * soak crashes a registry workload (e.g. kv_wal mid-commit) instead of
 * the synthetic profiles.
 *
 * With --power-schedule the soak runs in intermittent-power mode
 * instead: each trial is a multi-cycle crash-recover-crash sequence on
 * a physical Capacitor (brownouts, partial recharges, aging, power loss
 * mid-recovery), scheme picked by trial index mod 10 and the adaptive
 * drain policy alternating on/off by trial parity. Every cycle's crash
 * gets the same verdict; with the adaptive policy on, its allowance is
 * what the cell could deliver at crash time, mandatory floor included.
 * --battery-tech and --battery-derate build the cell
 * (base.battery.cap).
 *
 * A spec flag the chosen mode does not read dies naming the flag
 * (BenchCli::refuse): --workload with --power-schedule, and
 * --battery-tech or --battery-derate without it.
 *
 * A failing trial prints its replay line (SoakCli::reproducer): the
 * soak flags that select it and every spec flag the run had.
 */

#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "fault/injector.hh"
#include "fault/power.hh"

using namespace secpb;

namespace
{

using Draw = const SoakTrial &;
using Result = const ExperimentResult &;

/**
 * One column of the classic soak's per-scheme table: its header, printed
 * width and the count it sums, read off each trial's draw and result. A
 * column with a `cover` share names a regime the soak exists to reach: a
 * run of CoverageTrials or more fails unless the column totals more than
 * that share of its trials. Shorter runs and one-trial replays check
 * each trial's verdict only.
 */
struct Column
{
    const char *header;
    int width;
    double (*count)(Draw, Result);
    double cover = -1.0;  ///< Negative: no coverage requirement.
};

constexpr Column Columns[] = {
    {"trials", 7, [](Draw, Result) { return 1.0; }},
    {"mid-run", 8,
     [](Draw, Result r) { return r.extraValue("mid_run_crash"); }},
    {"bounded", 8,
     [](Draw t, Result) { return t.plan.batteryFraction ? 1.0 : 0.0; },
     1.0 / 3.0},
    {"exhausted", 10,
     [](Draw, Result r) { return r.extraValue("battery_exhausted"); }, 0.0},
    {"abandoned", 10,
     [](Draw, Result r) { return r.extraValue("abandoned_entries"); }, 0.0},
    {"torn", 6, [](Draw, Result r) { return r.extraValue("torn_detected"); }},
    {"stale", 7,
     [](Draw, Result r) { return r.extraValue("stale_consistent"); }},
    {"tampers", 8, [](Draw, Result r) { return r.extraValue("tampers"); },
     0.5},
};

constexpr double CoverageTrials = 100;

/**
 * Classic soak: each trial crashes the run at its drawn point, drains on
 * its drawn battery fraction and tampers the image. A tamper the
 * re-verification missed is listed, one line per tamper, under the
 * trial's FAIL line.
 */
int
runClassicSoak(const bench::SoakCli &cli)
{
    std::printf("fault soak: trials [%" PRIu64 ", %" PRIu64
                "), seed %" PRIu64 ", jobs %u\n\n",
                cli.first, cli.end, cli.seed, cli.jobs);

    bench::Sweep sweep(cli);
    // Each runner writes only its own trial's slot.
    std::vector<std::string> tamperLines(cli.end - cli.first);
    for (std::uint64_t trial = cli.first; trial < cli.end; ++trial) {
        const SoakTrial t = SoakTrial::draw(cli.seed, trial);
        ExperimentPoint p;
        p.label = "trial=" + std::to_string(trial);
        p.profile = t.profile;
        p.spec = t.spec;
        p.tag("plan", t.plan.describe());
        p.custom = [plan = t.plan,
                    lines = &tamperLines[trial - cli.first]](
                       const ExperimentPoint &pt) {
            Simulation sim(pt.spec);
            const auto gen = pointWorkload(pt);
            SecPbSystem &sys = sim.system();
            const FaultReport r = FaultInjector(sys, plan).run(*gen);
            const CrashVerdict v = r.verdict();
            if (v == CrashVerdict::UndetectedTamper)
                for (const TamperRecord &rec : r.tampers)
                    *lines += "  " + rec.describe() +
                              (TamperInjector::detected(rec, r.postTamper,
                                                        sys.layout(),
                                                        sys.tree())
                                   ? " (detected)\n"
                                   : " (SILENT)\n");
            const auto d = [](auto x) { return static_cast<double>(x); };
            ExperimentResult res;
            res.extra = {
                {"ok", d(v == CrashVerdict::Pass)},
                {"recovered", d(r.crash.recovered)},
                {"mid_run_crash", d(r.crashedMidRun)},
                {"battery_exhausted", d(r.crash.work.batteryExhausted)},
                {"abandoned_entries", d(r.crash.work.abandoned.size())},
                {"torn_detected", d(r.crash.recovery.tornDetected)},
                {"stale_consistent", d(r.crash.recovery.staleConsistent)},
                {"tampers", d(r.tampers.size())},
            };
            // Only a failing trial carries its verdict, so a clean
            // soak's JSON keeps its fields.
            if (v != CrashVerdict::Pass)
                res.extra.emplace_back("verdict", d(v));
            return res;
        };
        sweep.add(std::move(p));
    }

    sweep.run();

    double tally[std::size(SchemeZoo)][std::size(Columns)] = {};
    double total[std::size(Columns)] = {};
    double failures[std::size(SchemeZoo)] = {};
    int exit_code = 0;
    for (std::uint64_t trial = cli.first; trial < cli.end; ++trial) {
        const SoakTrial t = SoakTrial::draw(cli.seed, trial);
        const ExperimentResult &r = sweep.at(trial - cli.first);
        const std::size_t si = trial % std::size(SchemeZoo);
        for (std::size_t c = 0; c < std::size(Columns); ++c) {
            const double n = Columns[c].count(t, r);
            tally[si][c] += n;
            total[c] += n;
        }
        if (r.extraValue("ok") == 0.0) {
            ++failures[si];
            exit_code = 1;
            std::printf("FAIL: %s (%s); replay: %s\n%s",
                        t.describe(cli.spec.workload).c_str(),
                        crashVerdictName(static_cast<CrashVerdict>(
                            r.extraValue("verdict"))),
                        cli.reproducer(trial).c_str(),
                        tamperLines[trial - cli.first].c_str());
        }
    }

    std::printf("%-8s", "scheme");
    for (const Column &c : Columns)
        std::printf(" %*s", c.width, c.header);
    std::printf(" %9s", "failures");
    for (std::size_t s = 0; s < std::size(SchemeZoo); ++s) {
        std::printf("\n%-8s", schemeName(SchemeZoo[s]));
        for (std::size_t c = 0; c < std::size(Columns); ++c)
            std::printf(" %*.0f", Columns[c].width, tally[s][c]);
        std::printf(" %9.0f", failures[s]);
        sweep.derive("failures", schemeName(SchemeZoo[s]), failures[s]);
    }
    std::printf("\n");

    const double trials = static_cast<double>(cli.end - cli.first);
    for (std::size_t c = 0; c < std::size(Columns); ++c)
        if (trials >= CoverageTrials && Columns[c].cover >= 0.0 &&
            total[c] <= Columns[c].cover * trials) {
            exit_code = 1;
            std::printf("COVERAGE: %s %.0f in %.0f trials\n",
                        Columns[c].header, total[c], trials);
        }
    std::printf("\n%s\n", exit_code ? "SOAK FAILED" : "soak clean");

    sweep.writeJson();
    return exit_code;
}

/**
 * Intermittent-power soak (--power-schedule): each trial runs one full
 * multi-cycle power schedule -- brownouts, crash-recover-crash, power
 * loss during recovery -- on the system Capacitor, the adaptive drain
 * policy on for even trials. Trial t runs scheme SchemeZoo[t % 10], so
 * any run of >= 10 trials covers the whole zoo. Fails on the first
 * unverified restore or crash that fails its verdict.
 */
int
runIntermittentSoak(const bench::SoakCli &cli)
{
    const PowerScheduleSpec base =
        PowerScheduleSpec::parse(cli.spec.powerSchedule);
    const CapacitorParams &cell = cli.spec.base.battery.cap;
    std::printf("intermittent soak: trials [%" PRIu64 ", %" PRIu64
                "), seed %" PRIu64 ", schedule [%s], tech %s derate %.2f\n\n",
                cli.first, cli.end, cli.seed, base.describe(false).c_str(),
                cell.tech.c_str(), cell.capacitanceDerate);

    bench::Sweep sweep(cli);
    for (std::uint64_t trial = cli.first; trial < cli.end; ++trial) {
        // The classic trial's scheme and profile; its crash plan is
        // replaced by the power schedule.
        const SoakTrial t = SoakTrial::draw(cli.seed, trial);
        PowerScheduleSpec schedule = base;
        schedule.seed = cli.seed * 1'000'003 + trial;
        // Alternate the adaptive drain policy: even trials run with it
        // (and must keep even the mandatory floor inside the cell), odd
        // trials run the unprotected flat capacitor so brownouts
        // actually abandon entries and exercise the restore triage
        // paths.
        const bool adaptive = trial % 2 == 0;

        ExperimentPoint p;
        p.label = "trial=" + std::to_string(trial);
        p.profile = t.profile;
        p.spec = t.spec;
        SystemConfig &cfg = p.spec.base;
        cfg.battery.enabled = true;
        cfg.battery.cap = cell;
        cfg.battery.adaptive.enabled = adaptive;
        p.spec.instructions = 0;
        p.spec.seed = schedule.seed;
        p.tag("schedule", schedule.describe());
        p.tag("adaptive", adaptive ? "on" : "off");
        p.custom = [schedule](const ExperimentPoint &pt) {
            IntermittentPowerInjector inj(pt.spec.base, schedule,
                                          pt.profile);
            const IntermittentReport r = inj.run();

            std::uint64_t abandoned = 0, quarantined = 0, rolled = 0;
            std::uint64_t brownouts = 0, interrupts = 0, overspent = 0;
            for (const PowerCycleOutcome &c : r.cycles) {
                abandoned += c.fault.crash.work.abandoned.size();
                quarantined += c.restoreFinal.blocksQuarantined;
                rolled += c.restoreFinal.blocksRolledBack;
                brownouts += c.brownoutApplied;
                interrupts += c.restoreInterrupted;
                overspent += c.fault.verdict() == CrashVerdict::Overspent;
            }
            ExperimentResult res;
            res.extra = {
                {"ok", r.ok() ? 1.0 : 0.0},
                {"cycles", static_cast<double>(r.cycles.size())},
                {"abandoned_entries", static_cast<double>(abandoned)},
                {"quarantined", static_cast<double>(quarantined)},
                {"rolled_back", static_cast<double>(rolled)},
                {"brownouts", static_cast<double>(brownouts)},
                {"interrupted_restores", static_cast<double>(interrupts)},
                {"overspent_drains", static_cast<double>(overspent)},
            };
            return res;
        };
        sweep.add(std::move(p));
    }

    sweep.run();

    // The runner's extra @p key summed over every trial.
    const auto sum = [&sweep, n = cli.end - cli.first](const char *key) {
        double total = 0.0;
        for (std::uint64_t i = 0; i < n; ++i)
            total += sweep.at(i).extraValue(key);
        return total;
    };
    int exit_code = 0;
    std::uint64_t perScheme[std::size(SchemeZoo)] = {};
    for (std::uint64_t trial = cli.first; trial < cli.end; ++trial) {
        const ExperimentResult &r = sweep.at(trial - cli.first);
        const std::size_t si = trial % std::size(SchemeZoo);
        ++perScheme[si];
        if (r.extraValue("ok") == 0.0) {
            exit_code = 1;
            std::printf("FAIL: scheme=%s%s; replay: %s\n",
                        schemeName(SchemeZoo[si]),
                        r.extraValue("overspent_drains") > 0.0
                            ? " (drain spent past its allowance)"
                            : "",
                        cli.reproducer(trial).c_str());
        }
    }

    std::printf("power cycles %.0f, abandoned %.0f, quarantined %.0f, "
                "rolled back %.0f, brownouts %.0f, interrupted restores "
                "%.0f, overspent drains %.0f\nscheme coverage:",
                sum("cycles"), sum("abandoned_entries"), sum("quarantined"),
                sum("rolled_back"), sum("brownouts"),
                sum("interrupted_restores"), sum("overspent_drains"));
    for (std::size_t i = 0; i < std::size(SchemeZoo); ++i)
        std::printf(" %s=%" PRIu64, schemeName(SchemeZoo[i]), perScheme[i]);
    std::printf("\n\n%s\n",
                exit_code ? "SOAK FAILED" : "intermittent soak clean");
    sweep.derive("overspent_drains", "all", sum("overspent_drains"));
    sweep.writeJson();
    return exit_code;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::SoakCli cli = bench::SoakCli::parse(argc, argv);
    if (cli.spec.powerSchedule.empty()) {
        cli.refuse(flag::BatteryTech | flag::BatteryDerate,
                   "in classic mode (no --power-schedule)");
        return runClassicSoak(cli);
    }
    cli.refuse(flag::Workloads, "in intermittent mode (--power-schedule)");
    return runIntermittentSoak(cli);
}

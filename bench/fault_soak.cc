/**
 * @file
 * Standalone randomized crash-consistency soak driver.
 *
 * A larger, reportier sibling of tests/test_fault_soak.cc: sweeps the full
 * secure scheme zoo -- the paper's six SecPB schemes plus
 * secpm/triad/eadr/stream, trial t running SchemeZoo[t % 10] -- through
 * randomized crash points, bounded battery budgets, and post-crash tamper
 * attacks, fully deterministic from one seed, and prints a per-scheme
 * summary of what the sweep exercised. Each trial is drawn by
 * SoakTrial::draw (fault/injector.hh), the same draw as the unit-test
 * soak, and judged by its FaultReport::verdict(): the one crash verdict
 * that every crashNow sets (judgeCrash, core/results.hh) plus the
 * tamper check. The run exits nonzero, printing a one-line reproducer
 * per failing trial, on an inconsistent recovery, a silently accepted
 * tamper, an unbounded battery that abandons anything, a bounded one
 * that abandons an entry it could pay for, or a drain that spends more
 * than max(budget, the mandatory floor).
 *
 * Each trial's parameter draw is seeded by (seed, trial index) alone, so
 * trials are independent experiment points: the engine runs them on
 * --jobs threads and the tallies are identical at any job count, and a
 * reproducer's trial can be replayed without its predecessors.
 *
 * Knobs: SECPB_SOAK_TRIALS (default 300), SECPB_SOAK_SEED (default 2026),
 * SECPB_SOAK_TRIAL (replay exactly one trial index from a reproducer),
 * plus the flags `--help` lists; each trial draws its own run length and
 * seed. With --workload SPEC the classic soak crashes a registry
 * workload (e.g. kv_wal mid-commit) instead of the synthetic profiles.
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
 * A failing trial prints its replay line (bench::soakReproducer): the
 * SECPB_SOAK_* knobs that select it and every spec flag the run had.
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "fault/injector.hh"
#include "fault/power.hh"

using namespace secpb;

namespace
{

struct SchemeTally
{
    std::uint64_t trials = 0;
    std::uint64_t midRunCrashes = 0;
    std::uint64_t boundedDrains = 0;
    std::uint64_t exhausted = 0;
    std::uint64_t abandonedEntries = 0;
    std::uint64_t tornDetected = 0;
    std::uint64_t staleConsistent = 0;
    std::uint64_t tampers = 0;
    std::uint64_t failures = 0;
};

/**
 * Intermittent-power soak (--power-schedule): each trial runs one full
 * multi-cycle power schedule -- brownouts, crash-recover-crash, power
 * loss during recovery -- on the system Capacitor, the adaptive drain
 * policy on for even trials. Trial t runs scheme SchemeZoo[t % 10], so
 * any run of >= 10 trials covers the whole zoo. Fails on the first
 * unverified restore or crash that fails its verdict.
 */
int
runIntermittentSoak(const bench::BenchCli &cli, std::uint64_t seed,
                    std::uint64_t first, std::uint64_t trials)
{
    const PowerScheduleSpec base =
        PowerScheduleSpec::parse(cli.spec.powerSchedule);
    const CapacitorParams &cell = cli.spec.base.battery.cap;
    std::printf("intermittent soak: trials [%llu, %llu), seed %llu, "
                "schedule [%s], tech %s derate %.2f\n\n",
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(trials),
                static_cast<unsigned long long>(seed),
                base.describe(false).c_str(), cell.tech.c_str(),
                cell.capacitanceDerate);

    bench::Sweep sweep(cli);
    std::vector<std::size_t> idx;
    for (std::uint64_t trial = first; trial < trials; ++trial) {
        // The classic trial's scheme and profile; its crash plan is
        // replaced by the power schedule.
        const SoakTrial t = SoakTrial::draw(seed, trial);
        PowerScheduleSpec schedule = base;
        schedule.seed = seed * 1'000'003 + trial;
        // Alternate the adaptive drain policy: even trials run with it
        // (and must keep even the mandatory floor inside the cell), odd
        // trials run the unprotected flat capacitor so brownouts
        // actually abandon entries and exercise the restore triage
        // paths.
        const bool adaptive = trial % 2 == 0;

        // The default machine with a 1 GiB PM region, not a profile's.
        ExperimentPoint p;
        p.label = "trial=" + std::to_string(trial);
        p.profile = t.profile;
        SystemConfig &cfg = p.spec.base;
        cfg.scheme = t.scheme;
        cfg.secpb.params = t.params;
        cfg.pmDataBytes = 1ULL << 30;
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

            double abandoned = 0, quarantined = 0, rolled = 0;
            double brownouts = 0, interrupts = 0, overspent = 0;
            for (const PowerCycleOutcome &c : r.cycles) {
                abandoned += static_cast<double>(
                    c.fault.crash.work.abandoned.size());
                quarantined += static_cast<double>(
                    c.restoreFinal.blocksQuarantined);
                rolled += static_cast<double>(
                    c.restoreFinal.blocksRolledBack);
                brownouts += c.brownoutApplied ? 1.0 : 0.0;
                interrupts += c.restoreInterrupted ? 1.0 : 0.0;
                overspent +=
                    c.fault.verdict() == CrashVerdict::Overspent ? 1.0 : 0.0;
            }
            ExperimentResult res;
            res.extra = {
                {"ok", r.ok() ? 1.0 : 0.0},
                {"cycles", static_cast<double>(r.cycles.size())},
                {"abandoned_entries", abandoned},
                {"quarantined", quarantined},
                {"rolled_back", rolled},
                {"brownouts", brownouts},
                {"interrupted_restores", interrupts},
                {"overspent_drains", overspent},
            };
            return res;
        };
        idx.push_back(sweep.add(std::move(p)));
    }

    sweep.run();

    int exit_code = 0;
    std::uint64_t perScheme[std::size(SchemeZoo)] = {};
    double tot[7] = {};
    for (std::size_t i = 0; i < idx.size(); ++i) {
        const ExperimentResult &r = sweep.at(idx[i]);
        const std::size_t si = (first + i) % std::size(SchemeZoo);
        ++perScheme[si];
        // The runner's extras after "ok", in the order printed below.
        for (std::size_t k = 0; k < std::size(tot); ++k)
            tot[k] += r.extra[k + 1].second;
        if (r.extraValue("ok") == 0.0) {
            exit_code = 1;
            std::printf("FAIL: scheme=%s%s; replay: %s\n",
                        schemeName(SchemeZoo[si]),
                        r.extraValue("overspent_drains") > 0.0
                            ? " (drain spent past its allowance)"
                            : "",
                        bench::soakReproducer(cli, seed, first + i).c_str());
        }
    }

    std::printf("power cycles %.0f, abandoned %.0f, quarantined %.0f, "
                "rolled back %.0f, brownouts %.0f, interrupted restores "
                "%.0f, overspent drains %.0f\n",
                tot[0], tot[1], tot[2], tot[3], tot[4], tot[5], tot[6]);
    std::printf("scheme coverage:");
    for (std::size_t i = 0; i < std::size(SchemeZoo); ++i)
        std::printf(" %s=%llu", schemeName(SchemeZoo[i]),
                    static_cast<unsigned long long>(perScheme[i]));
    std::printf("\n\n%s\n",
                exit_code ? "SOAK FAILED" : "intermittent soak clean");
    sweep.derive("overspent_drains", "all", tot[6]);
    sweep.writeJson();
    return exit_code;
}

} // namespace

int
main(int argc, char **argv)
{
    // The classic soak builds no system battery; the intermittent one
    // runs the drawn synthetic profile.
    const bench::BenchCli cli = bench::BenchCli::parse(
        argc, argv, "fault_soak",
        flag::SweepOut | flag::TraceOut | flag::Workloads |
        flag::BatteryTech | flag::BatteryDerate | flag::PowerSchedule);
    if (cli.spec.powerSchedule.empty())
        cli.refuse(flag::BatteryTech | flag::BatteryDerate,
                   "in classic mode (no --power-schedule)");
    else
        cli.refuse(flag::Workloads,
                   "in intermittent mode (--power-schedule)");
    const auto [seed, first, trials] = bench::soakRange(300);

    if (!cli.spec.powerSchedule.empty())
        return runIntermittentSoak(cli, seed, first, trials);

    std::printf("fault soak: trials [%llu, %llu), seed %llu, jobs %u\n\n",
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(trials),
                static_cast<unsigned long long>(seed), cli.jobs);

    bench::Sweep sweep(cli);
    std::vector<std::size_t> idx;
    std::vector<SoakTrial> params;
    for (std::uint64_t trial = first; trial < trials; ++trial) {
        const SoakTrial t = SoakTrial::draw(seed, trial);
        params.push_back(t);

        // The default machine with a 1 GiB PM region, not a profile's.
        ExperimentPoint p;
        p.label = "trial=" + std::to_string(trial);
        p.profile = t.profile;
        SimulationSpec &spec = p.spec;
        spec.base.scheme = t.scheme;
        spec.base.secpb.params = t.params;
        spec.base.pmDataBytes = 1ULL << 30;
        spec.instructions = t.instructions;
        spec.seed = t.workloadSeed;
        p.tag("plan", t.plan.describe());
        p.custom = [plan = t.plan](const ExperimentPoint &pt) {
            Simulation sim(pt.spec);
            const auto gen = pointWorkload(pt);
            const FaultReport r =
                FaultInjector(sim.system(), plan).run(*gen);
            const CrashVerdict v = r.verdict();
            ExperimentResult res;
            res.extra = {
                {"ok", v == CrashVerdict::Pass ? 1.0 : 0.0},
                {"recovered", r.crash.recovered ? 1.0 : 0.0},
                {"mid_run_crash", r.crashedMidRun ? 1.0 : 0.0},
                {"battery_exhausted",
                 r.crash.work.batteryExhausted ? 1.0 : 0.0},
                {"abandoned_entries",
                 static_cast<double>(r.crash.work.abandoned.size())},
                {"torn_detected",
                 static_cast<double>(r.crash.recovery.tornDetected)},
                {"stale_consistent",
                 static_cast<double>(r.crash.recovery.staleConsistent)},
                {"tampers", static_cast<double>(r.tampers.size())},
            };
            // Only a failing trial carries its verdict, so a clean
            // soak's JSON keeps its fields.
            if (v != CrashVerdict::Pass)
                res.extra.emplace_back("verdict", static_cast<double>(v));
            return res;
        };
        idx.push_back(sweep.add(std::move(p)));
    }

    sweep.run();

    SchemeTally tally[std::size(SchemeZoo)];
    int exit_code = 0;
    for (std::size_t i = 0; i < idx.size(); ++i) {
        const SoakTrial &t = params[i];
        const ExperimentResult &r = sweep.at(idx[i]);
        SchemeTally &st = tally[(first + i) % std::size(SchemeZoo)];
        ++st.trials;
        st.midRunCrashes +=
            static_cast<std::uint64_t>(r.extraValue("mid_run_crash"));
        st.boundedDrains += t.plan.batteryFraction.has_value();
        st.exhausted +=
            static_cast<std::uint64_t>(r.extraValue("battery_exhausted"));
        st.abandonedEntries +=
            static_cast<std::uint64_t>(r.extraValue("abandoned_entries"));
        st.tornDetected +=
            static_cast<std::uint64_t>(r.extraValue("torn_detected"));
        st.staleConsistent +=
            static_cast<std::uint64_t>(r.extraValue("stale_consistent"));
        st.tampers += static_cast<std::uint64_t>(r.extraValue("tampers"));

        if (r.extraValue("ok") == 0.0) {
            ++st.failures;
            exit_code = 1;
            std::printf("FAIL: %s (%s); replay: %s\n",
                        t.describe(cli.spec.workload).c_str(),
                        crashVerdictName(static_cast<CrashVerdict>(
                            r.extraValue("verdict"))),
                        bench::soakReproducer(cli, seed, first + i).c_str());
        }
    }

    std::printf("%-8s %7s %8s %8s %10s %10s %6s %7s %8s %9s\n", "scheme",
                "trials", "mid-run", "bounded", "exhausted", "abandoned",
                "torn", "stale", "tampers", "failures");
    for (std::size_t i = 0; i < std::size(SchemeZoo); ++i) {
        const SchemeTally &t = tally[i];
        std::printf("%-8s %7llu %8llu %8llu %10llu %10llu %6llu %7llu "
                    "%8llu %9llu\n",
                    schemeName(SchemeZoo[i]),
                    static_cast<unsigned long long>(t.trials),
                    static_cast<unsigned long long>(t.midRunCrashes),
                    static_cast<unsigned long long>(t.boundedDrains),
                    static_cast<unsigned long long>(t.exhausted),
                    static_cast<unsigned long long>(t.abandonedEntries),
                    static_cast<unsigned long long>(t.tornDetected),
                    static_cast<unsigned long long>(t.staleConsistent),
                    static_cast<unsigned long long>(t.tampers),
                    static_cast<unsigned long long>(t.failures));
        sweep.derive("failures", schemeName(SchemeZoo[i]),
                     static_cast<double>(t.failures));
    }
    std::printf("\n%s\n", exit_code ? "SOAK FAILED" : "soak clean");

    sweep.writeJson();
    return exit_code;
}

/**
 * @file
 * Randomized crash-consistency soak: the fault-injection subsystem's
 * acceptance test.
 *
 * Sweeps the full secure scheme zoo -- the paper's six SecPB schemes plus
 * secpm/triad/eadr/stream (scheme = trial mod std::size(SchemeZoo)) --
 * across randomized crash points (cycle- or persist-triggered), battery
 * budgets (from unbounded down to a sliver), tamper loads, and synthetic
 * workloads -- fully deterministic from one seed. Every trial must satisfy:
 *
 *  - recovery of the (possibly bounded) drain is consistent: the drained
 *    entries form an in-order prefix, abandoned residencies recover at
 *    their pre-residency version or as detectably torn, never as silent
 *    corruption;
 *  - an unbounded (or fully provisioned) battery abandons nothing;
 *  - an abandoned entry implies an exhausted battery, and a bounded
 *    battery spends no more than max(budget, the mandatory crash floor);
 *  - every injected post-crash tamper is flagged by re-verification.
 *
 * Trials come from SoakTrial::draw (fault/injector.hh) and are judged by
 * FaultReport::verdict(), the crash's own verdict plus the tamper check:
 * the same draw and verdict bench/fault_soak uses.
 * A failing trial prints its scheme, workload and fault plan, and the
 * fault_soak line that replays it (bench::soakReproducer).
 *
 * Knobs (bench::soakRange): SECPB_SOAK_TRIALS (default 120),
 * SECPB_SOAK_SEED (default 2026), SECPB_SOAK_TRIAL (replay exactly one
 * trial index from a reproducer).
 */

#include <gtest/gtest.h>

#include <string>

#include "../bench/bench_common.hh"
#include "core/system.hh"
#include "fault/injector.hh"
#include "workload/synthetic.hh"

using namespace secpb;

TEST(FaultSoak, RandomizedCrashTamperSweep)
{
    const auto [seed, first, trials] = bench::soakRange(120);

    std::uint64_t bounded = 0, exhausted = 0, torn = 0, stale = 0,
                  tampersInjected = 0;
    // fault_soak with no flags draws and judges the same trials.
    bench::BenchCli soak;
    soak.bench = "fault_soak";

    for (std::uint64_t trial = first; trial < trials; ++trial) {
        const SoakTrial t = SoakTrial::draw(seed, trial);
        const std::string repro =
            t.describe() + "; replay: " +
            bench::soakReproducer(soak, seed, trial);

        SystemConfig cfg;
        cfg.scheme = t.scheme;
        cfg.secpb.params = t.params;
        cfg.pmDataBytes = 1ULL << 30;
        SecPbSystem sys(cfg);
        SyntheticGenerator gen(profileByName(t.profile), t.instructions,
                               t.workloadSeed);

        FaultInjector injector(sys, t.plan);
        const FaultReport r = injector.run(gen);

        const CrashVerdict v = r.verdict();
        std::string detail;
        if (v == CrashVerdict::UndetectedTamper)
            for (const TamperRecord &rec : r.tampers)
                detail += "\n  " + rec.describe() +
                          (TamperInjector::detected(rec, r.postTamper,
                                                    sys.layout(), sys.tree())
                               ? " (detected)"
                               : " (SILENT)");
        ASSERT_EQ(v, CrashVerdict::Pass)
            << crashVerdictName(v) << ": " << repro << detail;

        bounded += t.plan.batteryFraction.has_value();
        exhausted += r.crash.work.batteryExhausted;
        torn += r.crash.recovery.tornDetected;
        stale += r.crash.recovery.staleConsistent;
        tampersInjected += r.tampers.size();
    }

    // The sweep must actually exercise the interesting regimes -- but
    // only when it IS a sweep: a short SECPB_SOAK_TRIALS run or a
    // single-trial SECPB_SOAK_TRIAL replay cannot be expected to cover
    // them.
    if (trials - first >= 100) {
        EXPECT_GT(bounded, trials / 3) << "too few bounded-battery trials";
        EXPECT_GT(exhausted, 0u) << "no trial ever exhausted its battery";
        EXPECT_GT(stale + torn, 0u) << "no trial ever abandoned an entry";
        EXPECT_GT(tampersInjected, trials / 2)
            << "too few tampers injected";
    }
}

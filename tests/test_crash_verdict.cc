/**
 * @file
 * The one crash verdict (judgeCrash): every rule on a hand-built report,
 * then the allowances on real machines -- the adaptive cell's budget as a
 * ceiling, the mandatory floor everywhere else, and SP's pending tuples
 * as part of that floor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/multicore.hh"
#include "core/system.hh"
#include "fault/injector.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

/** One row of the rule table. */
struct VerdictRow
{
    const char *name;
    bool recoveryFails;
    bool abandoned;
    bool exhausted;
    std::optional<double> budgetJ;
    double spentJ;
    double mandatoryJ;
    bool budgetIsCeiling;
    CrashVerdict expect;
};

CrashReport
reportFor(const VerdictRow &row)
{
    CrashReport cr;
    cr.recovery.macFailures = row.recoveryFails;
    if (row.abandoned)
        cr.work.abandoned.push_back({0x40, 1});
    cr.work.batteryExhausted = row.exhausted;
    cr.batteryBudgetJ = row.budgetJ;
    cr.work.energySpentJ = row.spentJ;
    cr.work.mandatoryJ = row.mandatoryJ;
    return cr;
}

SystemConfig
machine(Scheme scheme)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.pmDataBytes = 1ULL << 30;
    return cfg;
}

} // namespace

TEST(CrashVerdict, EveryRuleInOrder)
{
    using V = CrashVerdict;
    const std::optional<double> none;
    const VerdictRow rows[] = {
        {"unbounded, all drained", false, false, false, none, 0, 0, false,
         V::Pass},
        {"recovery fails", true, true, false, none, 0, 0, false,
         V::InconsistentRecovery},
        {"recovery fails before overspend", true, false, false, 1.0, 9.0,
         0, false, V::InconsistentRecovery},
        {"unbounded abandons", false, true, false, none, 0, 0, false,
         V::UnpaidAbandon},
        {"unbounded runs dry", false, false, true, none, 0, 0, false,
         V::UnpaidAbandon},
        {"budget abandons unexhausted", false, true, false, 1.0, 0.5, 0,
         false, V::UnpaidAbandon},
        {"budget abandons exhausted", false, true, true, 1.0, 1.0, 0,
         false, V::Pass},
        {"abandon before overspend", false, true, false, 1.0, 9.0, 0,
         false, V::UnpaidAbandon},
        {"spend within budget", false, false, false, 2.0, 2.0, 0.5, false,
         V::Pass},
        {"spend past budget", false, false, false, 2.0, 2.5, 0.5, false,
         V::Overspent},
        {"floor pays past budget", false, false, false, 1.0, 3.0, 3.0,
         false, V::Pass},
        {"spend past floor", false, false, false, 1.0, 3.5, 3.0, false,
         V::Overspent},
        {"adaptive cell: floor past the cell", false, false, false, 1.0,
         3.0, 3.0, true, V::Overspent},
        {"adaptive cell: within the cell", false, false, false, 4.0, 3.0,
         3.0, true, V::Pass},
        {"within the 1e-12 J slack", false, false, false, 1.0, 1.0 + 5e-13,
         0, true, V::Pass},
    };
    for (const VerdictRow &row : rows) {
        const CrashVerdict v = judgeCrash(reportFor(row),
                                          row.budgetIsCeiling);
        EXPECT_EQ(v, row.expect)
            << row.name << ": got " << crashVerdictName(v) << ", want "
            << crashVerdictName(row.expect);
    }

    // FaultReport adds the tamper check after the crash's own verdict.
    FaultReport r;
    r.crash.verdict = V::Pass;
    EXPECT_TRUE(r.ok());
    r.tampersAllDetected = false;
    EXPECT_EQ(r.verdict(), V::UndetectedTamper);
    r.crash.verdict = V::Overspent;
    EXPECT_EQ(r.verdict(), V::Overspent);
    EXPECT_FALSE(r.ok());

    // The names the soaks print.
    EXPECT_STREQ(crashVerdictName(V::Pass), "pass");
    EXPECT_STREQ(crashVerdictName(V::InconsistentRecovery),
                 "inconsistent recovery");
    EXPECT_STREQ(crashVerdictName(V::UndetectedTamper),
                 "undetected tamper");
    EXPECT_STREQ(crashVerdictName(V::UnpaidAbandon),
                 "abandoned entries the battery could pay for");
    EXPECT_STREQ(crashVerdictName(V::Overspent), "battery overspent");
}

TEST(CrashVerdict, AdaptiveCellIsACeilingTheFloorCannotPass)
{
    // Empty the machine's own cell before the crash: the mandatory floor
    // (the dirty metadata-cache flush) is charged anyway. Under the
    // adaptive policy the cell's budget is a promise, so that spend
    // fails; without it the floor allowance pays for it.
    for (const bool adaptive : {true, false}) {
        SystemConfig cfg = machine(Scheme::Cobcm);
        cfg.battery.enabled = true;
        cfg.battery.adaptive.enabled = adaptive;
        SecPbSystem sys(cfg);
        SyntheticGenerator gen(profileByName("gamess"), 20'000, 3);
        sys.start(gen);
        sys.runUntil(20'000);
        sys.battery()->setChargeFraction(0.0);
        const CrashReport cr = sys.crashNow();
        ASSERT_TRUE(cr.batteryBudgetJ.has_value());
        ASSERT_GT(cr.work.mandatoryJ, *cr.batteryBudgetJ + 1e-12);
        EXPECT_TRUE(cr.recovered);
        EXPECT_EQ(cr.verdict, adaptive ? CrashVerdict::Overspent
                                       : CrashVerdict::Pass)
            << "adaptive " << adaptive << ": "
            << crashVerdictName(cr.verdict);
    }
}

TEST(CrashVerdict, MulticoreTakesTheFirstFailingSlice)
{
    // Two cores on emptied adaptive cells: each slice's floor overspends
    // its cell, and the machine reports that verdict.
    SystemConfig cfg = machine(Scheme::Cobcm);
    cfg.battery.enabled = true;
    cfg.battery.adaptive.enabled = true;
    MultiCoreSystem sys(cfg, 2);
    SyntheticGenerator g0(profileByName("gamess"), 20'000, 3);
    SyntheticGenerator g1(profileByName("gamess"), 20'000, 4,
                          /*region_base=*/0x4000000);
    sys.start({&g0, &g1});
    sys.runUntil(20'000);
    for (unsigned c = 0; c < 2; ++c)
        sys.slice(c).battery()->setChargeFraction(0.0);
    EXPECT_EQ(sys.crashNow().verdict, CrashVerdict::Overspent);
}

TEST(CrashVerdict, SpPendingTuplesArePartOfTheFloor)
{
    // SP completes its pending tuples whatever the budget, so on a 1e-4
    // budget a correct drain spends past max(budget, the MDC flush
    // alone), the floor a rule without SP's tuples would allow. Every
    // crash passes; at least one spends past that narrower floor.
    unsigned past_flush_floor = 0;
    for (std::uint64_t n = 1; n <= 300; n += 7) {
        SecPbSystem sys(machine(Scheme::Sp));
        SyntheticGenerator gen(profileByName("gamess"), 20'000, 7);
        FaultPlan plan;
        plan.crashAtPersist = n;
        plan.batteryFraction = 1e-4;
        const FaultReport r = FaultInjector(sys, plan).run(gen);
        const CrashWork &w = r.crash.work;
        EXPECT_TRUE(r.ok()) << plan.describe() << ": "
                            << crashVerdictName(r.verdict());
        CrashWork flush_only;
        flush_only.pmBlockWrites = w.mdcBlockFlushes;
        flush_only.cacheLinesFlushed = w.cacheLinesFlushed;
        const double flush_floor =
            sys.energyModel().actualCrashEnergy(flush_only);
        past_flush_floor +=
            w.entriesDrained > 0 &&
            w.energySpentJ >
                std::max(*r.crash.batteryBudgetJ, flush_floor) + 1e-12;
    }
    EXPECT_GT(past_flush_floor, 0u);
}

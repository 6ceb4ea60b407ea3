/**
 * @file
 * Exhaustive crash points: every scheme row, crashed after every persist
 * count of a short scripted workload, on an ideal battery and on one
 * budget for every length of drained prefix.
 *
 * The workload allocates past the high watermark (so drains run), hits
 * resident entries (coalescing), and crosses a persist barrier; a
 * sec_wt run redoes the whole tuple on every store to one block, so its
 * sweep also crosses a minor-counter overflow and the page
 * re-encryption it triggers. Every crash must pass its verdict
 * (judgeCrash): tuple atomicity, the persist-order prefix when the
 * battery runs out, no abandon the battery could pay for, and no spend
 * past max(budget, the mandatory floor).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/system.hh"
#include "fault/injector.hh"
#include "workload/scripted.hh"

using namespace secpb;

namespace
{

/** The 13 scheme rows: the baselines and the whole zoo. */
std::vector<Scheme>
everyRow()
{
    std::vector<Scheme> rows = {Scheme::Bbb, Scheme::Sp, Scheme::SecWt};
    rows.insert(rows.end(), std::begin(SchemeZoo), std::end(SchemeZoo));
    return rows;
}

/** Word @p word of block @p block, the blocks spread over two pages. */
Addr
wordAddr(unsigned block, unsigned word)
{
    return block / 7 * PageSize + block % 7 * BlockSize + word % 8 * 8;
}

/**
 * 40 stores to 14 blocks on two pages: each block is allocated and at
 * once stored to again (a coalescing hit), every other one also hits
 * the block before it, and the 14 allocations run an 8-entry buffer
 * past its high watermark, so drains and re-allocations follow. A
 * persist barrier sits halfway.
 */
ScriptedGenerator
mixedStores()
{
    ScriptedGenerator gen;
    unsigned n = 0;
    const auto store = [&](unsigned block) {
        gen.store(wordAddr(block, n), 0x1000 + n).instr(3);
        if (++n == 20)
            gen.persistBarrier();
    };
    for (unsigned g = 0; n < 40; ++g) {
        store(g % 14);
        store(g % 14);
        if (g % 2 == 1 && n < 40)
            store((g - 1) % 14);
    }
    return gen;
}

/** @p n stores to one block. */
ScriptedGenerator
oneBlockStores(unsigned n)
{
    ScriptedGenerator gen;
    for (unsigned i = 0; i < n; ++i)
        gen.store(BlockSize + i % 8 * 8, 0x2000 + i);
    return gen;
}

/** What a sweep's crash points exercised. */
struct Coverage
{
    unsigned midRun = 0;     ///< Crashes that interrupted the run.
    unsigned exhausted = 0;  ///< Bounded drains the battery cut short.
    unsigned resident = 0;   ///< Crashes with entries left to drain.
};

/**
 * Crash @p scheme's run of @p script at every persist count: once on an
 * unbounded battery, then once per drained-prefix length 0..k, where k
 * is the number of entries resident at the crash. The budgets are found
 * by bisecting the battery fraction between 0, which drains nothing, and
 * one that drains everything: the provisioning (fraction 1), doubled
 * until it does -- for several rows the drain costs more than the
 * provisioning. Every crash must pass its verdict, and a bounded drain
 * must complete exactly the first entries of the unbounded drain's
 * persist order.
 */
Coverage
crashEverywhere(Scheme scheme, const ScriptedGenerator &script)
{
    Coverage cov;
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.secpb.numEntries = 8;
    cfg.pmDataBytes = 1ULL << 30;
    // Every store is a persist point.
    std::uint64_t stores = 0;
    ScriptedGenerator probe = script;
    for (TraceOp op; probe.next(op);)
        stores += op.kind == TraceOp::Kind::Store;
    EXPECT_GT(stores, 0u);
    for (std::uint64_t n = 1; n <= stores; ++n) {
        const auto crash = [&](std::optional<double> fraction) {
            SecPbSystem sys(cfg);
            ScriptedGenerator gen = script;
            FaultPlan plan;
            plan.crashAtPersist = n;
            plan.batteryFraction = fraction;
            const FaultReport r = FaultInjector(sys, plan).run(gen);
            const CrashWork &w = r.crash.work;
            const RecoveryReport &rr = r.crash.recovery;
            cov.midRun += r.crashedMidRun;
            cov.exhausted += w.batteryExhausted;
            cov.resident += w.entriesDrained > 0 || !w.abandoned.empty();
            EXPECT_TRUE(r.ok())
                << schemeName(scheme) << " " << plan.describe() << ": "
                << crashVerdictName(r.verdict()) << "; mac "
                << rr.macFailures << ", bmt " << rr.bmtFailures
                << ", plaintext " << rr.plaintextMismatches << ", missing "
                << rr.missingBlocks << ", spurious " << rr.spuriousBlocks
                << ", prefix " << rr.prefixViolations;
            return w.drainedBlocks;
        };
        const std::vector<Addr> order = crash(std::nullopt);
        const std::size_t k = order.size();

        struct Probe
        {
            double fraction;
            std::size_t drained;
        };
        std::vector<bool> seen(k + 1, false);
        const auto bounded = [&](double fraction) {
            const std::vector<Addr> drained = crash(fraction);
            const std::size_t j = drained.size();
            EXPECT_TRUE(j <= k && std::equal(drained.begin(), drained.end(),
                                             order.begin()))
                << schemeName(scheme) << " crash@persist=" << n
                << " battery=" << fraction << ": not the drain's prefix";
            seen[std::min(j, k)] = true;
            return Probe{fraction, j};
        };
        Probe all = bounded(1.0);
        for (int i = 0; i < 16 && all.drained < k; ++i)
            all = bounded(2 * all.fraction);
        std::vector<std::pair<Probe, Probe>> todo = {{bounded(0.0), all}};
        while (!todo.empty()) {
            const auto [lo, hi] = todo.back();
            todo.pop_back();
            if (hi.drained < lo.drained + 2)
                continue;
            const double mid = (lo.fraction + hi.fraction) / 2;
            if (mid == lo.fraction || mid == hi.fraction)
                continue;  // no budget between: reported below
            const Probe m = bounded(mid);
            todo.push_back({lo, m});
            todo.push_back({m, hi});
        }
        for (std::size_t j = 0; j <= k; ++j)
            EXPECT_TRUE(seen[j]) << schemeName(scheme)
                                 << " crash@persist=" << n
                                 << ": no budget drains exactly " << j
                                 << " of " << k << " entries";
    }
    return cov;
}

} // namespace

TEST(CrashPoints, EveryRowRecoversAtEveryPersistCount)
{
    setQuietLogging(true);
    const ScriptedGenerator script = mixedStores();
    {
        // Uncrashed, the script allocates, coalesces and drains.
        SystemConfig cfg;
        cfg.scheme = Scheme::Cobcm;
        cfg.secpb.numEntries = 8;
        SecPbSystem sys(cfg);
        ScriptedGenerator gen = script;
        sys.run(gen);
        ASSERT_EQ(sys.oracle().numPersists(), 40u);
        EXPECT_GT(sys.secpb().statCoalescedHits.value(), 10.0);
        EXPECT_GT(sys.secpb().statDrainedEntries.value(), 4.0);
    }
    unsigned exhausted = 0;
    for (Scheme scheme : everyRow()) {
        const Coverage cov = crashEverywhere(scheme, script);
        EXPECT_GT(cov.midRun, 0u) << schemeName(scheme);
        EXPECT_GT(cov.resident, 0u) << schemeName(scheme);
        exhausted += cov.exhausted;
    }
    EXPECT_GT(exhausted, 0u);
}

TEST(CrashPoints, SecWtRecoversAcrossAPageReencryption)
{
    // sec_wt increments the block's counter on every store, so 130
    // stores overflow its minor counter once.
    setQuietLogging(true);
    SecPbSystem sys([] {
        SystemConfig cfg;
        cfg.scheme = Scheme::SecWt;
        return cfg;
    }());
    ScriptedGenerator gen = oneBlockStores(130);
    sys.run(gen);
    ASSERT_GE(sys.secpb().statPageReencrypts.value(), 1.0);
    const Coverage cov = crashEverywhere(Scheme::SecWt, oneBlockStores(130));
    EXPECT_GT(cov.midRun, 0u);
    EXPECT_GT(cov.exhausted, 0u);
}

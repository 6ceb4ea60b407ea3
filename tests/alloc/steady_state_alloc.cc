/**
 * @file
 * Steady-state allocation: once a run is warm, a persist allocates
 * nothing.
 *
 * The persist path (SecPB accept, oracle, the tuple pipeline's
 * continuations, SP's pending tuples, store buffer, workload generator)
 * must cost O(1) memory and no heap traffic per store, on every scheme
 * row, or long runs grow without bound. Two runs of the same point that
 * differ only in length share their set-up cost, so the allocations
 * between them, divided by the persists between them, is the marginal
 * cost of one persist.
 *
 * Building a trial is cheap too: stats register without allocating,
 * a machine builds tags only for its three metadata caches, and a
 * workload's Zipf tables are built once per process, so a crash soak's
 * thousands of short trials stop paying a fixed set-up cost.
 *
 * A multi-core epoch barrier keeps its request list and scratch vectors
 * across barriers, so a warm barrier allocates nothing either, however
 * many pages it queries or moves.
 *
 * A run's heap grows with the blocks it touches, at a bounded cost per
 * block: the persist oracle keeps pre-residency snapshots only for open
 * residencies.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <vector>

#include "core/simulation.hh"
#include "workload/registry.hh"
#include "workload/shared_pool.hh"
#include "workload/synthetic.hh"

namespace
{
std::atomic<std::uint64_t> gAllocations{0};
std::atomic<std::uint64_t> gBytes{0};
} // namespace

// All three stay out of line: once inlined, GCC pairs malloc() and free()
// with the new-expressions and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    gBytes.fetch_add(bytes, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace secpb;

namespace
{

struct RunCost
{
    std::uint64_t allocations;
    std::uint64_t persists;
};

/** One gamess run of @p instructions under @p scheme, set-up included. */
RunCost
gamessRun(Scheme scheme, std::uint64_t instructions)
{
    const std::uint64_t before = gAllocations.load();
    std::uint64_t persists = 0;
    {
        const BenchmarkProfile &profile = profileByName("gamess");
        SimulationSpec spec;
        spec.base = SecPbSystem::configFor(scheme, profile);
        spec.instructions = instructions;
        Simulation sim(spec);
        SyntheticGenerator gen(profile, instructions, spec.seed);
        sim.system().run(gen);
        persists = sim.system().oracle().numPersists();
    }
    return {gAllocations.load() - before, persists};
}

TEST(SteadyStateAlloc, PersistsStopAllocatingAfterWarmUp)
{
    // Every scheme row: the baselines and the whole zoo, so each mode of
    // the tuple pipeline (early, drain, SP, Triad's drain-time path
    // persist) is covered.
    setQuietLogging(true);
    std::vector<Scheme> rows = {Scheme::Bbb, Scheme::Sp, Scheme::SecWt};
    rows.insert(rows.end(), std::begin(SchemeZoo), std::end(SchemeZoo));
    for (Scheme scheme : rows) {
        const RunCost shorter = gamessRun(scheme, 2'000'000);
        const RunCost longer = gamessRun(scheme, 4'000'000);
        ASSERT_GT(longer.persists, shorter.persists) << schemeName(scheme);
        const double allocations =
            static_cast<double>(longer.allocations) -
            static_cast<double>(shorter.allocations);
        const double per_persist =
            allocations /
            static_cast<double>(longer.persists - shorter.persists);
        EXPECT_LE(per_persist, 0.01)
            << schemeName(scheme) << ": " << allocations
            << " allocations over " << longer.persists - shorter.persists
            << " extra persists";
    }
}

TEST(SteadyStateAlloc, EpochBarriersStopAllocatingAfterWarmUp)
{
    // Four cores writing one shared page on every store (the
    // multicore_sharing bench's share=1.0 cell): the page migrates or
    // quiesces at nearly every barrier.
    setQuietLogging(true);
    constexpr unsigned Cores = 4;
    constexpr Tick WarmUp = 200'000;
    constexpr Tick WindowEnd = 600'000;
    for (Scheme scheme : {Scheme::Cobcm, Scheme::NoGap}) {
        SimulationSpec spec;
        spec.base.scheme = scheme;
        spec.cores = Cores;
        Simulation sim(spec);
        std::vector<std::unique_ptr<SharedPoolGenerator>> gens;
        std::vector<WorkloadGenerator *> raw;
        for (unsigned c = 0; c < Cores; ++c) {
            gens.push_back(std::make_unique<SharedPoolGenerator>(
                10'000'000, 1.0, 0x1000000ULL * (c + 1), 1 + c));
            raw.push_back(gens.back().get());
        }
        sim.start(raw);
        sim.runUntil(WarmUp);
        const double migrated_before =
            sim.multi().directory().statMigrations.value();
        const std::uint64_t before = gAllocations.load();
        sim.runUntil(WindowEnd);
        const double allocations =
            static_cast<double>(gAllocations.load() - before);
        ASSERT_FALSE(sim.multi().finished()) << schemeName(scheme);
        const double migrations =
            sim.multi().directory().statMigrations.value() -
            migrated_before;
        EXPECT_GT(migrations, 100.0) << schemeName(scheme);
        const double epochs =
            static_cast<double>((WindowEnd - WarmUp) / EpochTicks);
        EXPECT_GE(epochs, 6000.0);
        EXPECT_LE(allocations / epochs, 0.1)
            << schemeName(scheme) << ": " << allocations
            << " allocations over " << epochs << " epochs and "
            << migrations << " migrations";
    }
}

TEST(SteadyStateAlloc, RunMemoryGrowsByTheBlockNotBySnapshots)
{
    // A run's memory is the machine plus one record per touched block in
    // the persist oracle and the PM image. The oracle's record is the
    // block's content and store count; the pre-residency snapshots live
    // in a side table sized by the buffer, not by the blocks.
    setQuietLogging(true);
    const BenchmarkProfile &profile = profileByName("gamess");
    SimulationSpec spec;
    spec.base = SecPbSystem::configFor(Scheme::Cobcm, profile);
    spec.instructions = 4'000'000;
    const std::uint64_t before = gBytes.load();
    Simulation sim(spec);
    SyntheticGenerator gen(profile, spec.instructions, spec.seed);
    sim.system().run(gen);
    const double bytes = static_cast<double>(gBytes.load() - before);
    const PersistOracle &oracle = sim.system().oracle();
    ASSERT_GT(oracle.numBlocks(), 10'000u);
    EXPECT_LE(oracle.numOpenResidencies(), spec.base.secpb.numEntries);
    // 212 bytes a block today over 51,119 blocks (x86-64, g++ 12). An
    // oracle record that carried its own 72-byte snapshot read 284.
    const double per_block = bytes / static_cast<double>(oracle.numBlocks());
    EXPECT_LE(per_block, 240.0) << bytes << " bytes over "
                                << oracle.numBlocks() << " blocks";
}

/** Heap bytes requested while building one @p spec workload. */
std::uint64_t
workloadBuildBytes(const char *spec)
{
    const std::uint64_t before = gBytes.load();
    const auto gen = makeWorkload(spec, 10'000, 1);
    return gBytes.load() - before;
}

TEST(TrialBuildAlloc, SimulationConstructionStaysUnderBudget)
{
    setQuietLogging(true);
    for (Scheme scheme : SchemeZoo) {
        SimulationSpec spec;
        spec.base.scheme = scheme;
        spec.base.pmDataBytes = 1ULL << 30;
        const std::uint64_t before = gAllocations.load();
        const std::uint64_t before_bytes = gBytes.load();
        const Simulation sim(spec);
        const std::uint64_t built = gAllocations.load() - before;
        const std::uint64_t bytes = gBytes.load() - before_bytes;
        // 47 allocations and 216 KB today (4-CPU x86-64, g++ 12). A
        // machine that also built L1/L2/L3 data-cache tags took 54 and
        // over 1.79 MB for their way storage alone.
        EXPECT_LE(built, 50u) << schemeName(scheme);
        EXPECT_LE(bytes, 256u * 1024) << schemeName(scheme);
    }
}

TEST(TrialBuildAlloc, RebuiltWorkloadsReuseTheirZipfTables)
{
    // kv_wal's default 4,096-key table is 32 KB. zipf_mix's default
    // 2,048 tenants carry 8 KB of per-tenant commit counters, which are
    // generator state, so it runs with 256 tenants (a 2 KB table and
    // 1 KB of counters) and 1,024 keys (an 8 KB table). The generator
    // itself takes about 2 KB, so a second build under 4 KB rebuilt
    // neither table.
    for (const char *spec : {"kv_wal", "zipf_mix:tenants=256,keys=1024"}) {
        const std::uint64_t first = workloadBuildBytes(spec);
        const std::uint64_t second = workloadBuildBytes(spec);
        EXPECT_GT(first, 4096u) << spec;
        EXPECT_LT(second, 4096u) << spec << " (first build " << first
                                 << " bytes)";
    }
}

} // namespace

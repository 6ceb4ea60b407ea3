/**
 * @file
 * Steady-state allocation: once a run is warm, a persist allocates
 * nothing.
 *
 * The persist path (SecPB accept, oracle, drain continuations, store
 * buffer, workload generator) must cost O(1) memory and no heap
 * traffic per store, or long runs grow without bound. Two runs of the
 * same point that differ only in length share their set-up cost, so the
 * allocations between them, divided by the persists between them, is
 * the marginal cost of one persist.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/simulation.hh"
#include "workload/synthetic.hh"

namespace
{
std::atomic<std::uint64_t> gAllocations{0};
} // namespace

void *
operator new(std::size_t bytes)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

using namespace secpb;

namespace
{

struct RunCost
{
    std::uint64_t allocations;
    std::uint64_t persists;
};

/** One gamess/COBCM run of @p instructions, set-up included. */
RunCost
gamessCobcm(std::uint64_t instructions)
{
    const std::uint64_t before = gAllocations.load();
    std::uint64_t persists = 0;
    {
        const BenchmarkProfile &profile = profileByName("gamess");
        SimulationSpec spec;
        spec.base = SecPbSystem::configFor(Scheme::Cobcm, profile);
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
    setQuietLogging(true);
    const RunCost shorter = gamessCobcm(4'000'000);
    const RunCost longer = gamessCobcm(8'000'000);
    ASSERT_GT(longer.persists, shorter.persists);
    const double allocations = static_cast<double>(longer.allocations) -
                               static_cast<double>(shorter.allocations);
    const double per_persist =
        allocations / static_cast<double>(longer.persists - shorter.persists);
    EXPECT_LE(per_persist, 0.01)
        << allocations << " allocations over "
        << longer.persists - shorter.persists << " extra persists";
}

} // namespace

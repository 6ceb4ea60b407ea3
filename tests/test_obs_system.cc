/**
 * @file
 * Integration tests for observability wired into the full system: the
 * epoch sampler must never perturb simulation results, sampled series
 * and traces must be deterministic across identical runs, and the
 * built-in channels must all be present. The SecPB's event marks
 * (alloc, coalesce, drain, crash drain, page re-encryption) must reach
 * the trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/system.hh"
#include "obs/trace.hh"
#include "stats/json.hh"
#include "workload/scripted.hh"
#include "workload/synthetic.hh"

using namespace secpb;
using namespace secpb::obs;

namespace
{

SystemConfig
sampledConfig(Tick period)
{
    const BenchmarkProfile &profile = profileByName("gamess");
    SystemConfig cfg = SecPbSystem::configFor(Scheme::Cm, profile);
    cfg.obs.samplePeriod = period;
    return cfg;
}

SimulationResult
runWith(const SystemConfig &cfg, SampleSeries *series = nullptr)
{
    SyntheticGenerator gen(profileByName("gamess"), 20'000, /*seed=*/7);
    SecPbSystem sys(cfg);
    const SimulationResult res = sys.run(gen);
    if (series && sys.sampler())
        *series = sys.sampler()->series();
    return res;
}

std::string
resultJson(const SimulationResult &res)
{
    std::ostringstream ss;
    JsonWriter w(ss, /*pretty=*/false);
    res.toJson(w);
    return ss.str();
}

std::string
seriesJson(const SampleSeries &series)
{
    std::ostringstream ss;
    JsonWriter w(ss, /*pretty=*/false);
    series.toJson(w);
    return ss.str();
}

/** Events of @p phase named @p name on @p comp's track. */
std::size_t
countEvents(const Tracer &t, const std::string &comp,
            const std::string &name, TraceEvent::Phase phase)
{
    return std::count_if(
        t.events().begin(), t.events().end(), [&](const TraceEvent &e) {
            return e.phase == phase && e.name == name &&
                   t.components()[e.tid] == comp;
        });
}

} // namespace

TEST(ObsSystem, SamplingDoesNotPerturbSimulationResults)
{
    const SimulationResult plain = runWith(sampledConfig(0));
    const SimulationResult sampled = runWith(sampledConfig(500));
    EXPECT_EQ(resultJson(plain), resultJson(sampled));
}

TEST(ObsSystem, BuiltInChannelsArePresentAndPopulated)
{
    SampleSeries series;
    runWith(sampledConfig(500), &series);

    const std::vector<std::string> expected = {
        "secpb_occupancy",  "sb_occupancy",    "wpq_depth",
        "battery_headroom_j", "ctr_cache_dirty", "mac_cache_dirty",
        "bmt_inflight_walks",
    };
    ASSERT_EQ(series.channels, expected);
    ASSERT_GE(series.numEpochs(), 2u);  // epoch 0 plus at least one more
    EXPECT_EQ(series.ticks[0], 0u);
    EXPECT_TRUE(std::is_sorted(series.ticks.begin(), series.ticks.end()));

    // Battery headroom starts at the full provisioned margin and stays
    // near it; mid-run it may dip slightly below zero because metadata
    // -cache flush work is not part of the per-entry provisioning
    // margin -- surfacing exactly that transient is the channel's job.
    const auto &headroom = series.values[3];
    EXPECT_GT(headroom.front(), 0.0);
    for (double h : headroom) {
        EXPECT_TRUE(std::isfinite(h));
        EXPECT_GT(h, -0.01);  // joules; a real deficit would be larger
    }

    // A CM run persists stores, so SecPB occupancy moves off zero in at
    // least one epoch.
    const auto &occupancy = series.values[0];
    EXPECT_GT(*std::max_element(occupancy.begin(), occupancy.end()), 0.0);
}

TEST(ObsSystem, SampledSeriesIsDeterministic)
{
    SampleSeries a, b;
    runWith(sampledConfig(500), &a);
    runWith(sampledConfig(500), &b);
    EXPECT_EQ(seriesJson(a), seriesJson(b));
}

TEST(ObsSystem, TraceIsDeterministicAcrossIdenticalRuns)
{
    auto traceOnce = [&] {
        Tracer t;
        {
            TraceSession session(&t);
            runWith(sampledConfig(500));
        }
        std::ostringstream ss;
        t.writeJson(ss);
        return ss.str();
    };
    const std::string first = traceOnce();
    const std::string second = traceOnce();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    // The wired components all show up as named tracks.
    for (const char *track : {"secpb", "crypto", "pcm", "sampler"})
        EXPECT_NE(first.find("\"" + std::string(track) + "\""),
                  std::string::npos)
            << track;
}

TEST(ObsSystem, TracingDoesNotPerturbSimulationResults)
{
    const SimulationResult plain = runWith(sampledConfig(0));
    Tracer t;
    SimulationResult traced;
    {
        TraceSession session(&t);
        traced = runWith(sampledConfig(0));
    }
    EXPECT_GT(t.numEvents(), 0u);
    EXPECT_EQ(resultJson(plain), resultJson(traced));
}

TEST(ObsSystem, SecPbTracePointsFire)
{
    SystemConfig cfg;
    cfg.secpb.numEntries = 8;
    cfg.pmDataBytes = 1ULL << 30;
    Tracer t;
    {
        TraceSession session(&t);
        SecPbSystem sys(cfg);
        // Four times the buffer's blocks: allocations must wait for
        // drains to finish, so drain spans close before the run ends.
        ScriptedGenerator gen;
        for (Addr a = 0; a < 32 * BlockSize; a += BlockSize)
            gen.store(a, a).store(a, a + 1);
        sys.run(gen);
        sys.crashNow();
    }
    using Phase = TraceEvent::Phase;
    EXPECT_GT(countEvents(t, "secpb", "alloc", Phase::Instant), 0u);
    EXPECT_GT(countEvents(t, "secpb", "coalesce", Phase::Instant), 0u);
    EXPECT_GT(countEvents(t, "secpb", "drain", Phase::Span), 0u);
    EXPECT_EQ(countEvents(t, "secpb", "crash_drain", Phase::Instant), 1u);
    EXPECT_EQ(countEvents(t, "secpb", "reencrypt", Phase::Instant), 0u);
}

TEST(ObsSystem, MinorCounterOverflowMarksReencrypt)
{
    // sec_wt bumps the minor on every store: 130 stores to one block
    // overflow the 7-bit minor once.
    SystemConfig cfg;
    cfg.scheme = Scheme::SecWt;
    cfg.secpb.numEntries = 8;
    cfg.pmDataBytes = 1ULL << 30;
    Tracer t;
    double reencrypts = 0;
    {
        TraceSession session(&t);
        SecPbSystem sys(cfg);
        ScriptedGenerator gen;
        for (int i = 0; i < 130; ++i)
            gen.store(0x000, i);
        sys.run(gen);
        reencrypts = sys.secpb().statPageReencrypts.value();
    }
    ASSERT_GE(reencrypts, 1.0);
    EXPECT_EQ(countEvents(t, "secpb", "reencrypt",
                          TraceEvent::Phase::Instant),
              static_cast<std::size_t>(reencrypts));
}

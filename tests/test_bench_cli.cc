/**
 * @file
 * Tests for the shared bench harness: the hardened envU64 (trailing
 * garbage, signs, and overflow are fatal, never a silent truncation)
 * and the soak's trial range built on it,
 * the same strict parse on --jobs and --sample-every, the BenchCli
 * filter/parse helpers, and the grid helpers (point factory, scheme
 * picker, Table). Every argv is nullptr-terminated like a real
 * main()'s: SimulationSpec::fromCli re-terminates the array it compacts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "../bench/bench_common.hh"

using namespace secpb;
using namespace secpb::bench;

namespace
{

struct EnvGuard
{
    explicit EnvGuard(const char *name) : _name(name) {}
    ~EnvGuard() { unsetenv(_name); }
    const char *_name;
};

} // namespace

TEST(EnvU64, FallbackWhenUnsetOrEmpty)
{
    unsetenv("SECPB_TEST_ENV");
    EXPECT_EQ(envU64("SECPB_TEST_ENV", 42), 42u);
    EnvGuard guard("SECPB_TEST_ENV");
    setenv("SECPB_TEST_ENV", "", 1);
    EXPECT_EQ(envU64("SECPB_TEST_ENV", 42), 42u);
}

TEST(EnvU64, ParsesPlainDecimal)
{
    EnvGuard guard("SECPB_TEST_ENV");
    setenv("SECPB_TEST_ENV", "300000", 1);
    EXPECT_EQ(envU64("SECPB_TEST_ENV", 0), 300000u);
    setenv("SECPB_TEST_ENV", "18446744073709551615", 1);
    EXPECT_EQ(envU64("SECPB_TEST_ENV", 0), UINT64_MAX);
}

using EnvU64Death = ::testing::Test;

TEST(EnvU64Death, TrailingGarbageIsFatal)
{
    EnvGuard guard("SECPB_TEST_ENV");
    setenv("SECPB_TEST_ENV", "300k", 1);
    EXPECT_EXIT(envU64("SECPB_TEST_ENV", 0),
                ::testing::ExitedWithCode(1), "not a decimal integer");
}

TEST(EnvU64Death, NegativeIsFatalNotWrapped)
{
    EnvGuard guard("SECPB_TEST_ENV");
    setenv("SECPB_TEST_ENV", "-1", 1);
    EXPECT_EXIT(envU64("SECPB_TEST_ENV", 0),
                ::testing::ExitedWithCode(1), "non-negative");
}

TEST(EnvU64Death, OverflowIsFatalNotTruncated)
{
    EnvGuard guard("SECPB_TEST_ENV");
    setenv("SECPB_TEST_ENV", "99999999999999999999999", 1);
    EXPECT_EXIT(envU64("SECPB_TEST_ENV", 0),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(EnvU64Death, NonNumericIsFatal)
{
    EnvGuard guard("SECPB_TEST_ENV");
    setenv("SECPB_TEST_ENV", "lots", 1);
    EXPECT_EXIT(envU64("SECPB_TEST_ENV", 0),
                ::testing::ExitedWithCode(1), "not a decimal integer");
}

TEST(SoakRange, EmptyTrialMeansTheDefaultRange)
{
    EnvGuard trial("SECPB_SOAK_TRIAL"), trials("SECPB_SOAK_TRIALS"),
        seed("SECPB_SOAK_SEED");
    unsetenv("SECPB_SOAK_TRIALS");
    unsetenv("SECPB_SOAK_SEED");
    setenv("SECPB_SOAK_TRIAL", "", 1);
    const SoakRange r = soakRange(300);
    EXPECT_EQ(r.seed, 2026u);
    EXPECT_EQ(r.first, 0u);
    EXPECT_EQ(r.end, 300u);
}

TEST(SoakRange, TrialReplaysExactlyThatTrial)
{
    EnvGuard trial("SECPB_SOAK_TRIAL"), trials("SECPB_SOAK_TRIALS"),
        seed("SECPB_SOAK_SEED");
    setenv("SECPB_SOAK_TRIAL", "17", 1);
    setenv("SECPB_SOAK_TRIALS", "150", 1);
    setenv("SECPB_SOAK_SEED", "9", 1);
    const SoakRange r = soakRange(300);
    EXPECT_EQ(r.seed, 9u);
    EXPECT_EQ(r.first, 17u);
    EXPECT_EQ(r.end, 18u);
}

using SoakRangeDeath = ::testing::Test;

TEST(SoakRangeDeath, MalformedTrialCountIsFatal)
{
    // Read leniently, "abc" would run 0 trials -- skipping the coverage
    // checks and passing -- and "12x" would run 12.
    EnvGuard trials("SECPB_SOAK_TRIALS");
    unsetenv("SECPB_SOAK_TRIAL");
    setenv("SECPB_SOAK_TRIALS", "abc", 1);
    EXPECT_EXIT(soakRange(120), ::testing::ExitedWithCode(1),
                "SECPB_SOAK_TRIALS 'abc': not a decimal integer");
    setenv("SECPB_SOAK_TRIALS", "12x", 1);
    EXPECT_EXIT(soakRange(120), ::testing::ExitedWithCode(1),
                "SECPB_SOAK_TRIALS '12x': not a decimal integer");
}

TEST(BenchCli, ParseFlagsOverrideEnv)
{
    const char *argv[] = {"bench",     "--jobs",   "5",
                          "--scheme",  "cm,cobcm", "--profile",
                          "gamess",    "--instr",  "1234",
                          "--seed",    "9",        "--json",
                          "/tmp/x.json", nullptr};
    BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1,
        const_cast<char **>(argv), "bench");
    EXPECT_EQ(cli.jobs, 5u);
    EXPECT_EQ(cli.spec.instructions, 1234u);
    EXPECT_EQ(cli.spec.seed, 9u);
    EXPECT_EQ(cli.jsonPath, "/tmp/x.json");
    EXPECT_TRUE(cli.wantScheme(Scheme::Cm));
    EXPECT_TRUE(cli.wantScheme(Scheme::Cobcm));
    EXPECT_FALSE(cli.wantScheme(Scheme::NoGap));
    EXPECT_TRUE(cli.wantProfile("gamess"));
    EXPECT_FALSE(cli.wantProfile("gcc"));
    ASSERT_EQ(cli.profilesToRun().size(), 1u);
    EXPECT_EQ(cli.profilesToRun()[0].name, "gamess");
}

TEST(BenchCli, EnvFallbacksAndDefaults)
{
    const char *argv[] = {"bench", nullptr};
    BenchCli cli = BenchCli::parse(1, const_cast<char **>(argv), "bench");
    EXPECT_EQ(cli.jobs, 1u);
    EXPECT_TRUE(cli.jsonPath.empty());
    EXPECT_EQ(cli.spec.instructions, 300'000u);
    EXPECT_EQ(cli.spec.seed, 7u);
    // Empty filters pass everything.
    EXPECT_TRUE(cli.wantScheme(Scheme::Sp));
    EXPECT_TRUE(cli.wantProfile("anything"));
}

TEST(BenchCli, PointCarriesInstrSeedAndSchemeKnobs)
{
    const char *argv[] = {"bench", "--instr", "4321", "--seed", "11",
                          "--scheme", "triad:levels=3,cm", nullptr};
    BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1,
        const_cast<char **>(argv), "bench");
    const ExperimentPoint p = cli.point(Scheme::Triad, "gamess");
    EXPECT_EQ(p.label, "gamess/triad");
    EXPECT_EQ(p.profile, "gamess");
    EXPECT_EQ(p.spec.base.scheme, Scheme::Triad);
    EXPECT_EQ(p.spec.instructions, 4321u);
    EXPECT_EQ(p.spec.seed, 11u);
    EXPECT_EQ(p.spec.base.secpb.params.triadLevels, 3u);
    // The machine is the profile's; everything else keeps the
    // SimulationSpec defaults.
    const SystemConfig want =
        SecPbSystem::configFor(Scheme::Triad, profileByName("gamess"));
    EXPECT_DOUBLE_EQ(p.spec.base.cpu.loadPenalties.mem,
                     want.cpu.loadPenalties.mem);
    EXPECT_EQ(p.spec.base.secpb.numEntries, 32u);
    EXPECT_EQ(p.spec.base.walker.bmfMode, BmfMode::None);
    EXPECT_TRUE(p.spec.workload.empty());
    EXPECT_TRUE(p.spec.traceRecord.empty());
    EXPECT_TRUE(p.tags.empty());
    EXPECT_FALSE(p.custom);
}

TEST(BenchCli, SweepFlagsReachDefaultPointsOnly)
{
    setQuietLogging(true);
    const std::string trc = "BenchCli_SweepFlagsReachDefaultPointsOnly.trc";
    const char *argv[] = {"bench",          "--instr",        "2000",
                          "--sample-every", "500",            "--workload",
                          "kv_wal:keys=64", "--trace-record", trc.c_str(),
                          "--no-progress",  nullptr};
    BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1,
        const_cast<char **>(argv), "bench");

    Sweep sweep(cli);
    ExperimentPoint custom = cli.point(Scheme::Cm, "gcc");
    custom.custom = [](const ExperimentPoint &) { return ExperimentResult{}; };
    const std::size_t c = sweep.add(custom);
    const std::size_t first = sweep.add(cli.point(Scheme::Cobcm, "gcc"));
    const std::size_t second = sweep.add(cli.point(Scheme::Bbb, "gcc"));
    sweep.run();

    // The custom point's spec is exactly what it was built with.
    const SimulationSpec &cs = sweep.points()[c].spec;
    EXPECT_EQ(cs.base.obs.samplePeriod, 0u);
    EXPECT_TRUE(cs.workload.empty());
    EXPECT_TRUE(cs.traceRecord.empty());

    // Default points sample and run the workload; only the first records.
    for (std::size_t i : {first, second}) {
        const SimulationSpec &s = sweep.points()[i].spec;
        EXPECT_EQ(s.base.obs.samplePeriod, 500u);
        EXPECT_EQ(s.workload, "kv_wal:keys=64");
        EXPECT_FALSE(sweep.at(i).samples.empty());
    }
    EXPECT_EQ(sweep.points()[first].spec.traceRecord, trc);
    EXPECT_TRUE(sweep.points()[second].spec.traceRecord.empty());
    EXPECT_TRUE(std::ifstream(trc).good());
    std::remove(trc.c_str());
}

TEST(BenchCli, PickKeepsDeclarationOrderUnderTheFilter)
{
    // The filter names cm before cobcm; the declared order still wins.
    const char *argv[] = {"bench", "--scheme", "cm,cobcm", nullptr};
    BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1,
        const_cast<char **>(argv), "bench");
    EXPECT_EQ(cli.pick({Scheme::Cobcm, Scheme::Obcm, Scheme::Cm, Scheme::M}),
              (std::vector<Scheme>{Scheme::Cobcm, Scheme::Cm}));

    struct Row
    {
        const char *name;
        Scheme scheme;
    };
    const std::vector<Row> rows = cli.pick<Row>(
        {{"a", Scheme::Cobcm}, {"b", Scheme::Sp}, {"c", Scheme::Cm},
         {"d", Scheme::Cobcm}});
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_STREQ(rows[0].name, "a");
    EXPECT_STREQ(rows[1].name, "c");
    EXPECT_STREQ(rows[2].name, "d");

    const char *none[] = {"bench", nullptr};
    BenchCli all = BenchCli::parse(1, const_cast<char **>(none), "bench");
    EXPECT_EQ(all.pick({Scheme::M, Scheme::Sp, Scheme::Cm}),
              (std::vector<Scheme>{Scheme::M, Scheme::Sp, Scheme::Cm}));
}

TEST(BenchCli, TableSummaryDerivesEachColumn)
{
    const char *argv[] = {"bench", nullptr};
    BenchCli cli = BenchCli::parse(1, const_cast<char **>(argv), "bench");
    Sweep sweep(cli);
    Table table(sweep, {"x", "y"}, " %5.2f");
    ::testing::internal::CaptureStdout();
    table.row("r1", {1.0, 2.0});
    table.row("r2", {4.0, 8.0});
    table.summary("geomean", "g", geomean);
    table.summary("mean", "m", mean);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(),
              "r1           |  1.00  2.00\n"
              "r2           |  4.00  8.00\n"
              "geomean      |  2.00  4.00\n"
              "mean         |  2.50  5.00\n");
    const std::vector<DerivedRow> derived = sweep.report().derived;
    ASSERT_EQ(derived.size(), 4u);
    EXPECT_EQ(derived[0].name, "g");
    EXPECT_EQ(derived[0].group, "x");
    EXPECT_DOUBLE_EQ(derived[0].value, 2.0);
    EXPECT_EQ(derived[3].name, "m");
    EXPECT_EQ(derived[3].group, "y");
    EXPECT_DOUBLE_EQ(derived[3].value, 5.0);
}

TEST(BenchCli, ObservabilityFlagsParse)
{
    const char *argv[] = {"bench",          "--trace-out", "/tmp/t.json",
                          "--sample-every", "2500",        "--stats",
                          nullptr};
    BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1,
        const_cast<char **>(argv), "bench");
    EXPECT_EQ(cli.traceOut, "/tmp/t.json");
    EXPECT_EQ(cli.sampleEvery, 2500u);
    EXPECT_TRUE(cli.captureStats);
}

TEST(BenchCli, ObservabilityDefaultsOff)
{
    const char *argv[] = {"bench", nullptr};
    BenchCli cli = BenchCli::parse(1, const_cast<char **>(argv), "bench");
    EXPECT_TRUE(cli.traceOut.empty());
    EXPECT_EQ(cli.sampleEvery, 0u);
    EXPECT_FALSE(cli.captureStats);
}

TEST(BenchCliDeath, UnknownFlagIsFatal)
{
    const char *argv[] = {"bench", "--frobnicate", nullptr};
    EXPECT_EXIT(BenchCli::parse(2, const_cast<char **>(argv), "bench"),
                ::testing::ExitedWithCode(1), "unknown flag");
    // The core count is set in code (SimulationSpec::cores), not a flag.
    const char *cores[] = {"bench", "--cores", "4", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, const_cast<char **>(cores), "bench"),
                ::testing::ExitedWithCode(1), "unknown flag '--cores'");
}

TEST(BenchCliDeath, UnknownDebugFlagIsFatal)
{
    // Events go to the Perfetto trace (--trace-out); there is no --debug,
    // so a stale `--debug <flags>` dies instead of being ignored.
    const char *argv[] = {"bench", "--debug", "SecPb", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, const_cast<char **>(argv), "bench"),
                ::testing::ExitedWithCode(1), "unknown flag '--debug'");
}

TEST(BenchCliDeath, UnknownProfileFilterIsFatal)
{
    const char *argv[] = {"bench", "--profile", "nonesuch", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, const_cast<char **>(argv), "bench"),
                ::testing::ExitedWithCode(1), "");
}

TEST(BenchCli, BatteryFlagsParse)
{
    const char *argv[] = {"bench",           "--battery-tech", "supercap",
                          "--battery-derate", "0.8",
                          "--power-schedule", "cycles=3,brownout=0.25",
                          nullptr};
    BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1,
        const_cast<char **>(argv), "bench");
    EXPECT_EQ(cli.spec.batteryTech, "supercap");
    EXPECT_DOUBLE_EQ(cli.spec.batteryDerate, 0.8);
    EXPECT_EQ(cli.spec.powerSchedule, "cycles=3,brownout=0.25");
    const CapacitorParams p = cli.spec.batteryParams();
    EXPECT_EQ(p.tech, "supercap");
    EXPECT_DOUBLE_EQ(p.capacitanceDerate, 0.8);
    const PowerScheduleSpec spec =
        PowerScheduleSpec::parse(cli.spec.powerSchedule);
    EXPECT_EQ(spec.cycles, 3u);
    EXPECT_EQ(spec.brownoutChance, 0.25);
}

TEST(BenchCli, BatteryDefaultsIdealFullCapacity)
{
    const char *argv[] = {"bench", nullptr};
    BenchCli cli = BenchCli::parse(1, const_cast<char **>(argv), "bench");
    EXPECT_EQ(cli.spec.batteryTech, "ideal");
    EXPECT_DOUBLE_EQ(cli.spec.batteryDerate, 1.0);
    EXPECT_TRUE(cli.spec.powerSchedule.empty());
}

TEST(BenchCliDeath, UnknownBatteryTechIsFatal)
{
    const char *argv[] = {"bench", "--battery-tech", "fusion", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, const_cast<char **>(argv), "bench"),
                ::testing::ExitedWithCode(1), "unknown battery tech");
}

TEST(BenchCliDeath, OutOfRangeDerateIsFatal)
{
    const char *argv[] = {"bench", "--battery-derate", "1.5", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, const_cast<char **>(argv), "bench"),
                ::testing::ExitedWithCode(1), "out of \\(0, 1\\]");
}

TEST(BenchCliDeath, MalformedDerateIsFatal)
{
    // The derate is read like every other number: no blank, no hex.
    for (const char *v : {" 0.5", "0x1p-1"}) {
        const char *argv[] = {"bench", "--battery-derate", v, nullptr};
        EXPECT_EXIT(BenchCli::parse(3, const_cast<char **>(argv), "bench"),
                    ::testing::ExitedWithCode(1),
                    "bench: --battery-derate '.*': not a finite "
                    "non-negative decimal number");
    }
}

TEST(BenchCliDeath, MalformedPowerScheduleIsFatal)
{
    const char *argv[] = {"bench", "--power-schedule", "cycles=3,warp=9",
                          nullptr};
    EXPECT_EXIT(BenchCli::parse(3, const_cast<char **>(argv), "bench"),
                ::testing::ExitedWithCode(1), "unknown key");
}

TEST(BenchCliDeath, NonNumericJobsIsFatal)
{
    const char *argv[] = {"bench", "--jobs", "abc", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, const_cast<char **>(argv), "bench"),
                ::testing::ExitedWithCode(1),
                "--jobs 'abc': not a decimal integer");
}

TEST(BenchCliDeath, TrailingGarbageJobsIsFatal)
{
    const char *argv[] = {"bench", "--jobs", "4x", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, const_cast<char **>(argv), "bench"),
                ::testing::ExitedWithCode(1),
                "--jobs '4x': not a decimal integer");
}

TEST(BenchCliDeath, ExponentSampleEveryIsFatal)
{
    const char *argv[] = {"bench", "--sample-every", "1e3", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, const_cast<char **>(argv), "bench"),
                ::testing::ExitedWithCode(1),
                "--sample-every '1e3': not a decimal integer");
}

/**
 * @file
 * Tests for the shared bench harness: the hardened envU64 (trailing
 * garbage, signs, and overflow are fatal, never a silent truncation)
 * and the soak's trial range built on it,
 * the same strict parse on --jobs and --sample-every, the BenchCli
 * filter/parse helpers, and the grid helpers (point factory, scheme
 * picker, Table). Every argv is nullptr-terminated like a real
 * main()'s.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "../bench/bench_common.hh"
#include "fault/power.hh"

using namespace secpb;
using namespace secpb::bench;

namespace
{

/** Every shared row: these tests exercise the parser, not one bench's
 *  set. */
constexpr unsigned Every = ~0u;

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

TEST(BenchCli, FlagsSetTheirFields)
{
    const char *argv[] = {"bench",     "--jobs",   "5",
                          "--scheme",  "cm,cobcm", "--profile",
                          "gamess",    "--instr",  "1234",
                          "--seed",    "9",        "--json",
                          "/tmp/x.json", nullptr};
    BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1, argv, "bench", Every);
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

TEST(BenchCli, NoFlagsKeepTheDefaults)
{
    const char *argv[] = {"bench", nullptr};
    BenchCli cli = BenchCli::parse(1, argv, "bench", Every);
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
        static_cast<int>(std::size(argv)) - 1, argv, "bench", Every);
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
    EXPECT_DOUBLE_EQ(p.spec.base.loadPenalties.mem,
                     want.loadPenalties.mem);
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
        static_cast<int>(std::size(argv)) - 1, argv, "bench", Every);

    Sweep sweep(cli);
    ExperimentPoint custom = cli.point(Scheme::Cm, "gcc");
    custom.custom = [](const ExperimentPoint &) { return ExperimentResult{}; };
    const std::size_t c = sweep.add(custom);
    const std::size_t first = sweep.add(cli.point(Scheme::Cobcm, "gcc"));
    const std::size_t second = sweep.add(cli.point(Scheme::Bbb, "gcc"));
    sweep.run();

    // The custom point gets the workload (a custom runner builds from
    // pointWorkload too), but neither the period nor the record.
    const SimulationSpec &cs = sweep.points()[c].spec;
    EXPECT_EQ(cs.base.obs.samplePeriod, 0u);
    EXPECT_EQ(cs.workload, "kv_wal:keys=64");
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

TEST(BenchCli, CustomPointsRunTheWorkload)
{
    // A custom runner that builds from pointWorkload runs --workload,
    // like the default points it is divided by (table4's shed cells,
    // recovery_window's crash points); a point that pinned its own
    // workload keeps it.
    setQuietLogging(true);
    const char *argv[] = {"bench",      "--instr",        "2000",
                          "--workload", "kv_wal:keys=64", "--no-progress",
                          nullptr};
    BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1, argv, "bench", Every);

    Sweep sweep(cli);
    ExperimentPoint custom = cli.point(Scheme::Cm, "gcc");
    custom.custom = [](const ExperimentPoint &pt) {
        Simulation sim(pt.spec);
        const auto gen = pointWorkload(pt);
        ExperimentResult r;
        r.sim = sim.run(*gen);
        return r;
    };
    ExperimentPoint pinned = cli.point(Scheme::Cm, "gcc");
    pinned.spec.workload = "pstore";
    const std::size_t c = sweep.add(custom);
    const std::size_t d = sweep.add(cli.point(Scheme::Cm, "gcc"));
    const std::size_t p = sweep.add(pinned);
    sweep.run();

    EXPECT_EQ(sweep.at(c).sim.execTicks, sweep.at(d).sim.execTicks);
    EXPECT_EQ(sweep.at(c).sim.persists, sweep.at(d).sim.persists);
    EXPECT_EQ(sweep.points()[p].spec.workload, "pstore");
    EXPECT_NE(sweep.at(p).sim.execTicks, sweep.at(d).sim.execTicks);
}

TEST(BenchCli, PickKeepsDeclarationOrderUnderTheFilter)
{
    // The filter names cm before cobcm; the declared order still wins.
    const char *argv[] = {"bench", "--scheme", "cm,cobcm", nullptr};
    BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1, argv, "bench", Every);
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
    BenchCli all = BenchCli::parse(1, none, "bench", Every);
    EXPECT_EQ(all.pick({Scheme::M, Scheme::Sp, Scheme::Cm}),
              (std::vector<Scheme>{Scheme::M, Scheme::Sp, Scheme::Cm}));
}

TEST(BenchCli, TableSummaryDerivesEachColumn)
{
    const char *argv[] = {"bench", nullptr};
    BenchCli cli = BenchCli::parse(1, argv, "bench", Every);
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
        static_cast<int>(std::size(argv)) - 1, argv, "bench", Every);
    EXPECT_EQ(cli.traceOut, "/tmp/t.json");
    EXPECT_EQ(cli.sampleEvery, 2500u);
    EXPECT_TRUE(cli.captureStats);
}

TEST(BenchCli, ObservabilityDefaultsOff)
{
    const char *argv[] = {"bench", nullptr};
    BenchCli cli = BenchCli::parse(1, argv, "bench", Every);
    EXPECT_TRUE(cli.traceOut.empty());
    EXPECT_EQ(cli.sampleEvery, 0u);
    EXPECT_FALSE(cli.captureStats);
}

TEST(BenchCliDeath, UnknownFlagIsFatal)
{
    const char *argv[] = {"bench", "--frobnicate", nullptr};
    EXPECT_EXIT(BenchCli::parse(2, argv, "bench", Every),
                ::testing::ExitedWithCode(1), "unknown flag");
    // The core count is set in code (SimulationSpec::cores), not a flag.
    const char *cores[] = {"bench", "--cores", "4", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, cores, "bench", Every),
                ::testing::ExitedWithCode(1), "unknown flag '--cores'");
    // So is a shared flag outside the bench's set.
    const char *instr[] = {"table5", "--instr", "1000", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, instr, "table5",
                                flag::SweepOut | flag::BatteryDerate),
                ::testing::ExitedWithCode(1),
                "table5: unknown flag '--instr'");
}

TEST(BenchCliDeath, UnknownDebugFlagIsFatal)
{
    // Events go to the Perfetto trace (--trace-out); there is no --debug,
    // so a stale `--debug <flags>` dies instead of being ignored.
    const char *argv[] = {"bench", "--debug", "SecPb", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, argv, "bench", Every),
                ::testing::ExitedWithCode(1), "unknown flag '--debug'");
}

TEST(BenchCliDeath, UnknownProfileFilterIsFatal)
{
    const char *argv[] = {"bench", "--profile", "nonesuch", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, argv, "bench", Every),
                ::testing::ExitedWithCode(1), "");
}

TEST(BenchCli, BatteryFlagsParse)
{
    const char *argv[] = {"bench",           "--battery-tech", "supercap",
                          "--battery-derate", "0.8",
                          "--power-schedule", "cycles=3,brownout=0.25",
                          nullptr};
    BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1, argv, "bench", Every);
    EXPECT_EQ(cli.spec.powerSchedule, "cycles=3,brownout=0.25");
    const CapacitorParams &p = cli.spec.base.battery.cap;
    EXPECT_EQ(p.tech, "supercap");
    EXPECT_DOUBLE_EQ(p.capacitanceDerate, 0.8);
    EXPECT_DOUBLE_EQ(p.esrOhms, capacitorPresetFor("supercap").esrOhms);
    const PowerScheduleSpec spec =
        PowerScheduleSpec::parse(cli.spec.powerSchedule);
    EXPECT_EQ(spec.cycles, 3u);
    EXPECT_EQ(spec.brownoutChance, 0.25);
}

TEST(BenchCli, BatteryDefaultsIdealFullCapacity)
{
    const char *argv[] = {"bench", nullptr};
    BenchCli cli = BenchCli::parse(1, argv, "bench", Every);
    EXPECT_EQ(cli.spec.base.battery.cap.tech, "ideal");
    EXPECT_DOUBLE_EQ(cli.spec.base.battery.cap.capacitanceDerate, 1.0);
    EXPECT_TRUE(cli.spec.powerSchedule.empty());
}

TEST(BenchCli, BatteryCellIsTheSameInEitherFlagOrder)
{
    // The derate before the tech still derates the tech's cell.
    const char *argv[] = {"bench", "--battery-derate", "0.8",
                          "--battery-tech", "li-thin", nullptr};
    const BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1, argv, "bench", Every);
    const CapacitorParams &cell = cli.spec.base.battery.cap;
    const CapacitorParams want = capacitorPresetFor("li-thin", 0.8);
    EXPECT_EQ(cell.tech, "li-thin");
    EXPECT_EQ(cell.capacitanceDerate, 0.8);
    EXPECT_EQ(cell.ratedVoltage, want.ratedVoltage);
    EXPECT_EQ(cell.cutoffVoltage, want.cutoffVoltage);
    EXPECT_EQ(cell.esrOhms, want.esrOhms);
    EXPECT_EQ(cell.leakagePowerW, want.leakagePowerW);
}

TEST(BenchCli, SoakReproducerReplaysEverySpecFlag)
{
    const char *argv[] = {"fault_soak", "--jobs", "2",
                          "--battery-derate", "0.8",
                          "--workload", "kv_wal",
                          "--battery-tech", "supercap",
                          "--power-schedule", "cycles=3,brownout=0.25",
                          nullptr};
    const BenchCli cli = BenchCli::parse(
        static_cast<int>(std::size(argv)) - 1, argv, "fault_soak", Every);
    const std::string line = soakReproducer(cli, 2026, 41);
    EXPECT_EQ(line, "SECPB_SOAK_SEED=2026 SECPB_SOAK_TRIAL=41 fault_soak "
                    "--workload kv_wal --battery-tech supercap "
                    "--battery-derate 0.8 "
                    "--power-schedule cycles=3,brownout=0.25");

    // The flags after the command parse back to the same spec.
    std::vector<std::string> words;
    for (std::size_t at = line.find("fault_soak"); at != std::string::npos;) {
        const std::size_t end = line.find(' ', at);
        words.push_back(line.substr(at, end - at));
        at = end == std::string::npos ? end : end + 1;
    }
    std::vector<char *> again;
    for (std::string &w : words)
        again.push_back(w.data());
    again.push_back(nullptr);
    const BenchCli replay = BenchCli::parse(
        static_cast<int>(words.size()), again.data(), "fault_soak", Every);
    EXPECT_EQ(replay.spec.workload, cli.spec.workload);
    EXPECT_EQ(replay.spec.powerSchedule, cli.spec.powerSchedule);
    EXPECT_EQ(replay.spec.base.battery.cap.tech, "supercap");
    EXPECT_EQ(replay.spec.base.battery.cap.capacitanceDerate, 0.8);

    // A default run replays with the knobs alone; a value the shell
    // would split is quoted.
    const char *plain[] = {"fault_soak", nullptr};
    EXPECT_EQ(soakReproducer(BenchCli::parse(1, plain, "fault_soak", Every),
                             7, 0),
              "SECPB_SOAK_SEED=7 SECPB_SOAK_TRIAL=0 fault_soak");
    const char *spaced[] = {"fault_soak", "--trace-in", "my ops.trc",
                            nullptr};
    EXPECT_EQ(soakReproducer(BenchCli::parse(3, spaced, "fault_soak", Every),
                             7, 0),
              "SECPB_SOAK_SEED=7 SECPB_SOAK_TRIAL=0 fault_soak "
              "--workload 'replay:file=my ops.trc'");
}

TEST(BenchCli, SoakModeAcceptsTheFlagsItReads)
{
    // fault_soak parses the flags of both its modes, then refuses the
    // other mode's.
    const char *classic[] = {"fault_soak", "--workload", "kv_wal", nullptr};
    BenchCli::parse(3, classic, "fault_soak", Every)
        .refuse(flag::BatteryTech | flag::BatteryDerate, "in classic mode");
    const char *intermittent[] = {"fault_soak", "--power-schedule",
                                  "cycles=2", "--battery-tech", "supercap",
                                  "--battery-derate", "0.8", nullptr};
    BenchCli::parse(7, intermittent, "fault_soak", Every)
        .refuse(flag::Workloads, "in intermittent mode");
}

TEST(BenchCliDeath, SoakModeDiesOnAFlagItDoesNotRead)
{
    // A flag outside the soak's set is unknown; a flag of the other
    // mode's is refused after parsing. Each names the flag it would
    // have ignored.
    const char *instr[] = {"fault_soak", "--instr", "1000", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, instr, "fault_soak",
                                flag::SweepOut | flag::Workloads),
                ::testing::ExitedWithCode(1),
                "fault_soak: unknown flag '--instr'");
    for (const char *f : {"--workload", "--trace-in"}) {
        const char *argv[] = {"fault_soak", "--power-schedule", "cycles=2",
                              f, "kv_wal", nullptr};
        EXPECT_EXIT(BenchCli::parse(5, argv, "fault_soak", Every)
                        .refuse(flag::Workloads, "in intermittent mode"),
                    ::testing::ExitedWithCode(1),
                    std::string("fault_soak: ") + f +
                        " is not read in intermittent mode");
    }
    // Given counts, even at the default value.
    for (const auto &[f, v] : {std::pair{"--battery-tech", "li-thin"},
                               std::pair{"--battery-derate", "1.0"}}) {
        const char *argv[] = {"fault_soak", f, v, nullptr};
        EXPECT_EXIT(BenchCli::parse(3, argv, "fault_soak", Every)
                        .refuse(flag::BatteryTech | flag::BatteryDerate,
                                "in classic mode"),
                    ::testing::ExitedWithCode(1),
                    std::string("fault_soak: ") + f +
                        " is not read in classic mode");
    }
}

TEST(BenchCliDeath, UnknownBatteryTechIsFatal)
{
    const char *argv[] = {"bench", "--battery-tech", "fusion", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, argv, "bench", Every),
                ::testing::ExitedWithCode(1), "unknown battery tech");
}

TEST(BenchCliDeath, OutOfRangeDerateIsFatal)
{
    const char *argv[] = {"bench", "--battery-derate", "1.5", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, argv, "bench", Every),
                ::testing::ExitedWithCode(1), "out of \\(0, 1\\]");
}

TEST(BenchCliDeath, MalformedDerateIsFatal)
{
    // The derate is read like every other number: no blank, no hex.
    for (const char *v : {" 0.5", "0x1p-1"}) {
        const char *argv[] = {"bench", "--battery-derate", v, nullptr};
        EXPECT_EXIT(BenchCli::parse(3, argv, "bench", Every),
                    ::testing::ExitedWithCode(1),
                    "bench: --battery-derate '.*': not a finite "
                    "non-negative decimal number");
    }
}

TEST(BenchCliDeath, MalformedPowerScheduleIsFatal)
{
    const char *argv[] = {"bench", "--power-schedule", "cycles=3,warp=9",
                          nullptr};
    EXPECT_EXIT(BenchCli::parse(3, argv, "bench", Every),
                ::testing::ExitedWithCode(1), "unknown key");
}

TEST(BenchCliDeath, NonNumericJobsIsFatal)
{
    const char *argv[] = {"bench", "--jobs", "abc", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, argv, "bench", Every),
                ::testing::ExitedWithCode(1),
                "--jobs 'abc': not a decimal integer");
}

TEST(BenchCliDeath, TrailingGarbageJobsIsFatal)
{
    const char *argv[] = {"bench", "--jobs", "4x", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, argv, "bench", Every),
                ::testing::ExitedWithCode(1),
                "--jobs '4x': not a decimal integer");
}

TEST(BenchCliDeath, ExponentSampleEveryIsFatal)
{
    const char *argv[] = {"bench", "--sample-every", "1e3", nullptr};
    EXPECT_EXIT(BenchCli::parse(3, argv, "bench", Every),
                ::testing::ExitedWithCode(1),
                "--sample-every '1e3': not a decimal integer");
}

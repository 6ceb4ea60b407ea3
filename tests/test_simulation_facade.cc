/**
 * @file
 * Conformance tests for the Simulation facade and SimulationSpec CLI:
 * the facade must be a zero-cost veneer (cores == 1 byte-identical to a
 * direct SecPbSystem, run to completion or crashed mid-run; cores > 1
 * to a direct MultiCoreSystem), and
 * SimulationSpec::parseCli must read the run-spec rows it is given
 * beside the program's own, refuse every other flag, and validate
 * eagerly.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "fault/injector.hh"
#include "stats/json.hh"
#include "workload/scripted.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

std::string
fingerprint(const SimulationResult &r)
{
    std::ostringstream os;
    os.precision(17);
    r.visitFields([&](const char *k, auto v) { os << k << '=' << v << '\n'; });
    return os.str();
}

std::string
statsDumpOf(const auto &machine)
{
    std::ostringstream os;
    machine.dumpStats(os);
    return os.str();
}

/** Every CrashReport field, as one comparable string. */
std::string
crashFingerprint(const CrashReport &cr)
{
    std::ostringstream os;
    os.precision(17);
    const CrashWork &w = cr.work;
    os << "work=" << w.entriesDrained << ',' << w.countersIncremented << ','
       << w.counterFetches << ',' << w.otpsGenerated << ','
       << w.bmtRootUpdates << ',' << w.bmtLevelsWalked << ','
       << w.macsComputed << ',' << w.ciphertexts << ',' << w.pmBlockWrites
       << ',' << w.mdcBlockFlushes << ',' << w.cacheLinesFlushed << ','
       << w.bmtNodesRebuilt << ',' << w.batteryExhausted << ','
       << w.energySpentJ << ',' << w.drainedBlocks.size() << ','
       << w.abandoned.size() << ',' << w.absorbedApplied << ','
       << w.absorbedLost << '\n';
    const RecoveryReport &r = cr.recovery;
    os << "recovery=" << r.blocksChecked << ',' << r.macFailures << ','
       << r.bmtFailures << ',' << r.plaintextMismatches << ','
       << r.spuriousBlocks << ',' << r.missingBlocks << ','
       << r.prefixViolations << ',' << r.tornDetected << ','
       << r.staleConsistent << ',' << r.faults.size() << '\n';
    os << "energy=" << cr.provisionedEnergyJ << ',' << cr.actualEnergyJ
       << " latency=" << cr.drainLatency << ','
       << cyclesToNs(cr.drainLatency)
       << " recovered=" << cr.recovered
       << " budget=" << cr.batteryBudgetJ.value_or(-1.0)
       << " after=" << cr.batteryAfterJ.value_or(-1.0) << '\n';
    return os.str();
}

/** argv for @p args, nullptr-terminated like a real main()'s. */
struct Argv
{
    std::vector<const char *> ptrs;

    Argv(std::initializer_list<const char *> args) : ptrs(args)
    {
        ptrs.push_back(nullptr);
    }

    int argc() const { return static_cast<int>(ptrs.size()) - 1; }
    const char *const *data() const { return ptrs.data(); }
};

/** A spec parsed from @p args over every run-spec row. */
SimulationSpec
parsed(std::initializer_list<const char *> args)
{
    const Argv av(args);
    SimulationSpec spec;
    spec.parseCli(av.argc(), av.data(), "test", ~0u);
    return spec;
}

} // namespace

TEST(SimulationFacade, SingleCoreMatchesDirectSystem)
{
    const BenchmarkProfile &prof = profileByName("gcc");
    const SystemConfig cfg = SecPbSystem::configFor(Scheme::Cobcm, prof);

    SecPbSystem direct(cfg);
    SyntheticGenerator dgen(prof, 8'000, 42);
    const SimulationResult dres = direct.run(dgen);

    SimulationSpec spec;
    spec.base = cfg;
    Simulation sim(spec);
    EXPECT_EQ(sim.numCores(), 1u);
    SyntheticGenerator fgen(prof, 8'000, 42);
    const SimulationResult fres = sim.run(fgen);

    EXPECT_EQ(fingerprint(fres), fingerprint(dres));
    EXPECT_EQ(statsDumpOf(sim), statsDumpOf(direct));

    // The crash path: a battery-backed machine crashed mid-run reports
    // exactly what the direct system reports, budget and charge left
    // included.
    SystemConfig bcfg = cfg;
    bcfg.battery.enabled = true;
    const Tick mid = dres.execTicks / 2;

    SecPbSystem bdirect(bcfg);
    SyntheticGenerator bdgen(prof, 8'000, 42);
    bdirect.start(bdgen);
    bdirect.runUntil(mid);
    const CrashReport dcr = bdirect.crashNow();
    ASSERT_TRUE(dcr.batteryBudgetJ.has_value());
    ASSERT_TRUE(dcr.batteryAfterJ.has_value());
    ASSERT_GT(dcr.work.entriesDrained, 0u);

    spec.base = bcfg;
    Simulation bsim(spec);
    SyntheticGenerator bfgen(prof, 8'000, 42);
    bsim.start(bfgen);
    bsim.runUntil(mid);
    const CrashReport fcr = bsim.crashNow();

    EXPECT_EQ(crashFingerprint(fcr), crashFingerprint(dcr));
    EXPECT_EQ(statsDumpOf(bsim), statsDumpOf(bdirect));
}

namespace
{

/**
 * One crash_soak-style fault trial on a newly built machine: bounded
 * battery, crash at a persist count, tampers. Returns every output as
 * one comparable string: the run result, the fault verdict, every
 * CrashWork count and the stats JSON.
 */
std::string
faultTrialOutputs()
{
    SimulationSpec spec;
    spec.base.scheme = Scheme::Bcm;
    spec.base.pmDataBytes = 1ULL << 30;
    Simulation sim(spec);
    SyntheticGenerator gen(profileByName("gcc"), 12'000, 99);
    FaultPlan plan;
    plan.crashAtPersist = 150;
    plan.batteryFraction = 0.5;
    plan.tamperCount = 3;
    plan.tamperSeed = 17;
    const FaultReport r = FaultInjector(sim.system(), plan).run(gen);
    EXPECT_TRUE(r.crashedMidRun);
    EXPECT_EQ(r.tampers.size(), 3u);

    std::ostringstream os;
    os << fingerprint(sim.result()) << crashFingerprint(r.crash)
       << "mid_run=" << r.crashedMidRun << " tick=" << r.crashTick
       << " persists=" << r.persistsAtCrash << " ok=" << r.ok()
       << " tampers=" << r.tampers.size()
       << " detected=" << r.tampersAllDetected
       << " post_tamper_ok=" << r.postTamper.ok() << '\n';
    JsonWriter w(os);
    sim.stats().toJson(w);
    return os.str();
}

} // namespace

TEST(SimulationFacade, MachineOutputsDoNotDependOnEarlierMachines)
{
    // Tag-array way storage is uninitialised heap memory. A machine
    // built right after a store-heavy one dirtied every cache and was
    // destroyed reuses that memory, and must still behave exactly like
    // the first machine built on this thread.
    const std::string first = faultTrialOutputs();
    {
        SimulationSpec spec;
        spec.base.scheme = Scheme::Bcm;
        spec.base.pmDataBytes = 1ULL << 30;
            Simulation sim(spec);
        SyntheticGenerator gen(profileByName("povray"), 200'000, 3);
        sim.run(gen);
        EXPECT_GT(sim.system().ctrCache().numDirty(), 0u);
        EXPECT_GT(sim.system().macCache().numDirty(), 0u);
    }
    EXPECT_EQ(faultTrialOutputs(), first);
}

TEST(SimulationFacade, MultiCoreMatchesDirectMultiSystem)
{
    SimulationSpec spec;
    spec.base.scheme = Scheme::Cobcm;
    spec.base.secpb.numEntries = 8;
    spec.base.pmDataBytes = 1ULL << 30;
    spec.cores = 2;

    auto makeGens = [] {
        auto g0 = std::make_unique<ScriptedGenerator>();
        auto g1 = std::make_unique<ScriptedGenerator>();
        g0->store(0x1000, 0xAA).instr(200);
        g1->instr(200).store(0x1000, 0xBB);
        std::vector<std::unique_ptr<ScriptedGenerator>> owned;
        owned.push_back(std::move(g0));
        owned.push_back(std::move(g1));
        return owned;
    };

    MultiCoreSystem direct(spec.base, spec.cores);
    auto dOwned = makeGens();
    const MultiCoreResult dres = direct.run({dOwned[0].get(), dOwned[1].get()});

    Simulation sim(spec);
    EXPECT_EQ(sim.numCores(), 2u);
    auto fOwned = makeGens();
    const MultiCoreResult fres = sim.run({fOwned[0].get(), fOwned[1].get()});

    EXPECT_EQ(fres.migrations, dres.migrations);
    EXPECT_EQ(fres.execTicks, dres.execTicks);
    ASSERT_EQ(fres.perCore.size(), dres.perCore.size());
    for (std::size_t c = 0; c < fres.perCore.size(); ++c)
        EXPECT_EQ(fingerprint(fres.perCore[c]), fingerprint(dres.perCore[c]));
    EXPECT_EQ(statsDumpOf(sim), statsDumpOf(direct));
}

TEST(SimulationFacade, SingleCoreVectorRunWrapsMultiResult)
{
    // Drivers that always pass a generator vector (one per core) work
    // unchanged on a single-core spec: the facade wraps the result.
    SimulationSpec spec;
    spec.base.scheme = Scheme::Cobcm;
    Simulation sim(spec);
    ScriptedGenerator gen;
    for (int i = 0; i < 8; ++i)
        gen.store(i * BlockSize, 0xD0 + i).instr(50);
    const MultiCoreResult r = sim.run(std::vector<WorkloadGenerator *>{&gen});
    ASSERT_EQ(r.perCore.size(), 1u);
    EXPECT_EQ(r.perCore[0].persists, 8u);
    EXPECT_EQ(r.totalInstructions, r.perCore[0].instructions);
    EXPECT_EQ(r.execTicks, r.perCore[0].execTicks);
}

TEST(SimulationFacade, GeneratorArityMismatchPanics)
{
    SimulationSpec spec;
    Simulation sim(spec);
    ScriptedGenerator a, b;
    std::vector<WorkloadGenerator *> two{&a, &b};
    EXPECT_DEATH(sim.run(two), "2 generators for 1 cores");
}

TEST(SimulationSpecCli, ReadsSpecRowsBesideTheProgramsOwn)
{
    const Argv av{"prog", "--jobs", "3",      "--instr", "5000",
                  "--seed", "9",    "--json", "out.json"};
    std::uint64_t jobs = 0;
    std::string json;
    SimulationSpec spec;
    const unsigned given = spec.parseCli(
        av.argc(), av.data(), "test", flag::Instr | flag::Seed,
        {{0, "--jobs", "N", "", readCount(jobs)},
         {0, "--json", "PATH", "", readText(json)}});

    EXPECT_EQ(spec.instructions, 5'000u);
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_EQ(jobs, 3u);
    EXPECT_EQ(json, "out.json");
    EXPECT_EQ(given, flag::Instr | flag::Seed);
}

TEST(SimulationSpecCli, DefaultsWhenNothingGiven)
{
    const SimulationSpec spec = parsed({"prog"});
    EXPECT_EQ(spec.instructions, 300'000u);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.cores, 1u);
    EXPECT_EQ(spec.base.battery.cap.tech, "ideal");
    EXPECT_DOUBLE_EQ(spec.base.battery.cap.capacitanceDerate, 1.0);
    EXPECT_TRUE(spec.workload.empty());
}

TEST(SimulationSpecCli, TraceInIsReplayWorkloadSugar)
{
    const SimulationSpec spec =
        parsed({"prog", "--trace-in", "/tmp/ops.trace"});
    EXPECT_EQ(spec.workload, "replay:file=/tmp/ops.trace");
}

TEST(SimulationSpecCli, BadValuesDieEagerly)
{
    EXPECT_DEATH(parsed({"prog", "--instr", "-5"}),
                 "--instr '-5': not a decimal integer");
    EXPECT_DEATH(parsed({"prog", "--battery-derate", "nan"}),
                 "--battery-derate 'nan': not a finite non-negative "
                 "decimal number");
    EXPECT_DEATH(parsed({"prog", "--battery-derate", "0"}),
                 "out of \\(0, 1\\]");
    EXPECT_DEATH(parsed({"prog", "--workload", "no-such-workload"}),
                 "unknown workload");
    EXPECT_DEATH(parsed({"prog", "--trace-in", "x.trc", "--workload",
                         "kv_wal"}),
                 "mutually exclusive");
    // A run-spec row the program does not read is an unknown flag.
    const Argv av{"prog", "--seed", "3"};
    SimulationSpec spec;
    EXPECT_DEATH(spec.parseCli(av.argc(), av.data(), "test", flag::Instr),
                 "test: unknown flag '--seed'");
}

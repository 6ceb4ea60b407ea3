/**
 * @file
 * The server-scale workload front end: registry grammar (loud failures
 * on typos), bit-identical generator streams per (spec, budget, seed)
 * triple, the traffic shapes each generator promises (WAL barriers,
 * checkpoint storms, commit trains, panic dumps, multi-tenant ASID
 * churn), Zipfian skew sanity, the open-loop burst wrapper, sweep
 * determinism under --jobs N with registry-selected workloads, and a
 * crash-consistency fault slice over the KV/WAL workload.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/system.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"
#include "fault/injector.hh"
#include "sim/logging.hh"
#include "workload/generators.hh"
#include "workload/registry.hh"
#include "workload/zipf.hh"

using namespace secpb;

namespace
{

std::vector<TraceOp>
drain(WorkloadGenerator &gen)
{
    std::vector<TraceOp> ops;
    TraceOp op;
    while (gen.next(op))
        ops.push_back(op);
    return ops;
}

bool
sameOps(const std::vector<TraceOp> &a, const std::vector<TraceOp> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind != b[i].kind || a[i].count != b[i].count ||
            a[i].addr != b[i].addr || a[i].value != b[i].value ||
            a[i].level != b[i].level || a[i].asid != b[i].asid)
            return false;
    }
    return true;
}

/** Small-parameter variants of every generator family. */
const char *const kSpecs[] = {
    "kv_wal:keys=256,ckpt_every=64,ckpt_blocks=8",
    "fs_journal:meta_blocks=128,commit_every=2",
    "pstore:dump_every=8,dump_blocks=16",
    "zipf_mix:tenants=64,keys=8",
    "kv_wal:keys=128,burst_period=300,burst_duty=0.5",
};

} // namespace

// ---------------------------------------------------------------------
// Registry grammar.
// ---------------------------------------------------------------------

TEST(WorkloadSpec, RegistryKnowsItsNames)
{
    for (const std::string &name : registeredWorkloadNames())
        EXPECT_TRUE(isRegisteredWorkload(name)) << name;
    EXPECT_FALSE(isRegisteredWorkload("ycsb"));
    EXPECT_FALSE(isRegisteredWorkload(""));
}

TEST(WorkloadSpecDeath, TyposAreFatalNotIgnored)
{
    setQuietLogging(true);
    // An unknown name or key must never silently run a default workload.
    EXPECT_DEATH(makeWorkload("ycsb", 1000, 1), "unknown workload");
    EXPECT_DEATH(makeWorkload("kv_wal:putz=0.8", 1000, 1),
                 "workload 'kv_wal': unknown key 'putz'");
    EXPECT_DEATH(makeWorkload("kv_wal:keys=1,keys=2", 1000, 1),
                 "duplicate parameter");
    EXPECT_DEATH(makeWorkload("kv_wal:keys", 1000, 1), "not key=value");
    EXPECT_DEATH(makeWorkload(":keys=1", 1000, 1), "empty workload name");
    EXPECT_DEATH(makeWorkload("kv_wal:keys=many", 1000, 1),
                 "keys 'many': not a decimal integer");
    EXPECT_DEATH(makeWorkload("kv_wal:keys=1.5", 1000, 1),
                 "keys '1.5': not a decimal integer");
    EXPECT_DEATH(makeWorkload("kv_wal:burst_duty=0.5", 1000, 1),
                 "burst_period");
    EXPECT_DEATH(makeWorkload("replay", 1000, 1), "file=");
    EXPECT_DEATH(makeWorkload("spec", 1000, 1), "profile=");
}

TEST(WorkloadSpecDeath, CountPastItsFieldIsFatal)
{
    setQuietLogging(true);
    // 2^32 + 1 used to narrow to 1 in the unsigned commit_every.
    EXPECT_DEATH(makeWorkload("zipf_mix:commit_every=4294967297", 1000, 1),
                 "workload 'zipf_mix': parameter commit_every '4294967297': "
                 "out of range \\(maximum 4294967295\\)");
}

// ---------------------------------------------------------------------
// Determinism: the contract every replay/record feature builds on.
// ---------------------------------------------------------------------

TEST(Generators, SameTripleSameStreamDifferentSeedDiverges)
{
    for (const char *spec : kSpecs) {
        SCOPED_TRACE(spec);
        auto a = makeWorkload(spec, 5000, 7);
        auto b = makeWorkload(spec, 5000, 7);
        auto c = makeWorkload(spec, 5000, 8);
        const auto sa = drain(*a);
        const auto sb = drain(*b);
        const auto sc = drain(*c);
        EXPECT_FALSE(sa.empty());
        EXPECT_TRUE(sameOps(sa, sb));
        EXPECT_FALSE(sameOps(sa, sc));
    }
}

TEST(Generators, BudgetBoundsTheStreamAndCountersMatchIt)
{
    const std::uint64_t budget = 5000;
    for (const char *spec : kSpecs) {
        SCOPED_TRACE(spec);
        auto gen = makeWorkload(spec, budget, 3);
        const auto ops = drain(*gen);

        WorkloadCounters tally;
        for (const TraceOp &op : ops)
            countOp(tally, op);

        ASSERT_NE(gen->counters(), nullptr);
        const WorkloadCounters &ctr = *gen->counters();
        EXPECT_EQ(ctr.ops, ops.size());
        EXPECT_EQ(ctr.instructions, tally.instructions);
        EXPECT_EQ(ctr.loads, tally.loads);
        EXPECT_EQ(ctr.stores, tally.stores);
        EXPECT_EQ(ctr.barriers, tally.barriers);

        // The budget ends the stream: reached, but only overshot by the
        // final scripted request, never by another refill. The burst
        // wrapper is exempt from the lower bound -- it strips the inner
        // think time, so its counted instruction mass is the idle gaps.
        if (std::string(spec).find("burst_period") == std::string::npos) {
            EXPECT_GE(ctr.instructions, budget);
        }
        EXPECT_LT(ctr.instructions, budget + 8192);
    }
}

// ---------------------------------------------------------------------
// Traffic shapes.
// ---------------------------------------------------------------------

TEST(KvWal, PutsCommitThroughTheLogAndCheckpointsStorm)
{
    KvWalParams p;
    p.keys = 256;
    p.checkpointEvery = 64;
    p.checkpointBlocks = 8;
    KvWalGenerator gen(p, 20000, 5);
    const auto ops = drain(gen);

    EXPECT_GT(gen.putsIssued(), 0u);
    EXPECT_GT(gen.checkpoints(), 0u);
    EXPECT_GT(gen.counters()->barriers, gen.checkpoints());

    for (const TraceOp &op : ops) {
        if (op.kind == TraceOp::Kind::Store) {
            EXPECT_EQ(op.addr % 8, 0u) << "misaligned store";
        }
    }

    // Every put persists at least its WAL record before the table
    // update, so stores dominate and barriers pace them.
    EXPECT_GT(gen.counters()->stores, gen.counters()->barriers);
}

TEST(Journal, FsJournalCommitsButNeverPanics)
{
    JournalParams p;
    p.metaBlocks = 128;
    p.commitEvery = 2;
    JournalGenerator gen(p, 20000, 5);
    drain(gen);
    EXPECT_GT(gen.commits(), 0u);
    EXPECT_EQ(gen.dumps(), 0u);
    EXPECT_GT(gen.counters()->barriers, 0u);
}

TEST(Journal, PstorePanicDumpsAreLongStoreRuns)
{
    JournalParams p;
    p.metaBlocks = 128;
    p.dumpEvery = 8;
    p.dumpBlocks = 16;
    JournalGenerator gen(p, 30000, 5);
    const auto ops = drain(gen);
    EXPECT_GT(gen.dumps(), 0u);

    // A panic dump writes dumpBlocks back-to-back blocks with no
    // intervening loads or think time -- find at least one such run.
    std::size_t run = 0, longest = 0;
    for (const TraceOp &op : ops) {
        if (op.kind == TraceOp::Kind::Store)
            longest = std::max(longest, ++run);
        else
            run = 0;
    }
    EXPECT_GE(longest, static_cast<std::size_t>(p.dumpBlocks));
}

TEST(ZipfMix, ThousandsOfTenantsChurnTheAsidSpace)
{
    ZipfMixParams p;
    p.tenants = 256;
    p.keysPerTenant = 8;
    ZipfMixGenerator gen(p, 30000, 5);
    const auto ops = drain(gen);

    std::set<std::uint32_t> asids;
    std::map<std::uint32_t, std::uint64_t> stores;
    for (const TraceOp &op : ops) {
        if (op.kind == TraceOp::Kind::Instr)
            continue;
        asids.insert(op.asid);
        if (op.kind == TraceOp::Kind::Store)
            ++stores[op.asid];
    }
    // A hot head dominates while a long tail keeps churning: tenant 0
    // (the most popular rank) sees far more traffic than a mid-tail
    // tenant, and well over a hundred distinct ASIDs show up.
    EXPECT_GT(asids.size(), 32u);
    EXPECT_LE(*asids.rbegin(), p.tenants - 1);
    EXPECT_GT(stores[0], stores[100] + 10);
}

TEST(ZipfMix, CommitIntervalsPastSixteenBitsStillCommit)
{
    // One tenant, every request a put: a barrier after every 70,000
    // stores. A 16-bit per-tenant counter wrapped and never committed.
    auto gen = makeWorkload(
        "zipf_mix:tenants=1,keys=8,puts=1,think=1,commit_every=70000",
        600'000, 3);
    std::uint64_t stores = 0, barriers = 0;
    for (const TraceOp &op : drain(*gen)) {
        stores += op.kind == TraceOp::Kind::Store;
        barriers += op.kind == TraceOp::Kind::Barrier;
    }
    ASSERT_GT(stores, 2u * 70'000);
    EXPECT_EQ(barriers, stores / 70'000);
}

// ---------------------------------------------------------------------
// Zipf sampler sanity.
// ---------------------------------------------------------------------

TEST(Zipf, HeadMassIsMonotoneAndSkewTracksTheExponent)
{
    const ZipfSampler skewed(1024, 1.2);
    const ZipfSampler mild(1024, 0.5);
    const ZipfSampler uniform(1024, 0.0);

    double prev = 0.0;
    for (std::uint64_t k : {1ull, 4ull, 16ull, 64ull, 1024ull}) {
        const double m = skewed.headMass(k);
        EXPECT_GT(m, prev);
        prev = m;
    }
    EXPECT_DOUBLE_EQ(skewed.headMass(1024), 1.0);
    EXPECT_EQ(skewed.headMass(0), 0.0);

    // More exponent, more head mass; exponent 0 degenerates to uniform.
    EXPECT_GT(skewed.headMass(10), mild.headMass(10));
    EXPECT_NEAR(uniform.headMass(102), 102.0 / 1024.0, 1e-12);
}

TEST(Zipf, EmpiricalDrawFrequenciesMatchTheCdf)
{
    const ZipfSampler z(1024, 0.99);
    Rng rng(123);
    const std::uint64_t draws = 50000;
    std::uint64_t head = 0;
    for (std::uint64_t i = 0; i < draws; ++i)
        if (z.sample(rng) < 16)
            ++head;
    const double want = z.headMass(16);
    EXPECT_NEAR(static_cast<double>(head) / draws, want, 0.02);
}

TEST(Zipf, SharedTableDrawsMatchTheReferenceLoop)
{
    constexpr std::uint64_t n = 4096;
    constexpr double s = 0.99;
    // The per-sampler loop the shared table replaced, verbatim.
    std::vector<double> ref(n);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
        ref[r] = sum;
    }
    const double inv = 1.0 / sum;
    for (double &c : ref)
        c *= inv;
    ref.back() = 1.0;

    const ZipfSampler first(n, s);
    const ZipfSampler z(n, s);
    ASSERT_EQ(&z.table(), &first.table());
    ASSERT_EQ(z.table(), ref);
    Rng drawn(2024), want(2024);
    for (int i = 0; i < 100000; ++i) {
        const auto it =
            std::upper_bound(ref.begin(), ref.end(), want.uniform());
        ASSERT_EQ(z.sample(drawn), static_cast<std::uint64_t>(
                                       it - ref.begin()))
            << "draw " << i;
    }
}

TEST(Zipf, ConcurrentSamplersShareOneTable)
{
    // An (n, s) pair no other test uses, so the threads race to build.
    constexpr unsigned kThreads = 8;
    std::atomic<unsigned> ready{0};
    std::vector<const std::vector<double> *> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&ready, &seen, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            const ZipfSampler z(3001, 0.73);
            seen[t] = &z.table();
        });
    }
    for (std::thread &t : threads)
        t.join();
    const ZipfSampler later(3001, 0.73);
    for (const std::vector<double> *table : seen)
        EXPECT_EQ(table, &later.table());
}

// ---------------------------------------------------------------------
// Open-loop burst wrapper.
// ---------------------------------------------------------------------

TEST(Burst, DutyCyclesArrivalsAndStripsThinkTime)
{
    KvWalParams kp;
    kp.keys = 128;
    kp.thinkInstrs = 100;
    BurstParams bp;
    bp.onOps = 200;
    bp.duty = 0.25;
    bp.idleBundle = 32;

    BurstyArrivalGenerator gen(
        std::make_unique<KvWalGenerator>(kp, 20000, 9), bp);
    const auto ops = drain(gen);

    // With think time stripped, the only Instr ops are the idle-gap
    // bundles, each at most idleBundle instructions.
    std::uint64_t idle_instrs = 0, mem_ops = 0;
    for (const TraceOp &op : ops) {
        if (op.kind == TraceOp::Kind::Instr) {
            EXPECT_LE(op.count, bp.idleBundle);
            idle_instrs += op.count;
        } else {
            ++mem_ops;
        }
    }
    EXPECT_GT(idle_instrs, 0u);
    EXPECT_GT(mem_ops, 0u);

    // Open loop: idle = on * (1 - duty) / duty, so at 25% duty the idle
    // instruction mass is about 3x the burst mass.
    const double ratio = static_cast<double>(idle_instrs) /
                         static_cast<double>(mem_ops);
    EXPECT_GT(ratio, 1.5);

    // And the wrapped stream is as deterministic as the inner one.
    BurstyArrivalGenerator again(
        std::make_unique<KvWalGenerator>(kp, 20000, 9), bp);
    EXPECT_TRUE(sameOps(ops, drain(again)));
}

// ---------------------------------------------------------------------
// Registry-selected workloads through the experiment engine.
// ---------------------------------------------------------------------

TEST(WorkloadSweep, RegistryPointsAreByteIdenticalAcrossJobs)
{
    setQuietLogging(true);
    auto run = [](unsigned jobs) {
        const char *workloads[] = {
            "kv_wal:keys=256",
            "zipf_mix:tenants=64,keys=8",
            "fs_journal:meta_blocks=128",
            "kv_wal:keys=128,burst_period=300,burst_duty=0.5",
        };
        const Scheme schemes[] = {Scheme::Bbb, Scheme::Cobcm};
        SweepReport report;
        report.bench = "workload_determinism_test";
        report.jobs = 0;
        for (const char *w : workloads) {
            for (Scheme s : schemes) {
                ExperimentPoint p = makePoint(s, "");
                p.label = std::string(w) + "/" + schemeName(s);
                p.spec.workload = w;
                p.spec.instructions = 3000;
                p.spec.seed = 42;
                report.points.push_back(std::move(p));
            }
        }
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        report.results = SweepRunner(opts).run(report.points);
        return sweepJsonDeterministic(report);
    };

    const std::string serial = run(1);
    const std::string parallel = run(4);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"workload\": \"kv_wal:keys=256\""),
              std::string::npos);
}

TEST(WorkloadSystem, BarriersReachTheCpuAsPersistFences)
{
    setQuietLogging(true);
    SystemConfig cfg =
        SecPbSystem::configFor(Scheme::Cobcm, serverWorkloadProfile());
    SecPbSystem sys(cfg);
    auto gen = makeWorkload("kv_wal:keys=256,ckpt_every=64", 10000, 11);
    const SimulationResult res = sys.run(*gen);

    // Every generator barrier retires as a persist barrier; the KV/WAL
    // commit discipline also produces actual persists.
    ASSERT_NE(gen->counters(), nullptr);
    EXPECT_GT(gen->counters()->barriers, 0u);
    EXPECT_EQ(static_cast<std::uint64_t>(sys.cpu().statBarriers.value()),
              gen->counters()->barriers);
    EXPECT_GT(res.persists, 0u);
}

// ---------------------------------------------------------------------
// Crash-consistency slice: fault injection over the KV/WAL workload.
// ---------------------------------------------------------------------

TEST(WorkloadFault, KvWalCrashDrainsAndRecoversConsistently)
{
    setQuietLogging(true);
    SystemConfig cfg =
        SecPbSystem::configFor(Scheme::Cobcm, serverWorkloadProfile());
    SecPbSystem sys(cfg);

    FaultPlan plan;
    plan.crashAtPersist = 200;
    plan.tamperCount = 2;
    plan.tamperSeed = 3;

    auto gen = makeWorkload("kv_wal:keys=256,ckpt_every=64", 40000, 13);
    const FaultReport report = FaultInjector(sys, plan).run(*gen);

    EXPECT_TRUE(report.crashedMidRun);
    EXPECT_GE(report.persistsAtCrash, 200u);
    EXPECT_TRUE(report.crash.recovered);
    EXPECT_EQ(report.tampers.size(), 2u);
    EXPECT_TRUE(report.tampersAllDetected);
    EXPECT_TRUE(report.ok());
}

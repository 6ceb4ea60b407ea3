/**
 * @file
 * The secpb-trace file format: lossless round trips in both encodings,
 * loud failures on corrupt headers and truncated payloads, seekable
 * replay, and the record/replay identity the workload front-end is
 * built on -- replaying a recording is byte-identical to the live run,
 * all the way down to the simulation results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "exp/experiment.hh"
#include "workload/generators.hh"
#include "workload/registry.hh"
#include "workload/trace_file.hh"

using namespace secpb;

namespace
{

/** Unique-per-test scratch path under the build dir. */
std::string
scratchPath(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string path = std::string(info->test_suite_name()) + "_" +
                       info->name() + "_" + stem;
    // Parameterized names contain '/': flatten to a plain filename.
    std::replace(path.begin(), path.end(), '/', '_');
    return path;
}

/** An op list covering every kind and field. */
std::vector<TraceOp>
sampleOps()
{
    std::vector<TraceOp> ops;
    TraceOp op;
    op.kind = TraceOp::Kind::Instr;
    op.count = 17;
    ops.push_back(op);

    op = TraceOp{};
    op.kind = TraceOp::Kind::Load;
    op.level = MemLevel::Mem;
    op.addr = 0xdeadbe00;
    op.asid = 3;
    ops.push_back(op);

    op = TraceOp{};
    op.kind = TraceOp::Kind::Store;
    op.addr = 0x1000'0008;
    op.value = 0xfeedfacecafef00dULL;
    op.asid = 42;
    ops.push_back(op);

    op = TraceOp{};
    op.kind = TraceOp::Kind::Barrier;
    op.asid = 42;
    ops.push_back(op);

    op = TraceOp{};
    op.kind = TraceOp::Kind::Load;
    op.level = MemLevel::L3;
    ops.push_back(op);
    return ops;
}

void
expectOpEq(const TraceOp &a, const TraceOp &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.asid, b.asid);
}

class TraceFileRoundTrip : public ::testing::TestWithParam<TraceEncoding>
{
};

} // namespace

TEST_P(TraceFileRoundTrip, OpsMetaAndCountSurviveLosslessly)
{
    const std::string path = scratchPath("rt.trc");
    const std::vector<TraceOp> ops = sampleOps();
    {
        TraceFileWriter w(path, GetParam(),
                          {{"workload", "kv_wal:puts=0.8"}, {"seed", "7"}});
        for (const TraceOp &op : ops)
            w.add(op);
        w.close();
        EXPECT_EQ(w.numOps(), ops.size());
    }

    TraceFileReader r(path);
    EXPECT_EQ(r.encoding(), GetParam());
    EXPECT_EQ(r.numOps(), ops.size());
    EXPECT_EQ(r.metaValue("workload"), "kv_wal:puts=0.8");
    EXPECT_EQ(r.metaValue("seed"), "7");
    EXPECT_EQ(r.metaValue("missing", "dflt"), "dflt");

    TraceOp got;
    for (const TraceOp &want : ops) {
        ASSERT_TRUE(r.next(got));
        expectOpEq(want, got);
    }
    EXPECT_FALSE(r.next(got));
    EXPECT_EQ(r.opsRead(), ops.size());

    // Seekable: rewind() replays from the first op without reopening.
    r.rewind();
    ASSERT_TRUE(r.next(got));
    expectOpEq(ops[0], got);

    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Encodings, TraceFileRoundTrip,
                         ::testing::Values(TraceEncoding::Text,
                                           TraceEncoding::Binary),
                         [](const auto &info) {
                             return traceEncodingName(info.param);
                         });

TEST(TraceFile, EmptyTraceRoundTrips)
{
    const std::string path = scratchPath("empty.trc");
    {
        TraceFileWriter w(path, TraceEncoding::Binary);
        w.close();
    }
    TraceFileReader r(path);
    EXPECT_EQ(r.numOps(), 0u);
    TraceOp op;
    EXPECT_FALSE(r.next(op));
    std::remove(path.c_str());
}

TEST(TraceFileDeath, MissingFileIsFatal)
{
    EXPECT_DEATH(TraceFileReader("no/such/trace.trc"), "cannot open");
}

TEST(TraceFileDeath, CorruptMagicIsFatal)
{
    const std::string path = scratchPath("magic.trc");
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOTATRCE garbage follows";
    }
    EXPECT_DEATH(TraceFileReader r(path), "bad magic");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, UnsupportedVersionIsFatal)
{
    const std::string path = scratchPath("ver.trc");
    {
        std::ofstream out(path);
        out << "secpb-trace v99 text\nops 0\nend\n";
    }
    EXPECT_DEATH(TraceFileReader r(path), "version");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, TruncatedBinaryPayloadIsFatal)
{
    const std::string path = scratchPath("trunc.trc");
    {
        TraceFileWriter w(path, TraceEncoding::Binary);
        for (const TraceOp &op : sampleOps())
            w.add(op);
        w.close();
    }
    // Chop the last bytes off: the reader promised numOps() ops and must
    // die loudly instead of returning a silently shortened workload.
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(all.data(),
                  static_cast<std::streamsize>(all.size() - 6));
    }
    EXPECT_DEATH(
        {
            TraceFileReader r(path);
            TraceOp op;
            while (r.next(op)) {
            }
        },
        "truncated");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, TextCountMismatchIsFatal)
{
    const std::string path = scratchPath("count.trc");
    {
        std::ofstream out(path);
        out << "secpb-trace v1 text\nops 00000000000000000003\n"
            << "I 5\nend\n";
    }
    EXPECT_DEATH(
        {
            TraceFileReader r(path);
            TraceOp op;
            while (r.next(op)) {
            }
        },
        "header promised");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, OversizedTextCountIsFatal)
{
    // All digits, but past 2^64 - 1: a diagnostic, not an uncaught
    // std::out_of_range.
    const std::string path = scratchPath("bigcount.trc");
    {
        std::ofstream out(path);
        out << "secpb-trace v1 text\nops 123456789012345678901\nend\n";
    }
    EXPECT_DEATH(TraceFileReader r(path), "op count .*out of range");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, MisalignedStoreIsFatalAtWriteTime)
{
    const std::string path = scratchPath("align.trc");
    TraceFileWriter w(path, TraceEncoding::Text);
    TraceOp op;
    op.kind = TraceOp::Kind::Store;
    op.addr = 0x1003;  // not 8-byte aligned
    EXPECT_DEATH(w.add(op), "aligned");
    std::remove(path.c_str());
}

TEST(TraceFile, RecordingTeesExactlyWhatTheConsumerSaw)
{
    const std::string path = scratchPath("tee.trc");
    KvWalParams kp;
    kp.checkpointEvery = 64;

    // Drain a recorded run and a bare run of the same generator.
    std::vector<TraceOp> live;
    {
        KvWalGenerator gen(kp, 4000, 11);
        TraceOp op;
        while (gen.next(op))
            live.push_back(op);
    }
    {
        RecordingGenerator rec(
            std::make_unique<KvWalGenerator>(kp, 4000, 11), path,
            TraceEncoding::Binary, {{"workload", "kv_wal"}});
        TraceOp op;
        std::size_t i = 0;
        while (rec.next(op)) {
            ASSERT_LT(i, live.size());
            expectOpEq(live[i++], op);
        }
        EXPECT_EQ(i, live.size());
        rec.finish();
    }

    // And the replay matches both, op for op, plus counters.
    ReplayGenerator rep(path);
    TraceOp op;
    std::size_t i = 0;
    while (rep.next(op)) {
        ASSERT_LT(i, live.size());
        expectOpEq(live[i++], op);
    }
    EXPECT_EQ(i, live.size());
    ASSERT_NE(rep.counters(), nullptr);
    EXPECT_EQ(rep.counters()->ops, live.size());

    // rewind() supports multi-cycle fault experiments.
    rep.rewind();
    ASSERT_TRUE(rep.next(op));
    expectOpEq(live[0], op);

    std::remove(path.c_str());
}

TEST(TraceFile, ReplayedRunIsByteIdenticalToLiveRunPerWorkload)
{
    setQuietLogging(true);
    // For every registered generator family: record a live run, replay
    // the recording, and require identical stats -- the acceptance
    // criterion that makes traces trustworthy evaluation inputs.
    const char *specs[] = {
        "kv_wal:keys=512,ckpt_every=128",
        "fs_journal:meta_blocks=256",
        "pstore:dump_every=16,dump_blocks=32",
        "zipf_mix:tenants=64,keys=16",
        "spec:profile=gamess",
        "kv_wal:keys=256,burst_period=500,burst_duty=0.5",
    };
    for (const char *spec : specs) {
        SCOPED_TRACE(spec);
        const std::string path = scratchPath("e2e.trc");

        ExperimentPoint live = makePoint(Scheme::Cobcm, "");
        live.label = "live";
        live.spec.workload = spec;
        live.spec.instructions = 6000;
        live.spec.seed = 5;
        live.spec.base.obs.samplePeriod = 2048;
        live.spec.traceRecord = path;
        live.captureStats = true;
        const ExperimentResult lr = runExperimentPoint(live);

        ExperimentPoint replay = live;
        replay.label = "replay";
        replay.spec.workload = "replay:file=" + path;
        replay.spec.traceRecord.clear();
        const ExperimentResult rr = runExperimentPoint(replay);

        EXPECT_EQ(lr.sim.execTicks, rr.sim.execTicks);
        EXPECT_EQ(lr.sim.instructions, rr.sim.instructions);
        EXPECT_EQ(lr.sim.persists, rr.sim.persists);
        EXPECT_EQ(lr.statsJson, rr.statsJson);
        ASSERT_EQ(lr.samples.numEpochs(), rr.samples.numEpochs());

        std::remove(path.c_str());
    }
}

/**
 * @file
 * The secpb-trace file format: lossless round trips, loud failures on
 * corrupt headers, truncated payloads and every op the writer would
 * refuse, seekable
 * replay, and the record/replay identity the workload front-end is
 * built on -- replaying a recording is byte-identical to the live run,
 * all the way down to the simulation results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

    // Every field at its widest: a 10-byte address varint, 32-bit
    // count and ASID.
    op = TraceOp{};
    op.kind = TraceOp::Kind::Instr;
    op.count = UINT32_MAX;
    ops.push_back(op);

    op = TraceOp{};
    op.kind = TraceOp::Kind::Load;
    op.level = MemLevel::L2;
    op.addr = UINT64_MAX;
    op.asid = UINT32_MAX;
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

/** LEB128, as the writer encodes every varint field. */
std::string
varint(std::uint64_t v)
{
    std::string out;
    while (v >= 0x80) {
        out += static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    out += static_cast<char>(v);
    return out;
}

/**
 * Hand-build a trace the writer would refuse to produce: a header
 * promising @p num_ops ops (no meta), then @p payload verbatim.
 */
void
writeRawTrace(const std::string &path, std::uint64_t num_ops,
              const std::string &payload, std::uint16_t version = 1)
{
    std::string b = "SECPBTRC";
    b += static_cast<char>(version & 0xff);
    b += static_cast<char>(version >> 8);
    b += '\x01';  // encoding tag
    b += '\x00';  // meta count
    for (unsigned i = 0; i < 8; ++i)
        b += static_cast<char>(num_ops >> (8 * i));
    b += payload;
    std::ofstream out(path, std::ios::binary);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
}

/** Read @p path to the end, as a replay does. */
void
readAll(const std::string &path)
{
    TraceFileReader r(path);
    TraceOp op;
    while (r.next(op)) {
    }
}

// Op tags (kind | level << 4) and a valid first op for the raw traces.
constexpr char InstrTag = 0x00;
constexpr char LoadMemTag = 0x31;
constexpr char StoreTag = 0x02;
constexpr char BarrierTag = 0x03;
const std::string InstrOp = std::string(1, InstrTag) + varint(5);

} // namespace

TEST(TraceFileRoundTrip, OpsMetaAndCountSurviveLosslessly)
{
    const std::string path = scratchPath("rt.trc");
    const std::vector<TraceOp> ops = sampleOps();
    {
        TraceFileWriter w(path,
                          {{"workload", "kv_wal:puts=0.8"}, {"seed", "7"}});
        for (const TraceOp &op : ops)
            w.add(op);
        w.close();
        EXPECT_EQ(w.numOps(), ops.size());
    }

    TraceFileReader r(path);
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

TEST(TraceFile, EmptyTraceRoundTrips)
{
    const std::string path = scratchPath("empty.trc");
    {
        TraceFileWriter w(path);
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
    writeRawTrace(path, 0, "", 99);
    EXPECT_DEATH(TraceFileReader r(path), "unsupported trace version 99");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, TruncatedBinaryPayloadIsFatal)
{
    const std::string path = scratchPath("trunc.trc");
    {
        TraceFileWriter w(path);
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
    EXPECT_DEATH(readAll(path), "truncated");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, MisalignedStoreIsFatalAtWriteTime)
{
    const std::string path = scratchPath("align.trc");
    TraceFileWriter w(path);
    TraceOp op;
    op.kind = TraceOp::Kind::Store;
    op.addr = 0x1003;  // not 8-byte aligned
    EXPECT_DEATH(w.add(op), "aligned");
    std::remove(path.c_str());
}

// The reader refuses everything the writer refuses, naming the file and
// the op index: a hand-built file must not replay what a recording never
// could.

TEST(TraceFileDeath, MisalignedStoreIsFatalAtReadTime)
{
    const std::string path = scratchPath("ralign.trc");
    writeRawTrace(path, 2,
                  InstrOp + StoreTag + varint(0x1003) +
                      std::string(8, '\0') + varint(0));
    EXPECT_DEATH(readAll(path),
                 "ralign.trc: op 1: store address 1003 is not 8-byte "
                 "aligned");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, InstrCountPast32BitsIsFatal)
{
    const std::string path = scratchPath("count.trc");
    writeRawTrace(path, 2, InstrOp + InstrTag + varint(1ULL << 32));
    EXPECT_DEATH(readAll(path),
                 "count.trc: op 1: instr count 4294967296 does not fit "
                 "32 bits");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, AsidPast32BitsIsFatal)
{
    const std::string path = scratchPath("asid.trc");
    writeRawTrace(path, 2, InstrOp + BarrierTag + varint(1ULL << 33));
    EXPECT_DEATH(readAll(path),
                 "asid.trc: op 1: asid 8589934592 does not fit 32 bits");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, VarintPast64BitsIsFatal)
{
    // Nine full continuation bytes, then a 10th carrying bit 64.
    const std::string path = scratchPath("wide.trc");
    writeRawTrace(path, 2,
                  InstrOp + LoadMemTag + std::string(9, '\xff') + '\x02' +
                      varint(0));
    EXPECT_DEATH(readAll(path),
                 "wide.trc: op 1: load address varint overflows 64 bits");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, TrailingBytesAreFatal)
{
    // The header promises one op; a second one follows it.
    const std::string path = scratchPath("trail.trc");
    writeRawTrace(path, 1, InstrOp + InstrOp);
    EXPECT_DEATH(readAll(path),
                 "trail.trc: op 1: bytes left after the 1 promised ops");
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
            {{"workload", "kv_wal"}});
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

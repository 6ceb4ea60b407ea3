/**
 * @file
 * The secpb-trace file format: versioned, seekable TraceOp streams.
 *
 * One binary encoding carries both recorded generator runs and real
 * memtraces (via tools/convert_memtrace.py), so both replay through the
 * exact same path. A fixed 20-byte header (magic "SECPBTRC", u16
 * version, u8 encoding tag 1, u8 meta count, u64 op count, little
 * endian), length-prefixed meta strings, then one tag byte per op
 * (kind | level << 4) followed by LEB128 varints (store values stay
 * fixed 8 bytes -- they are pseudo-random and do not compress).
 *
 * Ops round-trip losslessly and deterministically: write(read(f)) == f.
 * The reader is as strict as the writer -- a bad magic, version or
 * encoding tag, a truncated payload, a misaligned store, a count or
 * ASID past 32 bits, a varint past 64 bits, or bytes after the promised
 * op count is fatal, never a silently altered workload. Readers are
 * seekable: rewind() returns to the first op without reopening, which
 * is what lets one ReplayGenerator instance drive multi-cycle fault
 * experiments.
 */

#ifndef SECPB_WORKLOAD_TRACE_FILE_HH
#define SECPB_WORKLOAD_TRACE_FILE_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu/trace_op.hh"

namespace secpb
{

/** Streaming writer; the op count is patched into the header on close. */
class TraceFileWriter
{
  public:
    /**
     * Open @p path and write the header. @p meta records free-form
     * provenance (workload spec, seed) replay tools can display.
     */
    TraceFileWriter(
        const std::string &path,
        std::vector<std::pair<std::string, std::string>> meta = {});
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append one op. */
    void add(const TraceOp &op);

    /** Finish: patch the op count, flush, fail loudly on I/O errors.
     *  Idempotent; the destructor calls it as a backstop. */
    void close();

    std::uint64_t numOps() const { return _numOps; }

  private:
    void writeHeader();

    std::string _path;
    std::vector<std::pair<std::string, std::string>> _meta;
    std::ofstream _out;
    std::uint64_t _numOps = 0;
    std::ofstream::pos_type _countPos = 0;  ///< Op-count patch offset.
    bool _closed = false;
};

/** Validating reader: every op the writer would refuse is fatal. */
class TraceFileReader
{
  public:
    /** Open @p path, validate the header, position at the first op. */
    explicit TraceFileReader(const std::string &path);

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    /**
     * Read the next op. @return false once all `numOps()` ops were
     * consumed; a malformed or truncated record, or bytes after the
     * last promised op, is fatal.
     */
    bool next(TraceOp &op);

    /** Seek back to the first op. */
    void rewind();

    std::uint64_t numOps() const { return _numOps; }
    std::uint64_t opsRead() const { return _opsRead; }

    /** First value recorded for @p key, or @p fallback. */
    std::string metaValue(const std::string &key,
                          const std::string &fallback = "") const;

  private:
    /** "PATH: header" or "PATH: op N", for diagnostics. */
    std::string where() const;

    std::uint64_t getVarint(const char *field);
    std::uint32_t getVarint32(const char *field);
    std::uint64_t getU64(const char *field);
    std::string getString(const char *field);

    std::string _path;
    std::ifstream _in;
    std::uint64_t _numOps = 0;
    std::uint64_t _opsRead = 0;
    std::ifstream::pos_type _payloadPos = 0;
    std::vector<std::pair<std::string, std::string>> _meta;
};

/** Replays a trace file as a WorkloadGenerator. */
class ReplayGenerator : public WorkloadGenerator
{
  public:
    explicit ReplayGenerator(const std::string &path);

    bool next(TraceOp &op) override;
    const WorkloadCounters *counters() const override { return &_ctr; }

    /** Restart the trace from the first op (multi-cycle experiments). */
    void rewind();

  private:
    std::unique_ptr<TraceFileReader> _reader;
    WorkloadCounters _ctr;
};

/**
 * Tees an inner generator into a trace file: the stream the consumer
 * sees is exactly what lands on disk, so a replay of the recording is
 * byte-identical to the live run.
 */
class RecordingGenerator : public WorkloadGenerator
{
  public:
    RecordingGenerator(
        std::unique_ptr<WorkloadGenerator> inner, const std::string &path,
        std::vector<std::pair<std::string, std::string>> meta = {});

    bool next(TraceOp &op) override;

    const WorkloadCounters *
    counters() const override
    {
        return _inner->counters();
    }

    /** Close the underlying writer (also done on exhaustion). */
    void finish();

  private:
    std::unique_ptr<WorkloadGenerator> _inner;
    TraceFileWriter _writer;
    bool _finished = false;
};

/** Count how a WorkloadCounters advances for one op (shared helper). */
inline void
countOp(WorkloadCounters &c, const TraceOp &op)
{
    ++c.ops;
    switch (op.kind) {
      case TraceOp::Kind::Instr:
        c.instructions += op.count;
        break;
      case TraceOp::Kind::Load:
        ++c.instructions;
        ++c.loads;
        break;
      case TraceOp::Kind::Store:
        ++c.instructions;
        ++c.stores;
        break;
      case TraceOp::Kind::Barrier:
        ++c.instructions;
        ++c.barriers;
        break;
    }
}

} // namespace secpb

#endif // SECPB_WORKLOAD_TRACE_FILE_HH

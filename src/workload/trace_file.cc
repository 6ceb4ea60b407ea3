#include "workload/trace_file.hh"

#include <cstring>

#include "sim/logging.hh"

namespace secpb
{

namespace
{

constexpr char Magic[8] = {'S', 'E', 'C', 'P', 'B', 'T', 'R', 'C'};
constexpr std::uint16_t FormatVersion = 1;
constexpr std::size_t HeaderBytes = 8 + 2 + 1 + 1 + 8;

void
putVarint(std::ofstream &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.put(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.put(static_cast<char>(v));
}

void
putU64(std::ofstream &out, std::uint64_t v)
{
    char b[8];
    for (unsigned i = 0; i < 8; ++i)
        b[i] = static_cast<char>(v >> (8 * i));
    out.write(b, 8);
}

void
putU16(std::ofstream &out, std::uint16_t v)
{
    out.put(static_cast<char>(v & 0xff));
    out.put(static_cast<char>(v >> 8));
}

void
putString(std::ofstream &out, const std::string &s)
{
    putVarint(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::uint8_t
opTag(const TraceOp &op)
{
    return static_cast<std::uint8_t>(op.kind) |
           static_cast<std::uint8_t>(
               static_cast<unsigned>(op.level) << 4);
}

} // namespace

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

TraceFileWriter::TraceFileWriter(
    const std::string &path,
    std::vector<std::pair<std::string, std::string>> meta)
    : _path(path), _meta(std::move(meta)),
      _out(path, std::ios::binary | std::ios::trunc)
{
    fatal_if(!_out, "cannot open trace file '%s' for writing",
             path.c_str());
    fatal_if(_meta.size() > 255, "at most 255 trace meta entries");
    writeHeader();
}

TraceFileWriter::~TraceFileWriter()
{
    if (!_closed)
        close();
}

void
TraceFileWriter::writeHeader()
{
    _out.write(Magic, sizeof(Magic));
    putU16(_out, FormatVersion);
    _out.put(static_cast<char>(1));  // encoding tag: 1 = binary
    _out.put(static_cast<char>(_meta.size()));
    _countPos = _out.tellp();
    putU64(_out, 0);
    for (const auto &[k, v] : _meta) {
        putString(_out, k);
        putString(_out, v);
    }
}

void
TraceFileWriter::add(const TraceOp &op)
{
    panic_if(_closed, "TraceFileWriter::add after close");
    fatal_if(op.kind == TraceOp::Kind::Store && op.addr % 8 != 0,
             "trace '%s': store address %llx is not 8-byte aligned",
             _path.c_str(), static_cast<unsigned long long>(op.addr));
    ++_numOps;
    _out.put(static_cast<char>(opTag(op)));
    switch (op.kind) {
      case TraceOp::Kind::Instr:
        putVarint(_out, op.count);
        break;
      case TraceOp::Kind::Load:
        putVarint(_out, op.addr);
        putVarint(_out, op.asid);
        break;
      case TraceOp::Kind::Store:
        putVarint(_out, op.addr);
        putU64(_out, op.value);
        putVarint(_out, op.asid);
        break;
      case TraceOp::Kind::Barrier:
        putVarint(_out, op.asid);
        break;
    }
}

void
TraceFileWriter::close()
{
    if (_closed)
        return;
    _closed = true;
    _out.seekp(_countPos);
    putU64(_out, _numOps);
    _out.flush();
    fatal_if(!_out, "I/O error writing trace file '%s'", _path.c_str());
    _out.close();
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

TraceFileReader::TraceFileReader(const std::string &path)
    : _path(path), _in(path, std::ios::binary)
{
    fatal_if(!_in, "cannot open trace file '%s'", path.c_str());
    char magic[8] = {};
    _in.read(magic, sizeof(magic));
    fatal_if(_in.gcount() != 8 ||
                 std::memcmp(magic, Magic, sizeof(Magic)) != 0,
             "%s: bad magic (want \"SECPBTRC\"), not a secpb-trace",
             path.c_str());
    const int lo = _in.get();
    const int hi = _in.get();
    const int enc = _in.get();
    const int n_meta = _in.get();
    fatal_if(n_meta == std::ifstream::traits_type::eof(),
             "%s: truncated header (%zu-byte minimum)", path.c_str(),
             HeaderBytes);
    const unsigned version = static_cast<unsigned>(lo | (hi << 8));
    fatal_if(version != FormatVersion,
             "%s: unsupported trace version %u (want %u)", path.c_str(),
             version, FormatVersion);
    fatal_if(enc != 1, "%s: unknown encoding tag %d (want 1)",
             path.c_str(), enc);
    _numOps = getU64("op count");
    for (int i = 0; i < n_meta; ++i) {
        std::string k = getString("meta key");
        std::string v = getString("meta value");
        _meta.emplace_back(std::move(k), std::move(v));
    }
    _payloadPos = _in.tellg();
}

std::string
TraceFileReader::where() const
{
    if (_payloadPos == 0)
        return _path + ": header";
    return csprintf("%s: op %llu", _path.c_str(),
                    static_cast<unsigned long long>(_opsRead));
}

std::uint64_t
TraceFileReader::getVarint(const char *field)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
        const int c = _in.get();
        fatal_if(c == std::ifstream::traits_type::eof(),
                 "%s: truncated %s varint", where().c_str(), field);
        // A 10th byte may carry bit 63 and nothing else.
        fatal_if(shift == 63 && c > 1, "%s: %s varint overflows 64 bits",
                 where().c_str(), field);
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80))
            return v;
    }
}

std::uint32_t
TraceFileReader::getVarint32(const char *field)
{
    const std::uint64_t v = getVarint(field);
    fatal_if(v > UINT32_MAX, "%s: %s %llu does not fit 32 bits",
             where().c_str(), field, static_cast<unsigned long long>(v));
    return static_cast<std::uint32_t>(v);
}

std::uint64_t
TraceFileReader::getU64(const char *field)
{
    char b[8];
    _in.read(b, 8);
    fatal_if(_in.gcount() != 8, "%s: truncated %s", where().c_str(),
             field);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(b[i])) << (8 * i);
    return v;
}

std::string
TraceFileReader::getString(const char *field)
{
    const std::uint64_t n = getVarint(field);
    fatal_if(n > (1ULL << 20), "%s: %s of %llu bytes", where().c_str(),
             field, static_cast<unsigned long long>(n));
    std::string s(n, '\0');
    _in.read(s.data(), static_cast<std::streamsize>(n));
    fatal_if(static_cast<std::uint64_t>(_in.gcount()) != n,
             "%s: truncated %s", where().c_str(), field);
    return s;
}

void
TraceFileReader::rewind()
{
    _in.clear();
    _in.seekg(_payloadPos);
    _opsRead = 0;
}

std::string
TraceFileReader::metaValue(const std::string &key,
                           const std::string &fallback) const
{
    for (const auto &[k, v] : _meta)
        if (k == key)
            return v;
    return fallback;
}

bool
TraceFileReader::next(TraceOp &op)
{
    if (_opsRead >= _numOps) {
        fatal_if(_in.peek() != std::ifstream::traits_type::eof(),
                 "%s: bytes left after the %llu promised ops",
                 where().c_str(), static_cast<unsigned long long>(_numOps));
        return false;
    }
    const int tag = _in.get();
    fatal_if(tag == std::ifstream::traits_type::eof(),
             "%s: truncated after %llu of %llu ops", _path.c_str(),
             static_cast<unsigned long long>(_opsRead),
             static_cast<unsigned long long>(_numOps));
    const unsigned kind = tag & 0x0f;
    const unsigned level = (tag >> 4) & 0x0f;
    fatal_if(kind > 3 || level > 3, "%s: corrupt op tag 0x%02x",
             where().c_str(), tag);
    op = TraceOp{};
    op.kind = static_cast<TraceOp::Kind>(kind);
    op.level = static_cast<MemLevel>(level);
    switch (op.kind) {
      case TraceOp::Kind::Instr:
        op.count = getVarint32("instr count");
        break;
      case TraceOp::Kind::Load:
        op.addr = getVarint("load address");
        op.asid = getVarint32("asid");
        break;
      case TraceOp::Kind::Store:
        op.addr = getVarint("store address");
        fatal_if(op.addr % 8 != 0,
                 "%s: store address %llx is not 8-byte aligned",
                 where().c_str(), static_cast<unsigned long long>(op.addr));
        op.value = getU64("store value");
        op.asid = getVarint32("asid");
        break;
      case TraceOp::Kind::Barrier:
        op.asid = getVarint32("asid");
        break;
    }
    ++_opsRead;
    return true;
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

ReplayGenerator::ReplayGenerator(const std::string &path)
    : _reader(std::make_unique<TraceFileReader>(path))
{}

bool
ReplayGenerator::next(TraceOp &op)
{
    if (!_reader->next(op))
        return false;
    countOp(_ctr, op);
    return true;
}

void
ReplayGenerator::rewind()
{
    _reader->rewind();
    _ctr = WorkloadCounters{};
}

RecordingGenerator::RecordingGenerator(
    std::unique_ptr<WorkloadGenerator> inner, const std::string &path,
    std::vector<std::pair<std::string, std::string>> meta)
    : _inner(std::move(inner)), _writer(path, std::move(meta))
{
    fatal_if(!_inner, "RecordingGenerator needs an inner workload");
}

bool
RecordingGenerator::next(TraceOp &op)
{
    if (!_inner->next(op)) {
        finish();
        return false;
    }
    _writer.add(op);
    return true;
}

void
RecordingGenerator::finish()
{
    if (_finished)
        return;
    _finished = true;
    _writer.close();
}

} // namespace secpb

#include "workload/trace_file.hh"

#include <cstring>
#include <sstream>

#include "core/simulation.hh"
#include "sim/logging.hh"

namespace secpb
{

namespace
{

constexpr char TextMagic[] = "secpb-trace";
constexpr char BinaryMagic[8] = {'S', 'E', 'C', 'P', 'B', 'T', 'R', 'C'};
constexpr std::uint16_t FormatVersion = 1;
constexpr std::size_t BinaryHeaderBytes = 8 + 2 + 1 + 1 + 8;

const char *
levelName(MemLevel level)
{
    switch (level) {
      case MemLevel::L1:  return "l1";
      case MemLevel::L2:  return "l2";
      case MemLevel::L3:  return "l3";
      case MemLevel::Mem: return "mem";
    }
    return "?";
}

MemLevel
parseLevel(const std::string &name, const std::string &path)
{
    if (name == "l1")
        return MemLevel::L1;
    if (name == "l2")
        return MemLevel::L2;
    if (name == "l3")
        return MemLevel::L3;
    if (name == "mem")
        return MemLevel::Mem;
    fatal("%s: unknown load level '%s'", path.c_str(), name.c_str());
}

void
putVarint(std::ofstream &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.put(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.put(static_cast<char>(v));
}

std::uint64_t
getVarint(std::ifstream &in, const std::string &path)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const int c = in.get();
        fatal_if(c == std::ifstream::traits_type::eof(),
                 "%s: truncated varint", path.c_str());
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80))
            return v;
    }
    fatal("%s: varint overruns 64 bits", path.c_str());
    return 0;
}

void
putU64(std::ofstream &out, std::uint64_t v)
{
    char b[8];
    for (unsigned i = 0; i < 8; ++i)
        b[i] = static_cast<char>(v >> (8 * i));
    out.write(b, 8);
}

std::uint64_t
getU64(std::ifstream &in, const std::string &path)
{
    char b[8];
    in.read(b, 8);
    fatal_if(in.gcount() != 8, "%s: truncated 64-bit field",
             path.c_str());
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(b[i])) << (8 * i);
    return v;
}

void
putU16(std::ofstream &out, std::uint16_t v)
{
    out.put(static_cast<char>(v & 0xff));
    out.put(static_cast<char>(v >> 8));
}

std::uint16_t
getU16(std::ifstream &in, const std::string &path)
{
    const int lo = in.get();
    const int hi = in.get();
    fatal_if(hi == std::ifstream::traits_type::eof(),
             "%s: truncated 16-bit field", path.c_str());
    return static_cast<std::uint16_t>(lo | (hi << 8));
}

void
putString(std::ofstream &out, const std::string &s)
{
    putVarint(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string
getString(std::ifstream &in, const std::string &path)
{
    const std::uint64_t n = getVarint(in, path);
    fatal_if(n > (1ULL << 20), "%s: meta string of %llu bytes",
             path.c_str(), static_cast<unsigned long long>(n));
    std::string s(n, '\0');
    in.read(s.data(), static_cast<std::streamsize>(n));
    fatal_if(static_cast<std::uint64_t>(in.gcount()) != n,
             "%s: truncated meta string", path.c_str());
    return s;
}

std::uint8_t
opTag(const TraceOp &op)
{
    return static_cast<std::uint8_t>(op.kind) |
           static_cast<std::uint8_t>(
               static_cast<unsigned>(op.level) << 4);
}

} // namespace

TraceEncoding
parseTraceEncoding(const std::string &name)
{
    if (name == "text")
        return TraceEncoding::Text;
    if (name == "binary")
        return TraceEncoding::Binary;
    fatal("unknown trace encoding '%s' (want text|binary)", name.c_str());
    return TraceEncoding::Text;
}

const char *
traceEncodingName(TraceEncoding enc)
{
    return enc == TraceEncoding::Text ? "text" : "binary";
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

TraceFileWriter::TraceFileWriter(
    const std::string &path, TraceEncoding encoding,
    std::vector<std::pair<std::string, std::string>> meta)
    : _path(path), _encoding(encoding), _meta(std::move(meta)),
      _out(path, _encoding == TraceEncoding::Binary
                     ? std::ios::binary | std::ios::trunc
                     : std::ios::trunc)
{
    fatal_if(!_out, "cannot open trace file '%s' for writing",
             path.c_str());
    for (const auto &[k, v] : _meta)
        fatal_if(k.empty() ||
                     k.find_first_of(" \n") != std::string::npos ||
                     v.find('\n') != std::string::npos,
                 "trace meta key/value ('%s') must be newline-free and "
                 "the key one word", k.c_str());
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
    if (_encoding == TraceEncoding::Text) {
        _out << TextMagic << " v" << FormatVersion << " text\n";
        for (const auto &[k, v] : _meta)
            _out << "meta " << k << " " << v << "\n";
        // The op count is patched on close; a fixed-width field keeps
        // the payload offset stable so the patch never shifts it.
        _countPos = _out.tellp();
        _out << "ops " << std::string(20, '0') << "\n";
    } else {
        _out.write(BinaryMagic, sizeof(BinaryMagic));
        putU16(_out, FormatVersion);
        _out.put(static_cast<char>(1));  // encoding: 1 = binary
        _out.put(static_cast<char>(_meta.size()));
        _countPos = _out.tellp();
        putU64(_out, 0);
        for (const auto &[k, v] : _meta) {
            putString(_out, k);
            putString(_out, v);
        }
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
    if (_encoding == TraceEncoding::Text) {
        switch (op.kind) {
          case TraceOp::Kind::Instr:
            _out << "I " << op.count << "\n";
            break;
          case TraceOp::Kind::Load:
            _out << "L " << levelName(op.level) << " " << op.addr << " "
                 << op.asid << "\n";
            break;
          case TraceOp::Kind::Store:
            _out << "S " << op.addr << " " << op.value << " " << op.asid
                 << "\n";
            break;
          case TraceOp::Kind::Barrier:
            _out << "B " << op.asid << "\n";
            break;
        }
        return;
    }
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
    if (_encoding == TraceEncoding::Text)
        _out << "end\n";
    _out.seekp(_countPos);
    if (_encoding == TraceEncoding::Text) {
        std::ostringstream count;
        count << _numOps;
        std::string padded(20 - count.str().size(), '0');
        _out << "ops " << padded << count.str();
    } else {
        putU64(_out, _numOps);
    }
    _out.flush();
    fatal_if(!_out, "I/O error writing trace file '%s'", _path.c_str());
    _out.close();
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

TraceFileReader::TraceFileReader(const std::string &path) : _path(path)
{
    std::ifstream probe(path, std::ios::binary);
    fatal_if(!probe, "cannot open trace file '%s'", path.c_str());
    char magic[8] = {};
    probe.read(magic, sizeof(magic));
    if (probe.gcount() == 8 &&
        std::memcmp(magic, BinaryMagic, sizeof(BinaryMagic)) == 0) {
        _encoding = TraceEncoding::Binary;
        _in.open(path, std::ios::binary);
        openBinary();
    } else {
        _encoding = TraceEncoding::Text;
        openText(probe);
    }
}

void
TraceFileReader::openText(std::ifstream &probe)
{
    probe.seekg(0);
    probe.clear();
    _in.open(_path);
    fatal_if(!_in, "cannot open trace file '%s'", _path.c_str());

    std::string line;
    fatal_if(!std::getline(_in, line),
             "%s: empty file, not a secpb-trace", _path.c_str());
    std::istringstream hdr(line);
    std::string magic, version, enc;
    hdr >> magic >> version >> enc;
    fatal_if(magic != TextMagic,
             "%s: bad magic '%s' (want '%s')", _path.c_str(),
             magic.c_str(), TextMagic);
    fatal_if(version != "v1",
             "%s: unsupported trace version '%s' (want v1)",
             _path.c_str(), version.c_str());
    fatal_if(enc != "text", "%s: bad encoding tag '%s' in text header",
             _path.c_str(), enc.c_str());

    while (std::getline(_in, line)) {
        std::istringstream ls(line);
        std::string word;
        ls >> word;
        if (word == "meta") {
            std::string key;
            ls >> key;
            std::string value;
            std::getline(ls, value);
            if (!value.empty() && value.front() == ' ')
                value.erase(0, 1);
            fatal_if(key.empty(), "%s: meta line without a key",
                     _path.c_str());
            _meta.emplace_back(key, value);
            continue;
        }
        fatal_if(word != "ops",
                 "%s: expected 'ops <count>' after header, got '%s'",
                 _path.c_str(), word.c_str());
        std::string count;
        ls >> count;
        _numOps = parseDecimalU64((_path + ": op count").c_str(),
                                  count.c_str());
        _payloadPos = _in.tellg();
        return;
    }
    fatal("%s: header ends without an 'ops' line", _path.c_str());
}

void
TraceFileReader::openBinary()
{
    fatal_if(!_in, "cannot open trace file '%s'", _path.c_str());
    _in.seekg(8);  // past the magic the probe verified
    const std::uint16_t version = getU16(_in, _path);
    fatal_if(version != FormatVersion,
             "%s: unsupported trace version %u (want %u)", _path.c_str(),
             version, FormatVersion);
    const int enc = _in.get();
    fatal_if(enc != 1, "%s: binary header carries encoding tag %d",
             _path.c_str(), enc);
    const int n_meta = _in.get();
    fatal_if(n_meta == std::ifstream::traits_type::eof(),
             "%s: truncated header (%zu-byte minimum)", _path.c_str(),
             BinaryHeaderBytes);
    _numOps = getU64(_in, _path);
    for (int i = 0; i < n_meta; ++i) {
        std::string k = getString(_in, _path);
        std::string v = getString(_in, _path);
        _meta.emplace_back(std::move(k), std::move(v));
    }
    _payloadPos = _in.tellg();
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
    if (_opsRead >= _numOps)
        return false;
    const bool ok = _encoding == TraceEncoding::Text ? nextText(op)
                                                     : nextBinary(op);
    fatal_if(!ok, "%s: truncated after %llu of %llu ops", _path.c_str(),
             static_cast<unsigned long long>(_opsRead),
             static_cast<unsigned long long>(_numOps));
    ++_opsRead;
    return true;
}

bool
TraceFileReader::nextText(TraceOp &op)
{
    std::string line;
    while (std::getline(_in, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string word;
        ls >> word;
        fatal_if(word == "end",
                 "%s: 'end' after %llu ops but header promised %llu",
                 _path.c_str(),
                 static_cast<unsigned long long>(_opsRead),
                 static_cast<unsigned long long>(_numOps));
        op = TraceOp{};
        bool parsed = false;
        if (word == "I") {
            op.kind = TraceOp::Kind::Instr;
            parsed = static_cast<bool>(ls >> op.count);
        } else if (word == "L") {
            op.kind = TraceOp::Kind::Load;
            std::string level;
            parsed = static_cast<bool>(ls >> level >> op.addr >> op.asid);
            if (parsed)
                op.level = parseLevel(level, _path);
        } else if (word == "S") {
            op.kind = TraceOp::Kind::Store;
            parsed =
                static_cast<bool>(ls >> op.addr >> op.value >> op.asid);
        } else if (word == "B") {
            op.kind = TraceOp::Kind::Barrier;
            parsed = static_cast<bool>(ls >> op.asid);
        } else {
            fatal("%s: unknown op record '%s'", _path.c_str(),
                  word.c_str());
        }
        fatal_if(!parsed, "%s: malformed %s record '%s'", _path.c_str(),
                 word.c_str(), line.c_str());
        return true;
    }
    return false;
}

bool
TraceFileReader::nextBinary(TraceOp &op)
{
    const int tag = _in.get();
    if (tag == std::ifstream::traits_type::eof())
        return false;
    const unsigned kind = tag & 0x0f;
    const unsigned level = (tag >> 4) & 0x0f;
    fatal_if(kind > 3 || level > 3, "%s: corrupt op tag 0x%02x",
             _path.c_str(), tag);
    op = TraceOp{};
    op.kind = static_cast<TraceOp::Kind>(kind);
    op.level = static_cast<MemLevel>(level);
    switch (op.kind) {
      case TraceOp::Kind::Instr:
        op.count = static_cast<std::uint32_t>(getVarint(_in, _path));
        break;
      case TraceOp::Kind::Load:
        op.addr = getVarint(_in, _path);
        op.asid = static_cast<std::uint32_t>(getVarint(_in, _path));
        break;
      case TraceOp::Kind::Store:
        op.addr = getVarint(_in, _path);
        op.value = getU64(_in, _path);
        op.asid = static_cast<std::uint32_t>(getVarint(_in, _path));
        break;
      case TraceOp::Kind::Barrier:
        op.asid = static_cast<std::uint32_t>(getVarint(_in, _path));
        break;
    }
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
    TraceEncoding encoding,
    std::vector<std::pair<std::string, std::string>> meta)
    : _inner(std::move(inner)), _writer(path, encoding, std::move(meta))
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

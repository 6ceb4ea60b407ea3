#include "stats/json.hh"

#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace secpb
{

JsonWriter::JsonWriter(std::ostream &os, bool pretty)
    : _os(os), _pretty(pretty)
{
}

void
JsonWriter::raw(const std::string &s)
{
    _os << s;
}

void
JsonWriter::newlineIndent()
{
    if (!_pretty)
        return;
    _os << '\n';
    for (std::size_t i = 0; i < _stack.size(); ++i)
        _os << "  ";
}

void
JsonWriter::preValue()
{
    if (_keyPending) {
        // Key already emitted the separator; the value follows inline.
        _keyPending = false;
        return;
    }
    if (_stack.empty())
        return;
    if (!_stack.back().first)
        _os << ',';
    _stack.back().first = false;
    newlineIndent();
}

void
JsonWriter::beginObject()
{
    preValue();
    _os << '{';
    _stack.push_back(Level{false, true});
}

void
JsonWriter::endObject()
{
    panic_if(_stack.empty() || _stack.back().array,
             "JsonWriter::endObject with no open object");
    const bool empty = _stack.back().first;
    _stack.pop_back();
    if (!empty)
        newlineIndent();
    _os << '}';
    if (_stack.empty() && _pretty)
        _os << '\n';
}

void
JsonWriter::beginArray()
{
    preValue();
    _os << '[';
    _stack.push_back(Level{true, true});
}

void
JsonWriter::endArray()
{
    panic_if(_stack.empty() || !_stack.back().array,
             "JsonWriter::endArray with no open array");
    const bool empty = _stack.back().first;
    _stack.pop_back();
    if (!empty)
        newlineIndent();
    _os << ']';
}

void
JsonWriter::key(const std::string &k)
{
    panic_if(_stack.empty() || _stack.back().array,
             "JsonWriter::key outside an object");
    panic_if(_keyPending, "JsonWriter::key with a key already pending");
    if (!_stack.back().first)
        _os << ',';
    _stack.back().first = false;
    newlineIndent();
    _os << '"' << escape(k) << "\": ";
    _keyPending = true;
}

void
JsonWriter::value(const std::string &v)
{
    preValue();
    _os << '"' << escape(v) << '"';
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

void
JsonWriter::value(bool v)
{
    preValue();
    _os << (v ? "true" : "false");
}

void
JsonWriter::value(double v)
{
    preValue();
    if (!std::isfinite(v)) {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        _os << "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    _os << buf;
}

void
JsonWriter::value(std::uint64_t v)
{
    preValue();
    _os << v;
}

void
JsonWriter::value(std::int64_t v)
{
    preValue();
    _os << v;
}

void
JsonWriter::rawValue(const std::string &json)
{
    panic_if(json.empty(), "JsonWriter::rawValue with empty document");
    preValue();
    _os << json;
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

} // namespace secpb

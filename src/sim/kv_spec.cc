#include "sim/kv_spec.hh"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "sim/logging.hh"

namespace secpb
{

namespace
{

/**
 * @p v as a count no larger than @p max, or die naming what() ("fig6:
 * --jobs", "workload 'kv_wal': parameter keys").
 */
template <typename What>
std::uint64_t
countOf(const char *v, std::uint64_t max, What what)
{
    std::uint64_t n = 0;
    const char *end = v + std::strlen(v);
    const auto [ptr, ec] = std::from_chars(v, end, n);
    fatal_if(ptr != end || ec == std::errc::invalid_argument,
             "%s '%s': not a decimal integer (must be plain non-negative "
             "digits)",
             what().c_str(), v);
    fatal_if(ec != std::errc() || n > max,
             "%s '%s': out of range (maximum %llu)", what().c_str(), v,
             static_cast<unsigned long long>(max));
    return n;
}

/**
 * @p v as a finite, non-negative decimal, or die naming what(). It must
 * start with a digit or '.': from_chars alone also takes a sign, nan and
 * inf.
 */
template <typename What>
double
numberOf(const char *v, What what)
{
    double d = 0.0;
    const char *end = v + std::strlen(v);
    const auto [ptr, ec] = std::from_chars(v, end, d);
    fatal_if((*v != '.' && (*v < '0' || *v > '9')) || ptr != end ||
                 ec != std::errc(),
             "%s '%s': not a finite non-negative decimal number",
             what().c_str(), v);
    return d;
}

} // namespace

std::uint64_t
parseDecimalU64(const char *what, const char *v, std::uint64_t max)
{
    return countOf(v, max, [what] { return std::string(what); });
}

double
parseDecimalNumber(const char *what, const char *v)
{
    return numberOf(v, [what] { return std::string(what); });
}

std::string
joinNames(const std::vector<std::string> &v)
{
    std::string out;
    for (const std::string &s : v)
        out += (out.empty() ? "" : ",") + s;
    return out;
}

std::vector<std::string>
splitList(const std::string &text, const std::string &what)
{
    std::vector<std::string> out;
    std::size_t start = 0, comma;
    do {
        comma = text.find(',', start);
        const std::size_t end = std::min(comma, text.size());
        fatal_if(end == start, "%s: empty entry in '%s'", what.c_str(),
                 text.c_str());
        out.push_back(text.substr(start, end - start));
        start = end + 1;
    } while (comma != std::string::npos);
    return out;
}

KvSpec
KvSpec::parse(const std::string &text, const char *kind)
{
    const auto colon = text.find(':');
    fatal_if(colon == 0 || text.empty(), "empty %s name in '%s'", kind,
             text.c_str());
    KvSpec spec;
    spec._kind = kind;
    spec.name = text.substr(0, colon);
    if (colon != std::string::npos)
        spec.parseParams(text.substr(colon + 1));
    return spec;
}

KvSpec
KvSpec::parsePairs(const std::string &text, const char *kind)
{
    KvSpec spec;
    spec._kind = kind;
    if (!text.empty())
        spec.parseParams(text);
    return spec;
}

void
KvSpec::parseParams(const std::string &text)
{
    const std::string what = context();
    for (const std::string &item : splitList(text, what)) {
        const auto eq = item.find('=');
        fatal_if(eq == std::string::npos || eq == 0,
                 "%s: parameter '%s' is not key=value", what.c_str(),
                 item.c_str());
        std::string key = item.substr(0, eq);
        fatal_if(has(key), "%s: duplicate parameter '%s'", what.c_str(),
                 key.c_str());
        params.push_back({std::move(key), item.substr(eq + 1)});
    }
}

bool
KvSpec::has(std::string_view key) const
{
    return std::any_of(params.begin(), params.end(),
                       [key](const Param &p) { return p.key == key; });
}

std::uint64_t
KvSpec::boundedCount(std::string_view key, std::uint64_t fallback,
                     std::uint64_t max)
{
    const std::string *v = take(key);
    return v ? countOf(v->c_str(), max, [&] { return what(key); })
             : fallback;
}

double
KvSpec::number(std::string_view key, double fallback)
{
    const std::string *v = take(key);
    return v ? numberOf(v->c_str(), [&] { return what(key); }) : fallback;
}

std::string
KvSpec::text(std::string_view key)
{
    const std::string *v = take(key);
    return v ? *v : std::string();
}

void
KvSpec::finish() const
{
    for (const Param &p : params)
        fatal_if(!p.read, "%s: unknown key '%s'", context().c_str(),
                 p.key.c_str());
}

const std::string *
KvSpec::take(std::string_view key)
{
    for (Param &p : params) {
        if (p.key == key) {
            p.read = true;
            return &p.value;
        }
    }
    return nullptr;
}

std::string
KvSpec::context() const
{
    return name.empty() ? std::string(_kind)
                        : csprintf("%s '%s'", _kind, name.c_str());
}

std::string
KvSpec::what(std::string_view key) const
{
    return context() + ": parameter " + std::string(key);
}

} // namespace secpb

/**
 * @file
 * Minimal hand-rolled JSON writer for experiment results.
 *
 * Streams a JSON document to an ostream with deterministic formatting:
 * fields appear in emission order, doubles print via "%.17g" (shortest
 * round-trippable on one platform), and pretty mode puts one scalar field
 * per line so downstream tools can diff or filter line-wise (the sweep
 * determinism test strips the host-time lines this way). No DOM, no
 * parsing, no allocation beyond the nesting stack -- writing is all this
 * project needs.
 */

#ifndef SECPB_STATS_JSON_HH
#define SECPB_STATS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace secpb
{

/** Streaming JSON emitter with begin/end nesting and typed values. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, bool pretty = true);

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next value/begin* call is its value. */
    void key(const std::string &k);

    void value(const std::string &v);
    void value(const char *v);
    void value(bool v);
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }

    /**
     * Splice @p json -- an already-serialized JSON value -- in value
     * position, verbatim. Lets callers embed documents produced by
     * another JsonWriter (e.g. a compact stats object inside a pretty
     * sweep point) without reparsing.
     */
    void rawValue(const std::string &json);

    /** @name key + value in one call. */
    /** @{ */
    template <typename T>
    void
    field(const std::string &k, const T &v)
    {
        key(k);
        value(v);
    }
    /** @} */

    /** Depth of open objects/arrays (0 when the document is complete). */
    std::size_t depth() const { return _stack.size(); }

    /** JSON string escaping (quotes not included). */
    static std::string escape(const std::string &s);

  private:
    struct Level
    {
        bool array = false;
        bool first = true;
    };

    /** Separator/indent before a value or key at the current position. */
    void preValue();
    void newlineIndent();
    void raw(const std::string &s);

    std::ostream &_os;
    bool _pretty;
    bool _keyPending = false;
    std::vector<Level> _stack;
};

} // namespace secpb

#endif // SECPB_STATS_JSON_HH

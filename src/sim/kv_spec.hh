/**
 * @file
 * The one grammar for key=value configuration text, and its value
 * readers.
 *
 * Three command-line inputs configure an experiment with key=value
 * pairs: workload selectors ("kv_wal:keys=1024,puts=0.8"), scheme specs
 * ("triad:levels=3") and power schedules ("cycles=3,brownout=0.6", the
 * same pair list without a name). All of them parse here:
 *
 *     spec  := name [ ":" pairs ]               KvSpec::parse
 *     pairs := key "=" value { "," key "=" value }   KvSpec::parsePairs
 *
 * An empty name, a missing '=', an empty key, a repeated key, an empty
 * pair and a trailing comma or colon are fatal. Values are read by type:
 *
 *  - a count is plain decimal digits ("64", "007"): no sign, blank,
 *    fraction, exponent or hex, and it must fit the field it sets;
 *  - a number is a finite, non-negative decimal ("0.5", ".5", "5e-1"):
 *    nan, inf, hex, a sign and a blank are fatal.
 *
 * Bare flag values (--instr, --jobs, --battery-derate, fault_soak's
 * --trials) go through the same two readers, parseDecimalU64 and
 * parseDecimalNumber. Every diagnostic names its input ("workload
 * 'kv_wal'", "power schedule", "scheme 'triad'", or the flag).
 */

#ifndef SECPB_SIM_KV_SPEC_HH
#define SECPB_SIM_KV_SPEC_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace secpb
{

/**
 * @p v as a count: the whole of it must be plain decimal digits no
 * larger than @p max. Anything else (sign, blank, fraction, trailing
 * garbage, overflow) dies with a diagnostic naming @p what ("fig6:
 * --jobs").
 */
std::uint64_t parseDecimalU64(const char *what, const char *v,
                              std::uint64_t max = UINT64_MAX);

/** @p v as a finite, non-negative decimal number, or die naming
 *  @p what. */
double parseDecimalNumber(const char *what, const char *v);

/** @p v joined with commas ("a,b,c"), for CLI help and diagnostics. */
std::string joinNames(const std::vector<std::string> &v);

/**
 * @p text split at its commas ("cm,cobcm" -> {"cm", "cobcm"}). An empty
 * item -- an empty @p text, a doubled, leading or trailing comma -- dies
 * naming @p what.
 */
std::vector<std::string> splitList(const std::string &text,
                                   const std::string &what);

/** A parsed "name:k=v,..." spec and its readers; see the file comment. */
class KvSpec
{
  public:
    struct Param
    {
        std::string key;
        std::string value;
        bool read = false;  ///< Consumed by a reader (see finish()).
    };

    std::string name;           ///< Empty for a bare pair list.
    std::vector<Param> params;  ///< In the order written.

    /** Parse "name[:pairs]"; @p kind ("workload", "scheme") names the
     *  input in diagnostics. */
    static KvSpec parse(const std::string &text, const char *kind);

    /** Parse a bare pair list ("" is the empty list); @p kind ("power
     *  schedule") names the input in diagnostics. */
    static KvSpec parsePairs(const std::string &text, const char *kind);

    /** Whether @p key was given (does not count as reading it). */
    bool has(std::string_view key) const;

    /** @name Readers: each returns @p fallback when @p key is absent. */
    /** @{ */
    /** A count that fits @p T. */
    template <typename T>
    T
    count(std::string_view key, T fallback)
    {
        static_assert(std::is_unsigned_v<T>, "counts are unsigned");
        return static_cast<T>(
            boundedCount(key, fallback, std::numeric_limits<T>::max()));
    }

    double number(std::string_view key, double fallback);

    /** The raw value ("" when absent). */
    std::string text(std::string_view key);
    /** @} */

    /** Fatal if any parameter was never read: an unknown key. */
    void finish() const;

  private:
    std::uint64_t boundedCount(std::string_view key, std::uint64_t fallback,
                               std::uint64_t max);
    /** @p key's value, marked read; nullptr when absent. */
    const std::string *take(std::string_view key);
    /** Parse "k=v,..." into params; @p text is nonempty. */
    void parseParams(const std::string &text);
    /** The input's name in diagnostics ("workload 'kv_wal'"). */
    std::string context() const;
    /** @p key's name in diagnostics ("workload 'kv_wal': parameter
     *  keys"). */
    std::string what(std::string_view key) const;

    const char *_kind = "";
};

} // namespace secpb

#endif // SECPB_SIM_KV_SPEC_HH

/**
 * @file
 * The scheme table: every persistency scheme the simulator models, one
 * constexpr row each (paper Section IV, Table II, plus the related-work
 * zoo).
 *
 * A row says which components of the memory tuple (counter, OTP, BMT
 * root, ciphertext, MAC) the scheme produces *early* -- on the critical
 * path of a store entering the SecPB -- versus *late* -- when the entry
 * drains, or post-crash on battery power. Scheme names list the
 * components deferred to late time: e.g. BCM defers Bmt root, Ciphertext,
 * and Mac; COBCM defers everything (Counter, Otp, Bmt, Ciphertext, Mac).
 *
 * The zoo designs differ from the paper's six along one mechanics column
 * each, not along new mechanics:
 *
 *  - sp:     PLP-style strict persistency -- the ADR WPQ, not the SecPB,
 *    is the persist domain (`wpqPersistDomain`).
 *  - secpm:  SecPM's counter write-through (Zuo/Hua/Xie) -- the counter
 *    cache writes through to PCM so data+counter persist atomically; the
 *    BMT stays lazy (`counterWriteThrough`).
 *  - triad:  Triad-NVM's selective BMT persistence (Awad et al.) -- only
 *    the lowest N tree levels are persisted (knob: `triad:levels=N`);
 *    recovery rebuilds the volatile upper tree, trading recovery time
 *    against runtime/battery cost (`partialBmtPersist`).
 *  - eadr:   the eADR-ideal baseline -- the battery flushes the *entire*
 *    cache hierarchy at crash time, so runtime is COBCM-lazy but the
 *    provisioned battery must cover the hierarchy footprint (priced via
 *    the sEADR row of the energy model) (`flushesHierarchy`).
 *  - stream: Freij/Zhou/Solihin "Streamlining Integrity Tree Updates" --
 *    NoGap-strict BMT security, but the store unblocks at pipelined walk
 *    *issue* (coalesced root updates retire in the background)
 *    (`streamlinedIssue`).
 */

#ifndef SECPB_SECPB_SCHEME_HH
#define SECPB_SECPB_SCHEME_HH

#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <string>

#include "sim/logging.hh"

namespace secpb
{

/** Evaluated persistency schemes; each indexes its SchemeTable row. */
enum class Scheme
{
    Bbb,    ///< Insecure battery-backed buffer baseline (HPCA'21).
    Sp,     ///< Strict persistency with SPoP at the MC (PLP, MICRO'20).
    SecWt,  ///< Write-through security: full tuple per store, no
            ///< once-per-dirty-block coalescing (Fig. 8 normalization).
    NoGap,  ///< Eagerly update all metadata.
    M,      ///< Defer MAC.
    Cm,     ///< Defer ciphertext, MAC.
    Bcm,    ///< Defer BMT root, ciphertext, MAC.
    Obcm,   ///< Defer OTP, BMT root, ciphertext, MAC.
    Cobcm,  ///< Defer everything; only the data write is early.
    Secpm,  ///< SecPM: counter write-through, data+counter atomicity.
    Triad,  ///< Triad-NVM: persist BMT levels < N, rebuild the rest.
    Eadr,   ///< eADR-ideal: battery flushes the whole cache hierarchy.
    Stream, ///< Streamlined BMT: strict tree, unblock at walk issue.
};

/** Scheme parameters carried alongside the enum (the zoo's knobs). */
struct SchemeParams
{
    /**
     * Triad-NVM only: number of lowest BMT node levels persisted at
     * drain/crash time (`triad:levels=N`). Levels >= N are rebuilt at
     * recovery. Must be >= 1 -- level 0 (the counter-block digests'
     * parents) anchors the persisted frontier.
     */
    unsigned triadLevels = 2;
};

/** One row of the scheme table: every per-scheme fact. */
struct SchemeTraits
{
    Scheme scheme;        ///< The enumerator this row describes.
    const char *name;     ///< Canonical (lowercase) CLI/JSON name.
    bool secure;          ///< Any security metadata at all.
    bool earlyCounter;    ///< Counter fetched+incremented at store persist.
    bool earlyOtp;        ///< One-time pad generated at store persist.
    bool earlyBmt;        ///< BMT root updated at store persist.
    bool earlyCiphertext; ///< Ciphertext regenerated per store.
    bool earlyMac;        ///< MAC regenerated per store.
    /**
     * Apply the Section IV-A optimization: data-value-independent metadata
     * (counter, OTP, BMT root) is produced once per dirty block rather than
     * once per store. On for every scheme except the write-through
     * strawmen.
     */
    bool coalesceValueIndependent;
    /**
     * The ADR WPQ, not the SecPB, is the persist domain: stores persist
     * on WPQ arrival, and the crash drain completes the pending tuples
     * instead of entries.
     */
    bool wpqPersistDomain;
    /**
     * Counter updates write through to PCM: the counter-cache block stays
     * clean, so crashes never lose counters, at a per-update PCM write.
     */
    bool counterWriteThrough;
    /**
     * Only the lowest min(SchemeParams::triadLevels, tree levels) BMT
     * levels persist: written through at drain, walked at crash; recovery
     * rebuilds the volatile levels above them.
     */
    bool partialBmtPersist;
    /** The battery flushes the whole cache hierarchy at crash time. */
    bool flushesHierarchy;
    /**
     * An early tree update only gates the store unblock on pipelined walk
     * *issue*; the coalesced root update retires in the background.
     */
    bool streamlinedIssue;
};

/**
 * The scheme table, indexed by Scheme. Columns: secure; the five early
 * bits (counter, OTP, BMT root, ciphertext, MAC); coalesceValueIndependent;
 * then the mechanics columns wpqPersistDomain, counterWriteThrough,
 * partialBmtPersist, flushesHierarchy, streamlinedIssue.
 */
constexpr SchemeTraits SchemeTable[] = {
    //                         sec ctr otp bmt ct mac coal wpq wtc tri hie str
    {Scheme::Bbb,    "bbb",    0,  0,  0,  0,  0, 0,  1,   0,  0,  0,  0,  0},
    {Scheme::Sp,     "sp",     1,  1,  1,  1,  1, 1,  0,   1,  0,  0,  0,  0},
    {Scheme::SecWt,  "sec_wt", 1,  1,  1,  1,  1, 1,  0,   0,  0,  0,  0,  0},
    {Scheme::NoGap,  "nogap",  1,  1,  1,  1,  1, 1,  1,   0,  0,  0,  0,  0},
    {Scheme::M,      "m",      1,  1,  1,  1,  1, 0,  1,   0,  0,  0,  0,  0},
    {Scheme::Cm,     "cm",     1,  1,  1,  1,  0, 0,  1,   0,  0,  0,  0,  0},
    {Scheme::Bcm,    "bcm",    1,  1,  1,  0,  0, 0,  1,   0,  0,  0,  0,  0},
    {Scheme::Obcm,   "obcm",   1,  1,  0,  0,  0, 0,  1,   0,  0,  0,  0,  0},
    {Scheme::Cobcm,  "cobcm",  1,  0,  0,  0,  0, 0,  1,   0,  0,  0,  0,  0},
    // Everything early except the BMT root: the write-through counter
    // persists with the data; the tree is the one lazy component.
    {Scheme::Secpm,  "secpm",  1,  1,  1,  0,  1, 1,  1,   0,  1,  0,  0,  0},
    // BCM-like runtime: counter+OTP early, tree/ciphertext/MAC late.
    {Scheme::Triad,  "triad",  1,  1,  1,  0,  0, 0,  1,   0,  0,  1,  0,  0},
    // COBCM-lazy runtime; the battery covers the whole hierarchy.
    {Scheme::Eadr,   "eadr",   1,  0,  0,  0,  0, 0,  1,   0,  0,  0,  1,  0},
    // NoGap-strict tuple, but the walk only gates at pipe issue.
    {Scheme::Stream, "stream", 1,  1,  1,  1,  1, 1,  1,   0,  0,  0,  0,  1},
};

constexpr bool
schemeTableInEnumOrder()
{
    for (std::size_t i = 0; i < std::size(SchemeTable); ++i)
        if (SchemeTable[i].scheme != static_cast<Scheme>(i))
            return false;
    return std::size(SchemeTable) ==
           static_cast<std::size_t>(Scheme::Stream) + 1;
}
static_assert(schemeTableInEnumOrder(),
              "SchemeTable row i must describe enumerator i, one per scheme");

/** The table row for @p s. */
constexpr const SchemeTraits &
schemeTraits(Scheme s)
{
    return SchemeTable[static_cast<std::size_t>(s)];
}

/** Canonical (lowercase) scheme name, used in CLI and JSON. */
constexpr const char *
schemeName(Scheme s)
{
    return schemeTraits(s).name;
}

/** Comma-separated list of every canonical scheme name. */
inline std::string
allSchemeNames()
{
    std::string out;
    for (const SchemeTraits &row : SchemeTable) {
        if (!out.empty())
            out += ", ";
        out += row.name;
    }
    return out;
}

/**
 * Parse a scheme spec: a canonical name or a parameterized form
 * (`triad:levels=N`, stored into @p params when non-null). Fatal --
 * listing every valid name -- on anything else.
 */
inline Scheme
parseSchemeSpec(const std::string &spec, SchemeParams *params = nullptr)
{
    const std::string::size_type colon = spec.find(':');
    const std::string name = spec.substr(0, colon);

    Scheme parsed = Scheme::Bbb;
    bool found = false;
    for (const SchemeTraits &row : SchemeTable) {
        if (name == row.name) {
            parsed = row.scheme;
            found = true;
            break;
        }
    }
    fatal_if(!found,
             "unknown scheme name '%s' (valid: %s; triad accepts "
             "'triad:levels=N')",
             spec.c_str(), allSchemeNames().c_str());

    if (colon != std::string::npos) {
        const std::string tail = spec.substr(colon + 1);
        fatal_if(!schemeTraits(parsed).partialBmtPersist,
                 "scheme '%s' takes no parameters (got '%s')",
                 schemeName(parsed), spec.c_str());
        const char *prefix = "levels=";
        fatal_if(tail.rfind(prefix, 0) != 0,
                 "bad triad spec '%s' (expected 'triad:levels=N')",
                 spec.c_str());
        char *end = nullptr;
        const std::string num = tail.substr(std::string(prefix).size());
        const unsigned long levels =
            std::strtoul(num.c_str(), &end, 10);
        // strtoul skips blanks and takes a sign: demand a digit first.
        fatal_if(!std::isdigit(static_cast<unsigned char>(num[0])) ||
                     *end != '\0' || levels < 1 || levels > 64,
                 "bad triad level count in '%s' (need 1 <= N <= 64)",
                 spec.c_str());
        if (params)
            params->triadLevels = static_cast<unsigned>(levels);
    }
    return parsed;
}

/** Parse a bare scheme name (no parameters). */
inline Scheme
parseScheme(const std::string &name)
{
    return parseSchemeSpec(name, nullptr);
}

/** Display label for (scheme, params): "triad:levels=N" or the name. */
inline std::string
schemeSpecName(Scheme s, const SchemeParams &params)
{
    if (schemeTraits(s).partialBmtPersist)
        return std::string(schemeName(s)) + ":levels=" +
               std::to_string(params.triadLevels);
    return schemeName(s);
}

/** The paper's six SecPB schemes, laziest first (for paper sweeps). */
constexpr Scheme SecPbSchemes[] = {
    Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm,
    Scheme::Cm, Scheme::M, Scheme::NoGap,
};

/**
 * The full secure scheme zoo, laziest first: the paper's six plus the
 * four related-work designs. This is the sweep list for the fault soak
 * and the widened-spectrum benches (soak trials map scheme = trial mod
 * std::size(SchemeZoo)).
 */
constexpr Scheme SchemeZoo[] = {
    Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm,
    Scheme::Cm, Scheme::M, Scheme::NoGap,
    Scheme::Secpm, Scheme::Triad, Scheme::Eadr, Scheme::Stream,
};

} // namespace secpb

#endif // SECPB_SECPB_SCHEME_HH

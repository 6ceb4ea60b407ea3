/**
 * @file
 * Multi-core SecPB coherence (paper Section IV-C) -- page directory and
 * per-core admission gates for the epoch-barrier engine.
 *
 * With one SecPB per core, two kinds of state must never be replicated:
 *
 *  - security metadata: normally memory-side (no replication possible),
 *    but eager schemes keep counters/MACs inside SecPB entries. The
 *    directory tracks which core may hold metadata for a page; a miss in
 *    another core *migrates* the entries rather than copying them.
 *  - data blocks: a remote read sends the datum from the owner and
 *    triggers a flush of the owner's SecPB entries to PM (read case); a
 *    remote write migrates the SecPB entries to the writer (write case).
 *    Migration moves the data-value-independent metadata with the
 *    entries, so the receiving core does not redo counter/OTP/BMT work.
 *
 * Tracking is page-granular because that is the security-metadata
 * granule: one split-counter block and one BMT leaf cover a 4 KB page,
 * so ownership of a page is exactly the right to mutate that page's
 * counter block and leaf.
 *
 * Epoch contract (this is what makes the epoch engine deterministic):
 *
 *  - during an epoch, the owner map is READ-ONLY: a slice sees the
 *    ownership the last barrier left, whatever the other slices do;
 *  - a CoherenceGate belongs to one core and is touched only by that
 *    core's slice during an epoch (allows() files requests into
 *    per-gate storage);
 *  - all mutation (ownership transfer, stop marks, request retirement)
 *    happens at epoch barriers, in canonical
 *    (requestTick, coreId, perGateSeq) order.
 */

#ifndef SECPB_SECPB_COHERENCE_HH
#define SECPB_SECPB_COHERENCE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "crypto/counters.hh"
#include "mem/flat_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace secpb
{

/** Core identifier. */
using CoreId = unsigned;

/** Sentinel: no SecPB holds the page. */
constexpr CoreId NoOwner = ~0u;

/** Page index of a data address (counter-block / BMT-leaf granule). */
inline std::uint64_t
coherencePage(Addr addr)
{
    return addr / PageSize;
}

/**
 * One denied store admission, filed by a CoherenceGate for its core.
 * Barriers grant requests in (tick, core, seq) order; tick is the slice
 * time of the *first* denial for the page, seq the per-gate filing
 * order -- both are pure functions of the simulated run.
 */
struct PageRequest
{
    std::uint64_t page = 0;
    Tick tick = 0;
    std::uint64_t seq = 0;
};

/**
 * Which core may write each page (owner) and which core's durable state
 * (PM image, counter store, BMT leaf, persist oracle) holds the page
 * (residence). Ownership moves on write misses and clears on remote
 * reads; residence is sticky -- it moves only when ownership is granted
 * to a different core, so at any quiescent point exactly one slice can
 * verify the page end to end.
 */
class PageDirectory
{
  public:
    PageDirectory(unsigned num_cores, StatGroup &parent)
        : _numCores(num_cores),
          _stats("secpb_directory", &parent),
          statMigrations(_stats, "migrations",
                         "page ownership transfers between SecPBs"),
          statRemoteReadFlushes(_stats, "remote_read_flushes",
                                "pages flushed by remote reads"),
          statFirstTouches(_stats, "first_touches",
                           "pages claimed unowned (no transfer needed)")
    {
        fatal_if(num_cores == 0, "directory needs >= 1 core");
    }

    unsigned numCores() const { return _numCores; }

    /** Which core's SecPB may write the page containing @p addr. */
    CoreId
    owner(Addr addr) const
    {
        return ownerOfPage(coherencePage(addr));
    }

    CoreId
    ownerOfPage(std::uint64_t page) const
    {
        const CoreId *c = _owner.find(page);
        return c ? *c : NoOwner;
    }

    /** Which core's durable state holds the page (NoOwner = untouched). */
    CoreId
    residenceOfPage(std::uint64_t page) const
    {
        const CoreId *c = _residence.find(page);
        return c ? *c : NoOwner;
    }

    CoreId
    residence(Addr addr) const
    {
        return residenceOfPage(coherencePage(addr));
    }

    /** @name Barrier-only mutation (serial context). */
    /** @{ */
    void
    setOwner(std::uint64_t page, CoreId core)
    {
        checkCore(core);
        _owner[page] = core;
    }

    void clearOwner(std::uint64_t page) { _owner.erase(page); }

    void
    setResidence(std::uint64_t page, CoreId core)
    {
        checkCore(core);
        _residence[page] = core;
    }
    /** @} */

    /** Pages currently owned by @p core, sorted (canonical order). */
    std::vector<std::uint64_t>
    pagesOwnedBy(CoreId core) const
    {
        std::vector<std::uint64_t> out;
        _owner.forEach([&](const std::uint64_t &page, const CoreId &c) {
            if (c == core)
                out.push_back(page);
        });
        std::sort(out.begin(), out.end());
        return out;
    }

    /** Invariant: every tracked page has an in-range owner/residence. */
    bool
    invariantSingleOwner() const
    {
        bool ok = true;
        auto check = [&](const std::uint64_t &, const CoreId &c) {
            ok = ok && c < _numCores;
        };
        _owner.forEach(check);
        _residence.forEach(check);
        return ok;
    }

    std::size_t numTracked() const { return _owner.size(); }

  private:
    void
    checkCore(CoreId core) const
    {
        panic_if(core >= _numCores, "core id %u out of range", core);
    }

    unsigned _numCores;
    FlatMap<std::uint64_t, CoreId> _owner;
    FlatMap<std::uint64_t, CoreId> _residence;
    StatGroup _stats;

  public:
    Scalar statMigrations;
    Scalar statRemoteReadFlushes;
    Scalar statFirstTouches;
};

/**
 * Per-core store-admission gate. SecPb consults it at the very top of
 * tryAcceptStore(): a store to a page this core does not own (or that a
 * pending transfer has stop-marked) is rejected exactly like a full
 * persist buffer -- the store buffer's existing retry machinery waits
 * for space, and the epoch engine kicks the waiters once the barrier
 * has granted ownership.
 */
class CoherenceGate
{
  public:
    CoherenceGate(PageDirectory &dir, CoreId core)
        : _dir(dir), _core(core)
    {}

    CoreId core() const { return _core; }

    /**
     * May this core accept a store to @p addr right now? On denial the
     * page is filed as a pending request (deduplicated; the first
     * denial's tick orders it at the barrier).
     */
    bool
    allows(Addr addr, Tick now)
    {
        const std::uint64_t page = coherencePage(addr);
        if (_dir.ownerOfPage(page) == _core && !_stopMarks.contains(page))
            return true;
        if (_requested.insert(page))
            _requests.push_back(PageRequest{page, now, _nextSeq++});
        return false;
    }

    /** @name Barrier-side interface (serial context). */
    /** @{ */
    const std::vector<PageRequest> &pending() const { return _requests; }

    /** Retire a granted request (keeps the others, in filing order). */
    void
    retireRequest(std::uint64_t page)
    {
        _requested.erase(page);
        for (std::size_t i = 0; i < _requests.size(); ++i) {
            if (_requests[i].page == page) {
                _requests.erase(_requests.begin() + i);
                return;
            }
        }
    }

    void markStop(std::uint64_t page) { _stopMarks.insert(page); }
    void clearStop(std::uint64_t page) { _stopMarks.erase(page); }
    bool stopMarked(std::uint64_t page) const
    {
        return _stopMarks.contains(page);
    }
    /** @} */

  private:
    PageDirectory &_dir;
    CoreId _core;

    /** Pages with a filed, un-granted request (dedup set). */
    FlatSet<std::uint64_t> _requested;
    std::vector<PageRequest> _requests;
    std::uint64_t _nextSeq = 0;

    /** Owned pages quiescing for a pending transfer: reject new stores. */
    FlatSet<std::uint64_t> _stopMarks;
};

} // namespace secpb

#endif // SECPB_SECPB_COHERENCE_HH

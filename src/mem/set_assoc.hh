/**
 * @file
 * Generic set-associative tag store with LRU replacement.
 *
 * Used for the three security-metadata caches (counter, BMT node, MAC) and
 * by the data-cache model tests. Tag-only: functional payloads live in the
 * PM image / metadata structures; this class answers hit/miss questions and
 * picks victims.
 */

#ifndef SECPB_MEM_SET_ASSOC_HH
#define SECPB_MEM_SET_ASSOC_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace secpb
{

/** Geometry of a set-associative cache. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 128 * 1024;
    unsigned associativity = 8;
    unsigned blockSize = BlockSize;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(associativity) *
                            blockSize);
    }
};

/**
 * Set-associative tag array, true-LRU.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geom)
        : _geom(geom), _numSets(geom.numSets()),
          _ways(_numSets * geom.associativity)
    {
        fatal_if(_numSets == 0, "cache too small for its associativity");
        fatal_if((_numSets & (_numSets - 1)) != 0,
                 "number of cache sets (%llu) must be a power of two",
                 static_cast<unsigned long long>(_numSets));
    }

    /** True if @p addr currently hits; updates LRU on hit. */
    bool
    access(Addr addr)
    {
        Way *way = findWay(blockAlign(addr));
        if (!way)
            return false;
        way->lastUse = ++_useClock;
        return true;
    }

    /** Probe without updating LRU state. */
    bool
    contains(Addr addr) const
    {
        return const_cast<SetAssocCache *>(this)->findWay(blockAlign(addr))
               != nullptr;
    }

    /** An evicted block: its address and whether it was dirty. */
    struct Victim
    {
        Addr addr;
        bool dirty;
    };

    /**
     * Insert @p addr (no-op if present).
     * @return the evicted victim, if a valid block was replaced.
     */
    std::optional<Victim>
    insert(Addr addr)
    {
        const Addr aligned = blockAlign(addr);
        if (Way *way = findWay(aligned)) {
            way->lastUse = ++_useClock;
            return std::nullopt;
        }
        const std::uint64_t set = setIndex(aligned);
        Way *victim = nullptr;
        for (unsigned w = 0; w < _geom.associativity; ++w) {
            Way &cand = _ways[set * _geom.associativity + w];
            if (!cand.valid) {
                victim = &cand;
                break;
            }
            if (!victim || cand.lastUse < victim->lastUse)
                victim = &cand;
        }
        std::optional<Victim> evicted;
        if (victim->valid)
            evicted = Victim{victim->tag, victim->dirty};
        _numDirty -= victim->dirty ? 1 : 0;
        victim->valid = true;
        victim->tag = aligned;
        victim->dirty = false;
        victim->lastUse = ++_useClock;
        return evicted;
    }

    /** Mark @p addr dirty; returns false if not present. */
    bool
    markDirty(Addr addr)
    {
        if (Way *way = findWay(blockAlign(addr))) {
            _numDirty += way->dirty ? 0 : 1;
            way->dirty = true;
            return true;
        }
        return false;
    }

    /** Mark @p addr clean (written back); returns false if not present. */
    bool
    markClean(Addr addr)
    {
        if (Way *way = findWay(blockAlign(addr))) {
            _numDirty -= way->dirty ? 1 : 0;
            way->dirty = false;
            return true;
        }
        return false;
    }

    /** True if @p addr is present and dirty. */
    bool
    isDirty(Addr addr) const
    {
        const Way *way =
            const_cast<SetAssocCache *>(this)->findWay(blockAlign(addr));
        return way && way->dirty;
    }

    /** Invalidate @p addr if present. @return true if it was present. */
    bool
    invalidate(Addr addr)
    {
        if (Way *way = findWay(blockAlign(addr))) {
            _numDirty -= way->dirty ? 1 : 0;
            way->valid = false;
            way->dirty = false;
            return true;
        }
        return false;
    }

    /** Invalidate everything. */
    void
    flushAll()
    {
        for (Way &w : _ways) {
            w.valid = false;
            w.dirty = false;
        }
        _numDirty = 0;
    }

    /** Addresses of all valid (optionally only dirty) blocks. */
    std::vector<Addr>
    residentBlocks(bool dirty_only = false) const
    {
        std::vector<Addr> out;
        for (const Way &w : _ways)
            if (w.valid && (!dirty_only || w.dirty))
                out.push_back(w.tag);
        return out;
    }

    std::uint64_t numSets() const { return _numSets; }
    const CacheGeometry &geometry() const { return _geom; }

    std::uint64_t
    numValid() const
    {
        std::uint64_t n = 0;
        for (const Way &w : _ways)
            n += w.valid ? 1 : 0;
        return n;
    }

    /** residentBlocks(true).size(), kept current by every mutator: the
     *  adaptive drain policy prices the dirty count on every accept. */
    std::uint64_t numDirty() const { return _numDirty; }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = InvalidAddr;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t
    setIndex(Addr aligned) const
    {
        return (aligned / _geom.blockSize) & (_numSets - 1);
    }

    Way *
    findWay(Addr aligned)
    {
        const std::uint64_t set = setIndex(aligned);
        for (unsigned w = 0; w < _geom.associativity; ++w) {
            Way &way = _ways[set * _geom.associativity + w];
            if (way.valid && way.tag == aligned)
                return &way;
        }
        return nullptr;
    }

    CacheGeometry _geom;
    std::uint64_t _numSets;
    std::vector<Way> _ways;
    std::uint64_t _useClock = 0;
    std::uint64_t _numDirty = 0;
};

} // namespace secpb

#endif // SECPB_MEM_SET_ASSOC_HH

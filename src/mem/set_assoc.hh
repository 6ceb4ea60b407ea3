/**
 * @file
 * Generic set-associative tag store with LRU replacement.
 *
 * Used for the three security-metadata caches (counter, BMT node, MAC);
 * the data caches have no tags, since the workload profile draws load
 * latency directly. Tag-only: functional payloads live in the PM image /
 * metadata structures; this class answers hit/miss questions and picks
 * victims.
 */

#ifndef SECPB_MEM_SET_ASSOC_HH
#define SECPB_MEM_SET_ASSOC_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
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
 *
 * Each set keeps a valid mask (bit w = way w holds a block) over way
 * storage that is never initialised: a way is read only while its mask
 * bit is set, so building a cache costs one zeroed word per set however
 * many ways it has.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geom)
        : _geom(geom), _numSets(geom.numSets()),
          _blockShift(static_cast<unsigned>(std::countr_zero(geom.blockSize))),
          _valid(_numSets),
          _ways(std::make_unique_for_overwrite<Way[]>(_numSets *
                                                      geom.associativity))
    {
        fatal_if(_numSets == 0, "cache too small for its associativity");
        fatal_if((_numSets & (_numSets - 1)) != 0,
                 "number of cache sets (%llu) must be a power of two",
                 static_cast<unsigned long long>(_numSets));
        fatal_if(!std::has_single_bit(geom.blockSize),
                 "cache block size (%u) must be a power of two",
                 geom.blockSize);
        fatal_if(geom.associativity > 64,
                 "associativity %u exceeds the 64-way valid mask",
                 geom.associativity);
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
     * Insert @p addr (no-op if present). Fills the lowest free way;
     * with none free, evicts the LRU block.
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
        Way *ways = setWays(set);
        unsigned w = static_cast<unsigned>(std::countr_one(_valid[set]));
        std::optional<Victim> evicted;
        if (w >= _geom.associativity) {
            w = 0;
            std::uint64_t oldest = ways[0].lastUse;
            for (unsigned c = 1; c < _geom.associativity; ++c) {
                if (ways[c].lastUse < oldest) {
                    oldest = ways[c].lastUse;
                    w = c;
                }
            }
            evicted = Victim{ways[w].tag, ways[w].dirty};
            _numDirty -= ways[w].dirty ? 1 : 0;
        }
        _valid[set] |= std::uint64_t{1} << w;
        ways[w] = Way{aligned, ++_useClock, false};
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
        const Addr aligned = blockAlign(addr);
        if (Way *way = findWay(aligned)) {
            _numDirty -= way->dirty ? 1 : 0;
            const std::uint64_t set = setIndex(aligned);
            _valid[set] &= ~(std::uint64_t{1} << (way - setWays(set)));
            return true;
        }
        return false;
    }

    /** Invalidate everything. */
    void
    flushAll()
    {
        std::fill(_valid.begin(), _valid.end(), std::uint64_t{0});
        _numDirty = 0;
    }

    /**
     * Addresses of all valid (optionally only dirty) blocks, set by set
     * and way by way in ascending order.
     */
    std::vector<Addr>
    residentBlocks(bool dirty_only = false) const
    {
        std::vector<Addr> out;
        for (std::uint64_t set = 0; set < _numSets; ++set) {
            const Way *ways = &_ways[set * _geom.associativity];
            for (std::uint64_t m = _valid[set]; m; m &= m - 1) {
                const Way &way = ways[std::countr_zero(m)];
                if (!dirty_only || way.dirty)
                    out.push_back(way.tag);
            }
        }
        return out;
    }

    /**
     * Mark clean the first @p max_blocks dirty blocks in
     * residentBlocks(true) order, handing each address to
     * @p write_back first. Walks the valid masks in place and stops at
     * the last block it cleans.
     * @return the number of blocks cleaned.
     */
    template <typename F>
    std::size_t
    cleanDirty(std::size_t max_blocks, F &&write_back)
    {
        std::size_t cleaned = 0;
        for (std::uint64_t set = 0;
             set < _numSets && cleaned < max_blocks && _numDirty > 0; ++set) {
            Way *ways = setWays(set);
            for (std::uint64_t m = _valid[set]; m && cleaned < max_blocks;
                 m &= m - 1) {
                Way &way = ways[std::countr_zero(m)];
                if (!way.dirty)
                    continue;
                write_back(way.tag);
                way.dirty = false;
                --_numDirty;
                ++cleaned;
            }
        }
        return cleaned;
    }

    std::uint64_t numSets() const { return _numSets; }
    const CacheGeometry &geometry() const { return _geom; }

    std::uint64_t
    numValid() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t mask : _valid)
            n += static_cast<std::uint64_t>(std::popcount(mask));
        return n;
    }

    /** residentBlocks(true).size(), kept current by every mutator: the
     *  adaptive drain policy prices the dirty count on every accept. */
    std::uint64_t numDirty() const { return _numDirty; }

  private:
    /** Meaningful only while its set's valid bit is on. */
    struct Way
    {
        Addr tag;
        std::uint64_t lastUse;
        bool dirty;
    };

    std::uint64_t
    setIndex(Addr aligned) const
    {
        return (aligned >> _blockShift) & (_numSets - 1);
    }

    Way *
    setWays(std::uint64_t set)
    {
        return &_ways[set * _geom.associativity];
    }

    Way *
    findWay(Addr aligned)
    {
        const std::uint64_t set = setIndex(aligned);
        Way *ways = setWays(set);
        const std::uint64_t valid = _valid[set];
        for (unsigned w = 0; w < _geom.associativity; ++w)
            if ((valid >> w & 1) && ways[w].tag == aligned)
                return &ways[w];
        return nullptr;
    }

    CacheGeometry _geom;
    std::uint64_t _numSets;
    unsigned _blockShift;
    std::vector<std::uint64_t> _valid;
    std::unique_ptr<Way[]> _ways;
    std::uint64_t _useClock = 0;
    std::uint64_t _numDirty = 0;
};

} // namespace secpb

#endif // SECPB_MEM_SET_ASSOC_HH

/**
 * @file
 * Timed security-metadata cache (counter / BMT-node / MAC caches).
 *
 * Table I: each is 128 KB, 8-way, 64 B blocks, 2-cycle access, volatile,
 * and lives memory-side in the MC, so no coherence with core caches is
 * needed. A miss fetches the metadata block from PCM (occupying a bank) and
 * allocates; dirty evictions of *counters and MACs* must be written back to
 * PCM -- unlike data blocks, which the SecPB design silently discards, the
 * metadata cache is not backed by a persist guarantee once an entry has
 * been drained, so written-back metadata is the persistent copy. BMT
 * interior nodes are recomputable from counters and are treated as clean.
 */

#ifndef SECPB_METADATA_METADATA_CACHE_HH
#define SECPB_METADATA_METADATA_CACHE_HH

#include "mem/pcm.hh"
#include "mem/set_assoc.hh"
#include "stats/stats.hh"

namespace secpb
{

/** Timed metadata cache in front of PCM. */
class MetadataCache
{
  public:
    MetadataCache(const char *name, const CacheGeometry &geom,
                  Cycles hit_latency, PcmModel &pcm, StatGroup &parent,
                  bool writeback_dirty = true)
        : _tags(geom), _hitLatency(hit_latency), _pcm(pcm),
          _writebackDirty(writeback_dirty),
          _stats(name, &parent),
          statHits(_stats, "hits", "metadata cache hits"),
          statMisses(_stats, "misses", "metadata cache misses"),
          statWritebacks(_stats, "writebacks",
                         "dirty metadata blocks written back to PCM")
    {}

    /**
     * Read access: returns the latency to obtain the metadata block,
     * occupying a PCM bank on a miss. LRU and contents are updated.
     */
    Cycles
    readAccess(Addr addr)
    {
        if (_tags.access(addr)) {
            ++statHits;
            return _hitLatency;
        }
        ++statMisses;
        TRACE_INSTANT(_stats.name(), "miss", _pcm.now());
        const Cycles fetch = _pcm.readOccupy(addr);
        handleFill(addr);
        return _hitLatency + fetch;
    }

    /**
     * Write access (update-in-place): fetches on miss like a read, then
     * marks the block dirty. Returns the access latency.
     */
    Cycles
    writeAccess(Addr addr)
    {
        const Cycles lat = readAccess(addr);
        _tags.markDirty(addr);
        return lat;
    }

    /**
     * Write-through access (SecPM-style): fetches on miss like a read,
     * then writes the updated block straight to PCM. The cached copy
     * stays *clean* -- the persistent copy is always current, so a crash
     * never owes a flush for this block. Returns the access latency
     * including the PCM write occupancy.
     */
    Cycles
    writeThroughAccess(Addr addr)
    {
        const Cycles lat = readAccess(addr);
        ++statWritebacks;
        const Cycles wr = _pcm.writeOccupy(addr);
        _tags.markClean(addr);
        return lat + wr;
    }

    /** Probe without side effects. */
    bool contains(Addr addr) const { return _tags.contains(addr); }

    /** Invalidate a block (coherence with SecPB-resident metadata). */
    void invalidate(Addr addr) { _tags.invalidate(addr); }

    /** Dirty blocks currently resident (crash-work pricing). */
    std::uint64_t numDirty() const { return _tags.numDirty(); }

    /**
     * Write back up to @p max_blocks dirty blocks to PCM and mark them
     * clean, without evicting. This is the powered write-through
     * degradation the adaptive drain policy uses when battery headroom
     * cannot cover the mandatory crash-time flush of this cache's dirt.
     * @return the number of blocks cleaned.
     */
    std::size_t
    cleanDirty(std::size_t max_blocks)
    {
        return _tags.cleanDirty(max_blocks, [this](Addr addr) {
            ++statWritebacks;
            _pcm.writeOccupy(addr);
        });
    }

    /** Drop everything (post-crash restart). */
    void flushAll() { _tags.flushAll(); }

    double hitRate() const
    {
        const double total = statHits.value() + statMisses.value();
        return total > 0 ? statHits.value() / total : 0.0;
    }

  private:
    void
    handleFill(Addr addr)
    {
        auto evicted = _tags.insert(addr);
        if (evicted && evicted->dirty && _writebackDirty) {
            ++statWritebacks;
            _pcm.writeOccupy(evicted->addr);
        }
    }

    SetAssocCache _tags;
    Cycles _hitLatency;
    PcmModel &_pcm;
    bool _writebackDirty;
    StatGroup _stats;

  public:
    Scalar statHits;
    Scalar statMisses;
    Scalar statWritebacks;
};

} // namespace secpb

#endif // SECPB_METADATA_METADATA_CACHE_HH

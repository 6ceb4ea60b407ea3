/**
 * @file
 * The core-side data cache hierarchy (Table I: 64 KB L1D / 512 KB L2 /
 * 4 MB L3).
 *
 * Under the SecPB design data caches need no writebacks: dirty blocks are
 * guaranteed durable by the persist buffer, so LLC evictions of dirty
 * blocks are silently discarded like clean ones (paper Section IV-C(a)).
 * The hierarchy here is therefore a read-side structure: loads probe
 * L1 -> L2 -> L3 -> PM with inclusive fills; stores allocate in L1 in
 * parallel with their SecPB access.
 *
 * Two load-path modes exist in the CPU: the default *statistical* mode
 * (hit levels drawn from the benchmark profile, used by the calibrated
 * paper reproductions) and the *address-driven* mode, where generators
 * emit load addresses and hit levels emerge from these tags.
 */

#ifndef SECPB_MEM_DATA_HIERARCHY_HH
#define SECPB_MEM_DATA_HIERARCHY_HH

#include "cpu/trace_op.hh"
#include "mem/pcm.hh"
#include "mem/set_assoc.hh"
#include "stats/stats.hh"

namespace secpb
{

/** Geometry and latencies of the three-level data hierarchy (Table I). */
struct DataHierarchyConfig
{
    CacheGeometry l1{64 * 1024, 8, 64};
    CacheGeometry l2{512 * 1024, 16, 64};
    CacheGeometry l3{4 * 1024 * 1024, 32, 64};
    Cycles l1Latency = 2;
    Cycles l2Latency = 20;
    Cycles l3Latency = 30;

    /** Capacity of all three levels: what an eADR battery flushes. */
    std::uint64_t
    totalBytes() const
    {
        return l1.sizeBytes + l2.sizeBytes + l3.sizeBytes;
    }
};

/** Result of a load probe. */
struct LoadOutcome
{
    MemLevel level;
    Cycles latency;   ///< Cumulative access latency to the hit level.
};

/** Three-level inclusive data cache hierarchy. */
class DataHierarchy
{
  public:
    DataHierarchy(const DataHierarchyConfig &cfg, PcmModel &pcm,
                  StatGroup &parent)
        : _cfg(cfg), _l1(cfg.l1), _l2(cfg.l2), _l3(cfg.l3), _pcm(pcm),
          _stats("dcache", &parent),
          statL1Hits(_stats, "l1_hits", "loads hitting in L1D"),
          statL2Hits(_stats, "l2_hits", "loads hitting in L2"),
          statL3Hits(_stats, "l3_hits", "loads hitting in L3"),
          statMemLoads(_stats, "mem_loads", "loads going to PM"),
          statStoreAllocs(_stats, "store_allocs",
                          "store blocks allocated in L1D")
    {}

    /**
     * Probe the hierarchy for a load to @p addr; fills all levels on the
     * way back (inclusive). PM misses occupy a PCM bank.
     */
    LoadOutcome
    load(Addr addr)
    {
        if (_l1.access(addr)) {
            ++statL1Hits;
            return {MemLevel::L1, _cfg.l1Latency};
        }
        if (_l2.access(addr)) {
            ++statL2Hits;
            fill(_l1, addr);
            return {MemLevel::L2, _cfg.l1Latency + _cfg.l2Latency};
        }
        if (_l3.access(addr)) {
            ++statL3Hits;
            fill(_l1, addr);
            fill(_l2, addr);
            return {MemLevel::L3,
                    _cfg.l1Latency + _cfg.l2Latency + _cfg.l3Latency};
        }
        ++statMemLoads;
        const Cycles mem = _pcm.readOccupy(addr);
        fill(_l1, addr);
        fill(_l2, addr);
        fill(_l3, addr);
        return {MemLevel::Mem,
                _cfg.l1Latency + _cfg.l2Latency + _cfg.l3Latency + mem};
    }

    /**
     * A retired store allocates its block in L1 (in parallel with the
     * SecPB access; both the paper's hit/miss cases land here). Dirty
     * state is irrelevant: durability is the SecPB's job.
     */
    void
    storeAllocate(Addr addr)
    {
        ++statStoreAllocs;
        fill(_l1, addr);
        fill(_l2, addr);
        fill(_l3, addr);
    }

    bool residentL1(Addr addr) const { return _l1.contains(addr); }
    bool residentL2(Addr addr) const { return _l2.contains(addr); }
    bool residentL3(Addr addr) const { return _l3.contains(addr); }

  private:
    static void
    fill(SetAssocCache &cache, Addr addr)
    {
        // Evictions are silent: dirty blocks in the SecPB design are
        // discarded like clean ones (the persist buffer owns durability).
        cache.insert(addr);
    }

    DataHierarchyConfig _cfg;
    SetAssocCache _l1;
    SetAssocCache _l2;
    SetAssocCache _l3;
    PcmModel &_pcm;
    StatGroup _stats;

  public:
    Scalar statL1Hits;
    Scalar statL2Hits;
    Scalar statL3Hits;
    Scalar statMemLoads;
    Scalar statStoreAllocs;
};

} // namespace secpb

#endif // SECPB_MEM_DATA_HIERARCHY_HH

/**
 * @file
 * Timed BMT update walker -- the leaf-to-root integrity-tree update unit.
 *
 * Latency vs. throughput: a single leaf-to-root update hashes the counter
 * block plus one node per level (8 x 40 cycles for the default tree), and
 * a requester on the critical path (the eager schemes) waits for the full
 * walk. Across requests the walker is pipelined PLP-style [MICRO'20]: each
 * level is a pipeline stage, so back-to-back updates issue one initiation
 * interval apart. Updates to a leaf whose walk is still in flight merge
 * into it (the paper's "avoids collisions between two stores updating
 * common ancestors"); merged requests complete with the in-flight walk and
 * do not count as new root updates -- this is what Fig. 8 measures.
 *
 * Bonsai Merkle Forest (BMF, MICRO'21) support: the walk can be truncated
 * to a reduced height (DBMF: 2 levels; SBMF: 5 levels). The truncated walk
 * terminates at a *subtree root* looked up in a small on-chip root cache
 * (4 KB in the paper's comparison); a miss forces the full-height walk and
 * installs the subtree root.
 */

#ifndef SECPB_METADATA_WALKER_HH
#define SECPB_METADATA_WALKER_HH

#include <memory>

#include "crypto/engine.hh"
#include "mem/flat_map.hh"
#include "metadata/bmt.hh"
#include "metadata/layout.hh"
#include "metadata/metadata_cache.hh"
#include "obs/trace.hh"

namespace secpb
{

/** Bonsai-Merkle-Forest height-reduction mode. */
enum class BmfMode
{
    None,   ///< Full-height BMT.
    Dbmf,   ///< Dynamic forest: updates walk 2 levels.
    Sbmf,   ///< Static forest: updates walk 5 levels.
};

/** Tree levels a DBMF / SBMF update walks. */
inline constexpr unsigned DbmfLevels = 2;
inline constexpr unsigned SbmfLevels = 5;
/** Pipeline initiation interval between independent walks (cycles). */
inline constexpr Cycles WalkInitiationInterval = 40;
/** Geometry of the on-chip subtree-root cache used with BMF. */
inline constexpr CacheGeometry RootCacheGeom{4 * 1024, 4, BlockSize};

/** Configuration of the walker. */
struct WalkerConfig
{
    BmfMode bmfMode = BmfMode::None;
    /** Merge same-leaf updates into in-flight walks (ablation knob:
     *  disabling shows how load-bearing update merging is). */
    bool enableMerging = true;
};

/**
 * The pipelined, merge-capable BMT root update unit.
 *
 * Functional tree updates happen at request time (the simulator is
 * functionally eager, timing-lazy); the scheduled completion models when
 * the hardware root write would retire.
 */
class BmtWalker
{
  public:
    BmtWalker(EventQueue &eq, const WalkerConfig &cfg,
              const MetadataLayout &layout, BonsaiMerkleTree &tree,
              MetadataCache &bmt_cache, PcmModel &pcm,
              const CryptoLatencies &lat, StatGroup &parent)
        : _eq(eq), _cfg(cfg), _layout(layout), _tree(tree),
          _bmtCache(bmt_cache), _pcm(pcm), _lat(lat),
          _stats("bmt", &parent),
          statRootUpdates(_stats, "root_updates",
                          "BMT root update walks performed"),
          statMergedUpdates(_stats, "merged_updates",
                            "update requests merged into in-flight walks"),
          statFullWalks(_stats, "full_walks",
                        "updates that walked the full tree height"),
          statRootCacheHits(_stats, "root_cache_hits",
                            "BMF subtree-root cache hits"),
          statUpdateLatency(_stats, "update_latency",
                            "latency of one root update (cycles)")
    {
        if (_cfg.bmfMode != BmfMode::None)
            _rootCache = std::make_unique<SetAssocCache>(RootCacheGeom);
        // Walks in flight are bounded by walk latency over the initiation
        // interval (~10); reserving well past that kills rehash churn.
        _inFlight.reserve(64);
        _pathScratch.reserve(_tree.numLevels());
    }

    /** Ticks of one update: when the pipe accepts it and when the root
     *  write retires. Merged updates are accepted immediately. */
    struct UpdateTiming
    {
        Tick issue;
        Tick completion;
        bool merged;
    };

    /**
     * Perform (functionally) and time one leaf-to-root update for the
     * counter block covering @p data_addr, whose fresh digest is
     * @p leaf_digest. Fires @p done when the root write would retire.
     * @return the completion tick.
     */
    Tick
    update(Addr data_addr, Digest leaf_digest, EventCallback done = nullptr)
    {
        return updateTimed(data_addr, leaf_digest, std::move(done))
            .completion;
    }

    /** Like update(), returning both the issue and completion ticks. */
    UpdateTiming
    updateTimed(Addr data_addr, Digest leaf_digest,
                EventCallback done = nullptr)
    {
        const std::uint64_t leaf = _layout.pageIndex(data_addr);
        _tree.updateLeaf(leaf, leaf_digest);

        const Tick now = _eq.curTick();

        // Merge into an in-flight walk of the same leaf: the walk has not
        // retired its root write, so it carries this (already functionally
        // applied) digest as well -- and consumes no new pipe slot.
        const Tick *in_flight = _inFlight.find(leaf);
        if (_cfg.enableMerging && in_flight && *in_flight > now) {
            ++statMergedUpdates;
            TRACE_INSTANT("bmt", "merge", now);
            const Tick completion = *in_flight;
            if (done)
                _eq.schedule(completion, std::move(done));
            return UpdateTiming{now, completion, true};
        }

        ++statRootUpdates;
        const Cycles walk = walkLatency(leaf);
        const Tick issue = std::max(now, _pipeReadyAt);
        _pipeReadyAt = issue + WalkInitiationInterval;
        const Tick completion = issue + walk;
        statUpdateLatency.sample(static_cast<double>(completion - now));
        TRACE_SPAN("bmt", "walk", issue, completion);

        _inFlight[leaf] = completion;
        _eq.schedule(completion, [this, leaf, completion] {
            // Erase by key: the completion event may run long after later
            // walks of other leaves grew or back-shifted the table, so a
            // stored pointer would dangle -- re-probe, then check this is
            // still our walk (a merged successor reuses the same slot).
            const Tick *t = _inFlight.find(leaf);
            if (t && *t == completion)
                _inFlight.erase(leaf);
        });

        if (done)
            _eq.schedule(completion, std::move(done));
        return UpdateTiming{issue, completion, false};
    }

    /**
     * Number of levels an update walks under the current BMF mode,
     * assuming a root-cache hit where applicable.
     */
    unsigned
    effectiveLevels() const
    {
        switch (_cfg.bmfMode) {
          case BmfMode::Dbmf:
            return std::min(DbmfLevels, _tree.numLevels());
          case BmfMode::Sbmf:
            return std::min(SbmfLevels, _tree.numLevels());
          case BmfMode::None:
          default:
            return _tree.numLevels();
        }
    }

    std::uint64_t
    rootUpdates() const
    {
        return static_cast<std::uint64_t>(statRootUpdates.value());
    }

    /** Next tick at which the pipeline can accept a new walk. */
    Tick pipeReadyAt() const { return _pipeReadyAt; }

    /** Walks issued but not yet retired (epoch-sampler channel). */
    std::size_t
    inFlightWalks() const
    {
        const Tick now = _eq.curTick();
        std::size_t n = 0;
        _inFlight.forEach([&](const std::uint64_t &, const Tick &t) {
            if (t > now)
                ++n;
        });
        return n;
    }

    /** The functional tree this walker updates. */
    BonsaiMerkleTree &tree() { return _tree; }
    const BonsaiMerkleTree &tree() const { return _tree; }

    /** The BMT node cache (Triad-NVM writes path prefixes through it). */
    MetadataCache &nodeCache() { return _bmtCache; }

  private:
    /** Compute the latency of one walk, probing caches as we go. */
    Cycles
    walkLatency(std::uint64_t leaf)
    {
        unsigned levels = _tree.numLevels();
        bool full_walk = true;

        // One path computation serves both the BMF subroot probe and the
        // level loop; the scratch vector is reused across walks.
        _tree.pathIndices(leaf, _pathScratch);
        const std::vector<std::uint64_t> &path = _pathScratch;

        if (_cfg.bmfMode != BmfMode::None) {
            const unsigned reduced = effectiveLevels();
            const Addr subroot_addr =
                _layout.bmtNodeAddr(reduced - 1, path[reduced - 1]);
            if (_rootCache->access(subroot_addr)) {
                ++statRootCacheHits;
                levels = reduced;
                full_walk = false;
            } else {
                // Miss: a full-height update establishes the subtree
                // root, which is then pinned in the root cache.
                _rootCache->insert(subroot_addr);
            }
        }

        if (full_walk)
            ++statFullWalks;

        Cycles duration = _lat.bmtHash;  // leaf (counter block) hash
        for (unsigned l = 0; l < levels; ++l) {
            const Addr node_addr = _layout.bmtNodeAddr(l, path[l]);
            duration += _bmtCache.readAccess(node_addr);
            duration += _lat.bmtHash;
        }
        return duration;
    }

    EventQueue &_eq;
    WalkerConfig _cfg;
    const MetadataLayout &_layout;
    BonsaiMerkleTree &_tree;
    MetadataCache &_bmtCache;
    PcmModel &_pcm;
    CryptoLatencies _lat;
    std::unique_ptr<SetAssocCache> _rootCache;

    /** Leaf -> completion tick of its in-flight walk. */
    FlatMap<std::uint64_t, Tick> _inFlight;
    Tick _pipeReadyAt = 0;

    /** Reused by walkLatency: the current walk's node path. */
    std::vector<std::uint64_t> _pathScratch;

    StatGroup _stats;

  public:
    Scalar statRootUpdates;
    Scalar statMergedUpdates;
    Scalar statFullWalks;
    Scalar statRootCacheHits;
    Average statUpdateLatency;
};

} // namespace secpb

#endif // SECPB_METADATA_WALKER_HH

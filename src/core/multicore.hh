/**
 * @file
 * Multi-core SecPB machine: one fully private SecPbSystem slice per
 * core, coupled only at epoch barriers.
 *
 * Each core owns a complete machine slice -- TraceCpu, StoreBuffer,
 * SecPB, crypto engine, metadata caches, BMT, WPQ, PCM channel, PM
 * image, persist oracle -- with its own EventQueue. Slices share no
 * mutable state while an epoch runs: all cross-core interaction is
 * deferred to the barrier, which runs in a canonical order.
 *
 * Conservative epoch-barrier protocol (see DESIGN.md):
 *
 *   1. Pick the next barrier tick T on the absolute epoch grid
 *      (multiples of epochTicks, independent of runUntil() slicing).
 *   2. Advance every slice to T, in core order.
 *   3. Process the coherence mailbox serially: every CoherenceGate
 *      rejection filed during the epoch is a PageRequest stamped
 *      (tick, core, seq); requests are granted in that total order.
 *      A page ownership transfer extracts the owner's persist-buffer
 *      entries -- carrying their data-value-independent metadata, per
 *      paper Section IV-C(c) -- and moves the page's durable state
 *      (PM blocks, MACs, counter block, oracle records, BMT leaf) to
 *      the requester's slice. Non-quiescent pages get a stop mark plus
 *      a forced drain, and the request retries at a later barrier.
 *
 * The epoch length (lookahead) is a pure timing knob: any value is
 * *correct* because slices cannot observe each other mid-epoch; it
 * only quantizes when ownership transfers happen. It defaults to the
 * migration latency (floored for efficiency), the natural scale of
 * cross-core events.
 */

#ifndef SECPB_CORE_MULTICORE_HH
#define SECPB_CORE_MULTICORE_HH

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "secpb/coherence.hh"

namespace secpb
{

/** Configuration of the multi-core machine. */
struct MultiCoreConfig
{
    /** Per-core slice configuration (every core gets a copy). */
    SystemConfig base;

    unsigned numCores = 4;

    /** Cycles to hand a PB entry and its page to another core. */
    Cycles migrationLatency = 24;

    /**
     * Epoch (barrier period) in ticks; 0 derives it from
     * migrationLatency. Affects simulated transfer timing (coarser
     * epochs delay ownership grants), never correctness.
     */
    Tick epochTicks = 0;
};

/** Aggregate outcome of a multi-core run. */
struct MultiCoreResult
{
    std::vector<SimulationResult> perCore;
    Tick execTicks = 0;                    ///< Last core's finish tick.
    std::uint64_t totalInstructions = 0;
    std::uint64_t migrations = 0;          ///< Page ownership transfers.
    std::uint64_t remoteReadFlushes = 0;
    std::uint64_t firstTouches = 0;        ///< Cold ownership claims.
};

/**
 * N private machine slices + page directory + epoch-barrier engine.
 */
class MultiCoreSystem
{
  public:
    explicit MultiCoreSystem(const MultiCoreConfig &cfg = {});

    /** Begin executing one generator per core (size must match). */
    void start(std::vector<WorkloadGenerator *> gens);

    /**
     * Advance simulated time to @p limit. Epochs end on the absolute
     * grid, so splitting a run into arbitrary runUntil() calls (e.g.
     * to crash mid-epoch) cannot change behavior.
     */
    void runUntil(Tick limit);

    /** Run all cores to completion and aggregate the results. */
    MultiCoreResult run(std::vector<WorkloadGenerator *> gens);

    /** True once every core retired and drained its store buffer. */
    bool finished() const;

    /**
     * A core loads @p addr that another core may own: the owner's
     * page entries are flushed to PM (timed) and ownership is dropped
     * so the reader observes persisted data. Quiescent-time API (call
     * between run segments, not mid-epoch).
     * @return true if a remote owner was found and flushed.
     */
    bool coreRead(CoreId core, Addr addr);

    /** Crash with the classic unbounded per-core batteries. */
    CrashReport crashNow() { return crashNow(CrashOptions{}); }

    /**
     * Crash every core now. A bounded CrashOptions budget is one
     * shared energy pool: cores drain in core order, each spending
     * from what the previous cores left. Recovery verification runs
     * per slice (each core recovers its resident pages) and the report
     * aggregates work, energy, and verification across cores.
     */
    CrashReport crashNow(const CrashOptions &opts);

    unsigned numCores() const { return static_cast<unsigned>(_slices.size()); }
    Tick now() const { return _now; }
    Tick epochTicks() const { return _epochTicks; }

    /** @name Component access (tests, examples). */
    /** @{ */
    SecPbSystem &slice(unsigned core) { return *_slices.at(core); }
    const SecPbSystem &slice(unsigned core) const { return *_slices.at(core); }
    SecPb &secpb(unsigned core) { return _slices.at(core)->secpb(); }
    StoreBuffer &storeBuffer(unsigned core)
    {
        return _slices.at(core)->storeBuffer();
    }
    TraceCpu &cpu(unsigned core) { return _slices.at(core)->cpu(); }
    PageDirectory &directory() { return _dir; }
    const PageDirectory &directory() const { return _dir; }
    const MultiCoreConfig &config() const { return _cfg; }

    /** The slice holding @p addr's durable state (slice 0 if untouched). */
    SecPbSystem &residentSystem(Addr addr);
    /** @} */

    /** Sum of per-core persist counts (the oracle's view). */
    std::uint64_t totalPersists() const;

    /**
     * No block is resident in two persist buffers, and every resident
     * block's page is owned by the slice holding it.
     */
    bool invariantNoReplication() const;

    /** Dump directory stats plus every slice's stat tree. */
    void dumpStats(std::ostream &os) const;

  private:
    /** Next barrier strictly after @p t on the absolute epoch grid. */
    Tick nextBarrier(Tick t) const
    {
        return (t / _epochTicks + 1) * _epochTicks;
    }

    /** Advance every slice to @p target, in core order. */
    void advanceSlices(Tick target);

    /** Serially grant/defer the epoch's page requests at tick @p T. */
    void processBarrier(Tick T);

    /** Move page @p page's durable state between slices. */
    void movePageState(CoreId from, CoreId to, std::uint64_t page);

    /** Schedule a space-waiter kick in @p core's queue at @p when. */
    void kickCore(CoreId core, Tick when);

    /** True if any slice has pending events or any gate has requests. */
    bool anyWorkPending() const;

    MultiCoreConfig _cfg;
    Tick _epochTicks;
    Tick _now = 0;

    StatGroup _rootStats;
    PageDirectory _dir;
    std::vector<std::string> _sliceNames;
    std::vector<std::unique_ptr<SecPbSystem>> _slices;
    std::vector<std::unique_ptr<CoherenceGate>> _gates;

    bool _started = false;
};

} // namespace secpb

#endif // SECPB_CORE_MULTICORE_HH

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
 * The epoch length (lookahead) is a constant, EpochTicks: the migration
 * latency (the natural scale of cross-core events) floored at 64 ticks
 * for efficiency. Any length would be *correct* because slices cannot
 * observe each other mid-epoch; it only quantizes when ownership
 * transfers happen.
 *
 * One core is the N = 1 case with nothing to be coherent with. The
 * constructor decides it once by attaching no gate, and every other
 * method reads that decision: the slice keeps the base stat root
 * ("system"), there are no barriers (runUntil and run are the slice's
 * own), trace lanes never switch, and dumpStats prints the slice alone.
 * So a one-core machine runs exactly SecPbSystem's event sequence.
 */

#ifndef SECPB_CORE_MULTICORE_HH
#define SECPB_CORE_MULTICORE_HH

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "secpb/coherence.hh"

namespace secpb
{

/** Cycles to hand a PB entry and its page to another core. */
constexpr Cycles MigrationLatency = 24;

/**
 * Epoch (barrier period) in ticks. Affects simulated transfer timing
 * (coarser epochs delay ownership grants), never correctness.
 */
constexpr Tick EpochTicks = std::max<Tick>(MigrationLatency, 64);

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
    /** @p cores slices, each a copy of @p base; see the file comment
     *  for what one core leaves out. */
    MultiCoreSystem(const SystemConfig &base, unsigned cores);

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

    /**
     * Crash every core now. A bounded CrashOptions budget is one
     * shared energy pool: cores drain in core order, each spending
     * from what the previous cores left; unbounded, each core drains
     * from its own battery (its Capacitor, if configured). Recovery
     * verification runs per slice (each core recovers its resident
     * pages) and the report aggregates work, energy, and verification
     * across cores: the budget is the pool, else the sum of the
     * slices' budgets; batteryAfterJ sums the slices' cells. Each
     * slice judges its own drain, and the verdict is the first slice
     * verdict that is not Pass, in core order.
     */
    CrashReport crashNow(const CrashOptions &opts = {});

    unsigned numCores() const { return static_cast<unsigned>(_slices.size()); }
    Tick now() const { return _now; }
    Tick epochTicks() const { return EpochTicks; }

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
        return (t / EpochTicks + 1) * EpochTicks;
    }

    /** One core: no gate was attached, so nothing is coordinated. */
    bool solo() const { return _gates.empty(); }

    /** Record into trace lane @p lane (core i uses lane i; see
     *  obs::Tracer::setLane). A one-core machine never switches. */
    void traceLane(std::size_t lane) const;

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

    /** A gate's page request, tagged with its core for the barrier's
     *  canonical (tick, core, seq) order. */
    struct BarrierRequest
    {
        Tick tick;
        CoreId core;
        std::uint64_t seq;
        std::uint64_t page;
    };

    Tick _now = 0;

    StatGroup _rootStats;
    PageDirectory _dir;
    std::vector<std::string> _sliceNames;
    std::vector<std::unique_ptr<SecPbSystem>> _slices;
    std::vector<std::unique_ptr<CoherenceGate>> _gates;

    /** @name Barrier scratch: cleared per use, storage kept, so a warm
     *  barrier allocates nothing. */
    /** @{ */
    std::vector<BarrierRequest> _barrierReqs;
    std::vector<std::uint64_t> _barrierHandled;  ///< Pages served.
    std::vector<Addr> _pageScratch;  ///< One page's resident entries.
    /** @} */

    bool _started = false;
};

} // namespace secpb

#endif // SECPB_CORE_MULTICORE_HH

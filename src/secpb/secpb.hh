/**
 * @file
 * The Secure Persist Buffer (SecPB) -- the paper's core contribution.
 *
 * SecPB is a small battery-backed buffer next to the L1D that serves as the
 * point of persistency (PoP) for stores. This class implements:
 *
 *  - the BBB-style coalescing buffer with high/low watermark draining;
 *  - every scheme of the scheme table (secpb/scheme.hh): each row splits
 *    the memory-tuple work (counter, OTP, BMT root, ciphertext, MAC)
 *    between store-persist time ("early") and drain/post-crash time
 *    ("late"), and sets the few mechanics columns the related-work zoo
 *    varies (persist domain, counter write-through, BMT persist depth,
 *    hierarchy flush, streamlined walk issue) -- the mechanics read the
 *    row, they are not forked per scheme;
 *  - the Section IV-A optimization: data-value-independent metadata is
 *    produced once per dirty block, not once per store;
 *  - the drain engine, which completes the tuple at the MC and pushes the
 *    data, counter, and MAC blocks through the ADR WPQ;
 *  - battery-powered crash draining (functional), with an accounting of
 *    the work actually performed so the energy model's worst case can be
 *    compared against reality;
 *  - the SP baseline (PLP-style strict persistency with the SPoP at the
 *    MC) and the sec_wt write-through strawman used to normalize Fig. 8.
 *
 * The crash-time half (crash-work model, crash drain, application crash)
 * is in crash_drain.cc.
 *
 * Functional-eager, timing-lazy: functional effects (counter increments,
 * pads, tree updates, PM writes) are applied when the operation is
 * initiated; valid bits and timing events model when the hardware would
 * have finished, which is what gates the store-buffer unblock signal.
 */

#ifndef SECPB_SECPB_SECPB_HH
#define SECPB_SECPB_SECPB_HH

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/cipher.hh"
#include "crypto/engine.hh"
#include "mem/flat_map.hh"
#include "mem/pm_image.hh"
#include "mem/wpq.hh"
#include "metadata/counter_store.hh"
#include "metadata/metadata_cache.hh"
#include "metadata/walker.hh"
#include "pb/entry.hh"
#include "recovery/oracle.hh"
#include "secpb/coherence.hh"
#include "secpb/scheme.hh"
#include "sim/wait_list.hh"
#include "stats/stats.hh"

namespace secpb
{

class Capacitor;
class EnergyModel;

/** SecPB structural configuration (Table I defaults). */
struct SecPbConfig
{
    unsigned numEntries = 32;
    /** Scheme knobs (e.g. triad:levels=N); inert for the paper's six. */
    SchemeParams params;
    double highWatermark = 0.75;   ///< Drain trigger (fraction full).
    double lowWatermark = 0.50;    ///< Drain target (fraction full).
    unsigned drainWidth = 8;       ///< Concurrent drain operations.
};

/** Work performed by the battery after a crash (per-component counts). */
struct CrashWork
{
    std::uint64_t entriesDrained = 0;
    std::uint64_t countersIncremented = 0;
    std::uint64_t counterFetches = 0;   ///< Counter blocks missing on-chip.
    std::uint64_t otpsGenerated = 0;
    std::uint64_t bmtRootUpdates = 0;
    std::uint64_t bmtLevelsWalked = 0;
    std::uint64_t macsComputed = 0;
    std::uint64_t ciphertexts = 0;
    std::uint64_t pmBlockWrites = 0;
    std::uint64_t mdcBlockFlushes = 0;  ///< Dirty metadata-cache blocks.
    /** eADR only: cache-hierarchy lines the battery flushes to PM. */
    std::uint64_t cacheLinesFlushed = 0;
    /** Triad only: volatile upper-tree nodes recomputed at recovery
     *  (runs on mains power -- priced into the recovery window, not the
     *  battery). */
    std::uint64_t bmtNodesRebuilt = 0;

    /** @name Bounded-battery accounting (fault injection). */
    /** @{ */
    /** True if the energy budget ran out before the drain finished. */
    bool batteryExhausted = false;
    /** Energy actually consumed, priced when a budget was supplied. */
    double energySpentJ = 0.0;
    /** The part of energySpentJ charged whatever the budget: the crash
     *  floor plus SP's pending tuples (crashDrainAll). */
    double mandatoryJ = 0.0;
    /** Resident entries completed, in drain (persist) order. */
    std::vector<Addr> drainedBlocks;
    /** In-order suffix of resident entries the battery abandoned. */
    std::vector<AbandonedResidency> abandoned;
    /** Battery-backed store-buffer stores applied / lost to the budget. */
    std::uint64_t absorbedApplied = 0;
    std::uint64_t absorbedLost = 0;
    /** @} */

    /** Sum @p w into this accounting: every count (one CrashLedger row
     *  each, energy/energy_model.hh), the spend, both lists. */
    CrashWork &operator+=(const CrashWork &w);
};

/**
 * The secure persist buffer, its controller FSM, and the drain engine.
 */
class SecPb
{
  public:
    SecPb(EventQueue &eq, Scheme scheme, const SecPbConfig &cfg,
          const MetadataLayout &layout, const SecurityKeys &keys,
          CounterStore &counters, PersistOracle &oracle, PmImage &pm,
          CryptoEngine &crypto, BmtWalker &walker,
          MetadataCache &ctr_cache, MetadataCache &mac_cache,
          WritePendingQueue &wpq, const EnergyModel &energy,
          StatGroup &parent);

    /**
     * Offer the head store of the store buffer to the SecPB.
     *
     * @param addr 8-byte-aligned store address.
     * @param value the 64-bit store value.
     * @param unblocked fired when the buffer can accept the next store
     *        (i.e. when this store's early tuple subset is complete).
     * @return false if the buffer has no room (or, for SP, the WPQ is
     *         full); the caller should notifyOnSpace() and retry.
     */
    bool tryAcceptStore(Addr addr, std::uint64_t value,
                        EventCallback unblocked,
                        std::uint32_t asid = 0);

    /** Register a one-shot callback fired when room frees up. */
    void
    notifyOnSpace(EventCallback cb)
    {
        _spaceWaiters.add(std::move(cb));
    }

    /** Begin draining every entry (clean shutdown); @p done on empty. */
    void drainAll(EventCallback done);

    /**
     * Battery-powered crash drain: functionally complete and persist every
     * resident entry, in persist (allocation) order. Simulated time does
     * not advance -- the battery works while the clock is dead.
     *
     * @p budget_j is the battery's energy in joules, priced by the
     * machine's EnergyModel; unset is an unbounded (ideally provisioned)
     * battery, and then energySpentJ stays 0. With a budget the drain
     * stops at the first entry whose completion no longer fits: the
     * completed entries form an in-order *prefix* of the persist order
     * and the abandoned suffix is recorded so the recovery verifier can
     * check prefix consistency. Under a budget, battery-backed
     * store-buffer stores (newest in the persist order) are applied
     * strictly after every resident entry, rather than coalesced into
     * them.
     *
     * @param absorbed_stores stores still in a battery-backed store
     *        buffer at crash time (Section IV-C(b)): the battery applies
     *        them, in program order, before draining.
     * @return accounting of the work performed.
     */
    CrashWork crashDrainAll(
        const std::vector<std::pair<Addr, std::uint64_t>>
            &absorbed_stores = {},
        std::optional<double> budget_j = std::nullopt);

    /** Application-crash handling policies (paper Section III-B). */
    enum class AppCrashPolicy
    {
        DrainAll,      ///< Drain every entry (the paper's choice: no
                       ///< ASID tags, but less coalescing for others).
        DrainProcess,  ///< Drain only the crashed process's entries
                       ///< (requires ASID-tagged entries).
    };

    /**
     * Handle an application crash for process @p asid under @p policy.
     * Unlike a system crash, the machine keeps running: drained state is
     * persisted functionally and the entries are freed. With DrainAll
     * the ASID is ignored.
     * @return accounting of the work performed.
     */
    CrashWork applicationCrash(std::uint32_t asid, AppCrashPolicy policy);

    /**
     * Predict (without side effects) the work a crash drain right now
     * would perform: every resident entry completed plus the dirty
     * metadata-cache flush. Priced by the energy model, this is the
     * battery headroom probe the epoch sampler exposes.
     */
    CrashWork predictCrashDrainWork() const;

    std::size_t occupancy() const { return _index.size(); }
    bool empty() const { return _index.empty(); }
    Scheme scheme() const { return _traits.scheme; }
    const SecPbConfig &config() const { return _cfg; }

    /**
     * @name Multi-core coherence (paper Section IV-C(c))
     * Each core has its own SecPB; a page directory at the MC ensures a
     * page's entries (and any metadata inside them) live in at most one
     * of them. Admission is gated: a store to a page this core does not
     * own is rejected like a full buffer, and the epoch-barrier engine
     * migrates the page's entries -- carrying their value-independent
     * metadata so the receiving core does not redo counter/OTP/BMT work.
     * A remote read forces the owner to flush the page's entries.
     * @{
     */

    /** Gate store admission on page ownership (epoch engine wiring). */
    void attachGate(CoherenceGate *gate) { _gate = gate; }

    /**
     * Remove the entry for @p addr so it can migrate to another core.
     * Fails (nullopt) while the entry is draining or has early ops in
     * flight -- the requester retries at a later barrier.
     */
    std::optional<PbEntry> extractForMigration(Addr addr);

    /**
     * Install a migrated entry. The caller must have ensured a free
     * slot. The entry keeps its fields and valid bits; it gets a fresh
     * local allocation sequence (drain order is per-buffer).
     */
    void injectMigrated(const PbEntry &entry);

    /**
     * A remote core read @p addr: flush the local entry to PM (timed,
     * through the normal drain machinery) while the datum is forwarded.
     * @return true if an entry was found and its drain started.
     */
    bool flushForRemoteRead(Addr addr);

    /** Free entry slots available for migrated injections. */
    std::size_t freeEntries() const { return _freeList.size(); }

    /**
     * Fill @p out with the resident entry addresses in @p page, sorted
     * (canonical order), from the page's slot masks: one probe, then
     * one index probe per entry; a warm @p out is not reallocated.
     * @return true when the page is quiescent: every entry in it is
     *         extractable (not draining, no ops in flight) and no
     *         SP tuple update for the page is pending -- the condition
     *         under which the page's durable state can move wholesale to
     *         another core.
     */
    bool pageEntries(std::uint64_t page, std::vector<Addr> &out) const;

    /** Every resident entry address, sorted (replication invariants). */
    std::vector<Addr> residentAddrs() const;

    /** The resident entry holding @p addr's block, or nullptr. */
    const PbEntry *
    peekEntry(Addr addr) const
    {
        const std::uint64_t *idx = _index.find(blockAlign(addr));
        return idx ? &_entries[*idx] : nullptr;
    }

    /** True while SP's tuple update for @p addr's block is in flight. */
    bool
    spTuplePending(Addr addr) const
    {
        const PageSlots *p = _pageSlots.find(addr / PageSize);
        return p && (p->spPending & blockBit(addr));
    }

    /** Re-fire the store buffer's space-waiter retries (the epoch engine
     *  schedules this in the slice queue after granting ownership). */
    void kickSpaceWaiters() { _spaceWaiters.wakeAll(); }
    /** @} */

    /**
     * High/low watermark entry counts derived from the config fractions.
     * Always strictly ordered (low < high) even when a tiny buffer makes
     * both fractions derive to the same entry count -- the constructor
     * clamps the low watermark so the drain engine can actually drain.
     */
    unsigned highWatermarkEntries() const { return _highWm; }
    unsigned lowWatermarkEntries() const { return _lowWm; }

    /**
     * @name Adaptive drain policy (pb/adaptive.hh)
     * Couple the drain engine to a live battery: the priced
     * predictCrashDrainWork() probe senses the energy a crash right now
     * would need; the policy tightens the *effective* watermarks to the
     * occupancy the battery can still cover and gates new allocations so
     * the prediction never outgrows deliverableEnergyJ(). The SP
     * baseline is priced too: its crash work is the WPQ-resident queue
     * (one PM block write per pending entry), so a battery sized for SP
     * covers the ADR domain it actually depends on.
     * @{
     */

    /** Turn the policy on, sensing @p battery. */
    void attachBatteryMonitor(const Capacitor &battery);

    /** Committed crash-drain obligation a brownout must not bleed below:
     *  the prediction plus the gate margin (one liveness-floor entry and
     *  one in-flight regeneration -- the allocation the empty-buffer
     *  liveness rule can always admit even on a dead cell). This is the
     *  BBU's protected reserve (SecPbSystem::applyBrownout). */
    double crashReserveEnergyJ() const;

    /** Live occupancy bound; numEntries when the policy is off. */
    unsigned adaptiveOccupancyBoundNow() const;

    /** Watermarks after battery modulation (== static when off). */
    unsigned effectiveHighWatermarkEntries() const;
    unsigned effectiveLowWatermarkEntries() const;
    /** @} */

  private:
    /**
     * Write-through degradation: while the battery cannot cover the
     * committed crash obligation (prediction + gate margin), write dirty
     * counter/MAC cache blocks back to PCM under wall power so the
     * mandatory crash-time MDC flush shrinks. Without this, dirt left
     * behind by drained entries -- which outlives the residency the gate
     * priced -- would grow the crash floor past a sagged cell one
     * liveness-floor admission at a time. No-op when the policy is off.
     */
    void shedMetadataDirt();

    /** Entry for @p addr or nullptr. */
    PbEntry *
    find(Addr addr)
    {
        return const_cast<PbEntry *>(std::as_const(*this).peekEntry(addr));
    }

    /** Start tracking a store acceptance (@p unblocked fires when every
     *  gating op is done). */
    void beginAccept(EventCallback unblocked);

    /** One gating op of the acceptance that retires at @p t (a SecPB
     *  access, SP's pipeline admission). */
    void holdAcceptUntil(PbEntry *e, Tick t);

    /**
     * @name The tuple pipeline
     * The memory tuple's dependency graph -- counter, then {OTP ->
     * ciphertext -> MAC, BMT root} -- stated once, as the stage table
     * Stages. One runner takes a slot through its missing stages; the
     * mode is the slot's state:
     *  - early (a resident entry, not draining): the row's early
     *    stages, each gating the store's unblock signal;
     *  - drain (draining): every missing stage, then finalizeDrain();
     *  - SP (wpqPersistDomain; the slot is a pending tuple at the MC):
     *    every stage, then persistSp();
     *  - functional (crash drain, application crash, SP's persist):
     *    every missing stage's effect, with no clock
     *    (persistFunctionally()).
     * A stage is requested when its dependency completes, with one
     * exception: the counter's latency is known when it is issued, so
     * its dependants are counted then and requested by its completion
     * event, after it retires. Continuations capture (this, slot) and
     * stay inline in their callbacks. A page re-encryption
     * re-applies the effects of the valid stages that derive from the
     * counter; addEntryWork() prices the missing ones from the table's
     * crash-work column.
     * @{
     */

    /** Tuple stages, in dependency (and issue) order. */
    enum class Stage : std::uint8_t { Counter, Otp, Ciphertext, Mac, Bmt };

    /** Where a stage's latency comes from. */
    enum class Unit : std::uint8_t
    {
        CounterAccess, ///< bumpCounter(): counter-cache access + increment.
        Aes,           ///< The AES pad pipeline.
        Xor,           ///< generateCiphertext(): a fixed XOR delay.
        MacUnit,       ///< The MAC unit, then the MAC-cache write.
        Walker,        ///< The BMT walker (it applies the leaf itself).
    };

    /** One row of the stage table. */
    struct StageRow
    {
        Stage stage;
        Stage dep;                        ///< Counter: itself (none).
        bool PbEntry::*done;              ///< Functional valid bit.
        bool SchemeTraits::*early;        ///< The scheme row's early bit.
        /** Stale once a store changes the plaintext (sec_wt, whose row
         *  does not coalesce, clears every stage instead). */
        bool valueDependent;
        /** Derived from the counter's value: re-applied when a page
         *  re-encryption moves the counter under a valid stage. */
        bool rederived;
        void (SecPb::*effect)(PbEntry &); ///< Functional effect.
        Unit unit;                        ///< Timed latency source.
        std::uint64_t CrashWork::*work;   ///< Crash-work counter.
    };
    static const StageRow Stages[5];
    /** Bit t of Dependants[s] is set when stage t depends on stage s. */
    static const std::array<std::uint8_t, 5> Dependants;

    static constexpr const StageRow &
    row(Stage s)
    {
        return Stages[static_cast<unsigned>(s)];
    }

    /** True for a slot in early mode (its ops gate the unblock). */
    bool
    earlyRun(const PbEntry &e) const
    {
        return !e.draining && !_traits.wpqPersistDomain;
    }

    /** The stage belongs to @p e's run: an early run takes the row's
     *  early stages, a drain or SP run every stage (BBB: none). */
    bool wanted(const PbEntry &e, Stage s) const;

    /**
     * Call @p fn for each wanted, missing stage that can start once
     * @p from is done, in table order: a valid dependant is looked
     * through to its own dependants.
     */
    template <typename Fn>
    void forEachNext(const PbEntry &e, Stage from, Fn &&fn) const;

    /**
     * Start @p slot's run at @p base: issue the counter (the drain and
     * SP always issue it -- it is where the MC work begins), or, when
     * it is not part of the run, the stages whose inputs are valid.
     * @return the counter's completion tick (@p base without one).
     */
    Tick runStages(std::uint64_t slot, Tick base);

    /** Request @p s from its latency source. Only the XOR reads
     *  @p ready; every unit is requested at its ready tick. */
    void request(std::uint64_t slot, Stage s, Tick ready);
    template <Stage S>
    void request(std::uint64_t slot, Tick ready);

    /** Stage @p S of @p slot completed: apply its timed effect, issue
     *  its dependants, retire it. One instance per row, so the row's
     *  columns are constants there. */
    template <Stage S>
    void stageDone(std::uint64_t slot);

    /** A store changed @p e's plaintext: clear the value-dependent
     *  stages, or every stage with @p whole_tuple. */
    void invalidateStages(PbEntry &e, bool whole_tuple);

    /** Hand @p e to the drain engine. */
    void startDrain(PbEntry &e);

    /** @name Functional effects (the table's effect column) */
    /** @{ */
    void incrementInto(PbEntry &e);
    void generatePadInto(PbEntry &e);
    void refreshCiphertext(PbEntry &e);
    void refreshMac(PbEntry &e);
    void updateBmtLeaf(PbEntry &e);
    /** @} */
    /** @} */

    /** A tuple for @p block holding its persist-order content (the
     *  oracle's) and no stage yet. */
    PbEntry oracleEntry(Addr block) const;

    /**
     * SP's tuple for @p block: the oracle plaintext under the block's
     * current counter (a page re-encryption may have moved it since the
     * store was accepted), which the MC has already incremented.
     */
    PbEntry spTuple(Addr block) const;

    /** SP baseline: full tuple update at the MC, per store. */
    bool acceptStoreSp(Addr addr, std::uint64_t value,
                       EventCallback unblocked);

    /** SP: push @p slot's finished tuple through the WPQ (retried while
     *  it is full), persist it and free the slot. */
    void persistSp(std::uint64_t slot);

    /** Functionally complete + persist one entry on battery power,
     *  counting the work into @p work. */
    void completeEntryFunctionally(PbEntry &e, CrashWork &work);

    /** Functional mode: apply every missing stage's effect to @p e,
     *  then write its tuple to PM. */
    void persistFunctionally(PbEntry &e);

    /** Write @p e's data, counter block and MAC (BBB: the plaintext
     *  alone) to the PM image. */
    void writeTuple(const PbEntry &e);

    /**
     * The crash-work model: add to @p w what completing @p e on battery
     * power costs (predicted without side effects, so a bounded battery
     * can price the entry before committing to it). @p ctr_on_chip false
     * prices a counter-block fetch from PM.
     */
    void addEntryWork(const PbEntry &e, bool ctr_on_chip,
                      CrashWork &w) const;

    /** addEntryWork() of a resident entry, against the live counter
     *  cache. */
    void addEntryWork(const PbEntry &e, CrashWork &w) const;

    /**
     * Work every crash owes regardless of occupancy: the dirty
     * metadata-cache flush and, when the row flushes the hierarchy, every
     * cache line.
     */
    CrashWork crashFloorWork() const;

    /** BMT levels the battery persists: the full path, or Triad-NVM's
     *  lowest min(triadLevels, tree levels). */
    unsigned persistedBmtLevels() const;

    /** Functional counter increment + page re-encryption on overflow. */
    BlockCounter incrementCounter(Addr addr);

    /** Fetch @p e's counter through the counter cache and increment it
     *  into the entry; returns the fetch + increment latency. */
    Cycles bumpCounter(PbEntry &e);

    /**
     * Counter-cache update per the row: lazy write-back, or write-through
     * to PCM (SecPM).
     */
    Cycles counterWriteAccess(Addr addr);

    /**
     * Triad-NVM drain cost: write the persisted levels of @p addr's BMT
     * path through the node cache to PCM.
     */
    void persistBmtPathPrefix(Addr addr);

    /** Re-encrypt a page after a minor-counter overflow. */
    void reencryptPage(std::uint64_t page_idx, const CounterBlock &old_cb);

    /** True when the adaptive policy must refuse a new allocation. */
    bool batteryGateBlocksAllocation() const;

    /** Kick the drain engine if the high watermark is reached. */
    void maybeStartDrain();

    /** Drain the oldest drainable entry. */
    void drainNext();

    /** Push data + counter + MAC blocks of @p e through the WPQ. */
    void finalizeDrain(std::uint64_t entry_idx);

    /**
     * Free a drained entry, close its oracle residency and wake space
     * waiters.
     */
    void releaseEntry(PbEntry &e);

    /**
     * Drop @p e from the index and return its slot to the free list.
     * The oracle residency stays open: a migrating entry carries it on.
     */
    void freeSlot(PbEntry &e);

    /** Take a free slot for @p addr and append it as the newest. */
    PbEntry &claimSlot(Addr addr);

    /**
     * Per page, the blocks holding a slot of _entries, so pageEntries()
     * reads one row instead of walking the index: resident entries
     * (claimSlot/freeSlot) and SP's pending tuples.
     */
    struct PageSlots
    {
        std::uint64_t resident = 0;
        /**
         * SP baseline: blocks with an in-flight tuple update headed for
         * the WPQ. Later stores to such a block coalesce into it (the
         * WPQ is the persistence domain, so they persist on arrival);
         * the tuple is generated from the final plaintext when the
         * update completes, and a crash's battery completes every one.
         */
        std::uint64_t spPending = 0;
    };

    static std::uint64_t
    blockBit(Addr addr)
    {
        static_assert(BlocksPerPage == 64, "one mask bit per block");
        return std::uint64_t{1} << (addr % PageSize / BlockSize);
    }

    /** Clear @p addr's bit in @p mask; drop the row once it is empty. */
    void dropPageSlot(Addr addr, std::uint64_t PageSlots::*mask);

    /** @p e's slot in _entries. */
    std::uint64_t slotOf(const PbEntry &e) const
    {
        return static_cast<std::uint64_t>(&e - _entries.data());
    }

    EventQueue &_eq;
    SchemeTraits _traits;
    SecPbConfig _cfg;
    const MetadataLayout &_layout;
    SecurityKeys _keys;
    CounterStore &_counters;
    PersistOracle &_oracle;
    PmImage &_pm;
    CryptoEngine &_crypto;
    BmtWalker &_walker;
    MetadataCache &_ctrCache;
    MetadataCache &_macCache;
    WritePendingQueue &_wpq;
    const EnergyModel &_energy;  ///< Prices crash work in joules.

    /**
     * The buffer's slots. Under SP, which keeps no resident entries, they
     * hold the pending tuples at the MC instead (never indexed or linked
     * into the persist order), and grow on demand.
     */
    std::vector<PbEntry> _entries;
    FlatMap<Addr, std::uint64_t> _index;  ///< addr -> entry idx.
    FlatMap<std::uint64_t, PageSlots> _pageSlots;  ///< page -> its slots.
    std::vector<std::uint64_t> _freeList;

    /**
     * Resident slots in allocation (= persist) order, as an intrusive
     * doubly linked list: _order[i] links slot i while it is resident.
     */
    static constexpr std::uint64_t NoSlot = ~std::uint64_t{0};
    struct OrderLink
    {
        std::uint64_t prev = NoSlot;
        std::uint64_t next = NoSlot;
    };
    std::vector<OrderLink> _order;
    std::uint64_t _oldest = NoSlot;
    std::uint64_t _newest = NoSlot;

    unsigned _highWm;
    unsigned _lowWm;

    /** @name Adaptive drain policy state (inert unless attached). */
    /** @{ */
    const Capacitor *_battery = nullptr;  ///< Non-null: policy on.
    double _worstEntryJ = 0.0;   ///< Priced worst-case entry completion.
    double _regenJ = 0.0;        ///< Priced in-flight ct+MAC regeneration.
    double _gateMarginJ = 0.0;   ///< Headroom an admission must leave.
    /** @} */

    unsigned _drainsActive = 0;
    bool _drainAllMode = false;
    EventCallback _drainAllDone;

    WaitList _spaceWaiters;

    /** Admission gate (null when single-core: every store is allowed). */
    CoherenceGate *_gate = nullptr;

    /**
     * Tracker for the (single) in-flight store acceptance. The store
     * buffer issues one store at a time and waits for the unblock signal,
     * so a single slot suffices.
     */
    struct AcceptTracker
    {
        unsigned pending = 0;
        Tick start = 0;
        EventCallback cb;
    };
    AcceptTracker _accept;

    /**
     * Begin tracking one op of @p e's run (nullptr: of the acceptance
     * alone). An early run's ops also hold the in-flight acceptance.
     * @param gates_unblock false for early operations that proceed in the
     *        background without delaying the store-buffer unblock signal
     *        (e.g. OBCM's counter fetch, which the paper overlaps -- the
     *        unblock only waits for the two SecPB accesses).
     */
    void opStarted(PbEntry *e, bool gates_unblock = true);

    /** Complete one op: fires the unblock when all gating early ops are
     *  done; the last op of a drain or an SP tuple completes it. The
     *  @p gates_unblock flag must match the opStarted call. */
    void opFinished(PbEntry *e, bool gates_unblock = true);

    StatGroup _stats;

  public:
    Scalar statPersists;        ///< Stores accepted (PPTI numerator).
    Scalar statAllocs;          ///< New entry allocations.
    Scalar statCoalescedHits;   ///< Stores coalesced into resident entries.
    Scalar statFullRejects;     ///< Accept attempts rejected (buffer full).
    Scalar statDrainedEntries;  ///< Entries drained during execution.
    Scalar statPageReencrypts;  ///< Minor-counter-overflow re-encryptions.
    Average statNwpe;           ///< Writes per entry residency (NWPE).
    Average statUnblockLatency; ///< Store-accept to unblock (cycles).
    Average statOccupancy;      ///< Occupancy sampled at each accept.
    Scalar statBatteryStalls;   ///< Allocations gated by battery headroom.
    Scalar statMdcShedWrites;   ///< Dirty metadata cleaned under battery
                                ///< pressure (write-through degradation).
};

} // namespace secpb

#endif // SECPB_SECPB_SECPB_HH

/**
 * @file
 * SecPb at crash time: the crash-work model and the battery's work.
 *
 * addEntryWork() prices an entry from the stage table's crash-work
 * column, crashFloorWork() the occupancy-independent metadata-cache
 * (and eADR hierarchy) flush, and predictCrashDrainWork() the whole
 * buffer -- the probe the adaptive drain policy senses. crashDrainAll()
 * and applicationCrash() drive the tuple pipeline's functional mode
 * over the persist order. The timed machine is in secpb.cc.
 */

#include "secpb/secpb.hh"

#include <algorithm>
#include <bit>

#include "energy/energy_model.hh"
#include "obs/trace.hh"

namespace secpb
{

CrashWork &
CrashWork::operator+=(const CrashWork &w)
{
    entriesDrained += w.entriesDrained;
    countersIncremented += w.countersIncremented;
    counterFetches += w.counterFetches;
    otpsGenerated += w.otpsGenerated;
    bmtRootUpdates += w.bmtRootUpdates;
    bmtLevelsWalked += w.bmtLevelsWalked;
    macsComputed += w.macsComputed;
    ciphertexts += w.ciphertexts;
    pmBlockWrites += w.pmBlockWrites;
    mdcBlockFlushes += w.mdcBlockFlushes;
    cacheLinesFlushed += w.cacheLinesFlushed;
    bmtNodesRebuilt += w.bmtNodesRebuilt;
    batteryExhausted = batteryExhausted || w.batteryExhausted;
    energySpentJ += w.energySpentJ;
    mandatoryJ += w.mandatoryJ;
    drainedBlocks.insert(drainedBlocks.end(), w.drainedBlocks.begin(),
                         w.drainedBlocks.end());
    abandoned.insert(abandoned.end(), w.abandoned.begin(),
                     w.abandoned.end());
    absorbedApplied += w.absorbedApplied;
    absorbedLost += w.absorbedLost;
    return *this;
}

void
SecPb::completeEntryFunctionally(PbEntry &e, CrashWork &work)
{
    addEntryWork(e, work);
    persistFunctionally(e);
}

CrashWork
SecPb::applicationCrash(std::uint32_t asid, AppCrashPolicy policy)
{
    CrashWork work;
    TRACE_INSTANT_P("secpb", "app_crash", _eq.curTick(), asid);

    // Complete the victims in persist order. Entries with early ops or a
    // drain in flight are left to their normal pipelines -- an
    // application crash does not stop the clock, so in-flight hardware
    // operations retire normally. (An entry a woken store allocates
    // joins the list's tail with its early ops in flight.)
    for (std::uint64_t i = _oldest, next; i != NoSlot; i = next) {
        next = _order[i].next;
        PbEntry &e = _entries[i];
        if (e.draining || e.pendingOps != 0 ||
            (policy == AppCrashPolicy::DrainProcess && e.asid != asid))
            continue;
        completeEntryFunctionally(e, work);
        releaseEntry(e);
    }
    return work;
}

void
SecPb::addEntryWork(const PbEntry &e, bool ctr_on_chip, CrashWork &w) const
{
    ++w.entriesDrained;
    if (!_traits.secure) {
        ++w.pmBlockWrites;
        return;
    }
    for (const StageRow &r : Stages)
        if (!(e.*r.done))
            ++(w.*r.work);
    if (!e.ctrIncremented && !ctr_on_chip)
        ++w.counterFetches;
    if (!e.vBmt)
        w.bmtLevelsWalked += persistedBmtLevels();
    w.pmBlockWrites += 3;  // data, counter block, MAC
}

void
SecPb::addEntryWork(const PbEntry &e, CrashWork &w) const
{
    addEntryWork(e,
                 e.ctrIncremented ||
                     _ctrCache.contains(_layout.counterAddr(e.addr)),
                 w);
}

CrashWork
SecPb::crashFloorWork() const
{
    // The persistent copies of counters and MACs for already drained
    // blocks live dirty in the MDCs (assumptions (2) and (4) of the
    // battery sizing). eADR: the whole volatile hierarchy is inside the
    // persist domain, so every crash owes the full flush.
    CrashWork w;
    if (!_traits.secure)
        return w;
    w.mdcBlockFlushes = _ctrCache.numDirty() + _macCache.numDirty();
    w.pmBlockWrites = w.mdcBlockFlushes;
    if (_traits.flushesHierarchy)
        w.cacheLinesFlushed = TableIDataCaches.lines();
    return w;
}

CrashWork
SecPb::predictCrashDrainWork() const
{
    CrashWork w = crashFloorWork();
    if (_traits.wpqPersistDomain) {
        // SP's crash-time obligation lives in the WPQ, not the PB: every
        // queued write still owes one PCM block write at power failure.
        // The WPQ sits in the ADR domain, but a battery sized for SP has
        // to carry exactly that domain, so the probe prices it instead
        // of reporting zero (which made SP look crash-free and barred it
        // from the adaptive policy). Secure schemes are unchanged: their
        // WPQ traffic is already-persisted data on its way out.
        w.pmBlockWrites += _wpq.pendingAtCrash();
    }
    _index.forEach([&](const Addr &, const std::uint64_t &idx) {
        addEntryWork(_entries[idx], w);
    });
    return w;
}

CrashWork
SecPb::crashDrainAll(
    const std::vector<std::pair<Addr, std::uint64_t>> &absorbed_stores,
    std::optional<double> budget_j)
{
    CrashWork work;
    TRACE_INSTANT("secpb", "crash_drain", _eq.curTick());

    const auto fits = [&](const PbEntry &e) {
        CrashWork d;
        addEntryWork(e, d);
        return _energy.actualCrashEnergy(work) +
                   _energy.actualCrashEnergy(d) <= *budget_j;
    };

    // Battery-backed store buffer: absorb its stores in program order.
    // With an unbounded battery, stores to resident blocks fold into the
    // entry (stale value-dependent fields are invalidated) and the rest
    // complete as one-off tuples after the resident pass. Under a
    // bounded budget, absorbed stores -- the *newest* stores in the
    // persist order -- are instead deferred until every resident entry
    // has drained, so an exhausted battery always loses an in-order
    // suffix rather than tearing the middle of the order.
    std::vector<Addr> absorbed_blocks;
    if (!budget_j) {
        for (const auto &[addr, value] : absorbed_stores) {
            _oracle.applyStore(addr, value);
            if (PbEntry *e = find(addr)) {
                setBlockWord(e->plaintext, blockOffset(addr) / 8, value);
                invalidateStages(*e, false);
            } else {
                const Addr block = blockAlign(addr);
                if (std::find(absorbed_blocks.begin(),
                              absorbed_blocks.end(),
                              block) == absorbed_blocks.end())
                    absorbed_blocks.push_back(block);
            }
        }
    }

    // SP: a pending tuple update is an ADR-domain obligation -- its WPQ
    // slot is reserved and its counter already bumped -- so the battery
    // completes every one, whatever the budget, through the shared entry
    // path: OTP, ciphertext, MAC and BMT leaf from the block's current
    // content, with no counter fetch or increment. Visit order is page
    // row order, blocks ascending, which is fine: each tuple touches
    // only its own block/page, and the work counters are
    // order-insensitive. The walk leaves the rows alone; SP keeps no
    // resident entries, so they all go once it is done.
    if (_traits.wpqPersistDomain) {
        _pageSlots.forEach([&](const std::uint64_t &page, const PageSlots &p) {
            const Addr base = static_cast<Addr>(page) * PageSize;
            for (std::uint64_t m = p.spPending; m != 0; m &= m - 1) {
                PbEntry e = spTuple(base + std::countr_zero(m) * BlockSize);
                completeEntryFunctionally(e, work);
            }
        });
        _pageSlots.clear();
    }

    // Reserve the crash floor up front: the metadata-cache flush (and
    // eADR's hierarchy flush) outranks draining further entries. It is
    // mandatory, charged even when it alone exceeds a tiny budget (those
    // functional writes happened at drain time and cannot be torn in
    // this model), so energySpentJ can exceed the budget by this fixed
    // floor plus SP's pending tuples above (together mandatoryJ), and
    // by nothing else. The flush itself runs after the entry pass so
    // the cache contents still inform the per-entry predictions.
    work += crashFloorWork();
    work.mandatoryJ = budget_j ? _energy.actualCrashEnergy(work) : 0.0;

    // Persist order: complete entries oldest-first. A bounded battery
    // prices each entry before committing to it and stops at the first
    // entry that no longer fits -- the drained set is an in-order prefix
    // and the abandoned suffix is reported for prefix verification.
    for (std::uint64_t i = _oldest, next; i != NoSlot; i = next) {
        next = _order[i].next;
        PbEntry &e = _entries[i];
        if (work.batteryExhausted || (budget_j && !fits(e))) {
            work.batteryExhausted = true;
            work.abandoned.push_back({e.addr, e.numWrites});
            continue;
        }
        completeEntryFunctionally(e, work);
        work.drainedBlocks.push_back(e.addr);
        // Leave the index at once (the WPQ content was already
        // functionally applied when pushed -- ADR guarantees it reaches
        // the cell array): a later entry's counter overflow must
        // re-encrypt this block's persisted copy, not a dead buffer copy.
        // Abandoned entries stay resident: their state was never
        // persisted and simply dies with the machine, and their oracle
        // snapshots stay open until recovery reconciles them.
        _oracle.closeResidency(e.addr);
        freeSlot(e);
    }

    // Complete the absorbed stores. Unbounded: the deduplicated blocks
    // that had no resident entry. Bounded: every store, in program
    // order, each priced as a full one-off tuple; the battery stops
    // mid-list when the budget dies, losing only newer stores.
    const auto complete_absorbed = [&](Addr block) {
        PbEntry e = oracleEntry(block);
        completeEntryFunctionally(e, work);
        ++work.absorbedApplied;
    };
    if (!budget_j) {
        for (Addr block : absorbed_blocks)
            complete_absorbed(block);
    } else {
        for (const auto &[addr, value] : absorbed_stores) {
            PbEntry fresh;  // nothing early: priced as a full tuple
            fresh.addr = blockAlign(addr);
            if (work.batteryExhausted || !fits(fresh)) {
                work.batteryExhausted = true;
                ++work.absorbedLost;
                continue;
            }
            _oracle.applyStore(addr, value);
            complete_absorbed(fresh.addr);
        }
    }

    // The MDC flush reserved above (accounting only; see comment there).
    if (_traits.secure) {
        _ctrCache.flushAll();
        _macCache.flushAll();
    }

    _drainsActive = 0;

    // Triad-NVM recovery: the battery persisted only the lowest path
    // levels; the volatile upper tree is recomputed bottom-up from the
    // persisted frontier before verification can run. This happens on
    // mains power at restart -- it lengthens the recovery window (the
    // drain-latency model prices bmtNodesRebuilt) but costs the battery
    // nothing.
    const unsigned rebuild_from = persistedBmtLevels();
    if (rebuild_from < _walker.tree().numLevels())
        work.bmtNodesRebuilt =
            _walker.tree().rebuildFromLevel(rebuild_from);

    // Spend is priced only against a budget; unbounded drains report 0.
    work.energySpentJ = budget_j ? _energy.actualCrashEnergy(work) : 0.0;
    return work;
}

} // namespace secpb

#include "secpb/secpb.hh"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "energy/energy_model.hh"
#include "obs/trace.hh"
#include "sim/debug.hh"

namespace secpb
{

// The tuple's dependency graph, one row per stage, in issue order.
// Columns: stage, dependency, valid bit, early column, value-dependent,
// re-derived on re-encryption, functional effect, latency source,
// crash-work counter.
constexpr SecPb::StageRow SecPb::Stages[] = {
    {Stage::Counter, Stage::Counter, &PbEntry::ctrIncremented,
     &SchemeTraits::earlyCounter, false, false, &SecPb::incrementInto,
     Unit::CounterAccess, &CrashWork::countersIncremented},
    {Stage::Otp, Stage::Counter, &PbEntry::vOtp,
     &SchemeTraits::earlyOtp, false, true, &SecPb::generatePadInto,
     Unit::Aes, &CrashWork::otpsGenerated},
    {Stage::Ciphertext, Stage::Otp, &PbEntry::vCt,
     &SchemeTraits::earlyCiphertext, true, true, &SecPb::refreshCiphertext,
     Unit::Xor, &CrashWork::ciphertexts},
    {Stage::Mac, Stage::Ciphertext, &PbEntry::vMac,
     &SchemeTraits::earlyMac, true, true, &SecPb::refreshMac,
     Unit::MacUnit, &CrashWork::macsComputed},
    {Stage::Bmt, Stage::Counter, &PbEntry::vBmt,
     &SchemeTraits::earlyBmt, false, false, &SecPb::updateBmtLeaf,
     Unit::Walker, &CrashWork::bmtRootUpdates},
};

constexpr std::array<std::uint8_t, std::size(SecPb::Stages)>
    SecPb::Dependants = [] {
        std::array<std::uint8_t, std::size(Stages)> masks{};
        for (const StageRow &r : Stages)
            if (r.stage != r.dep)
                masks[unsigned(r.dep)] |= 1u << unsigned(r.stage);
        return masks;
    }();

SecPb::SecPb(EventQueue &eq, Scheme scheme, const SecPbConfig &cfg,
             const MetadataLayout &layout, const SecurityKeys &keys,
             CounterStore &counters, PersistOracle &oracle, PmImage &pm,
             CryptoEngine &crypto, BmtWalker &walker,
             MetadataCache &ctr_cache, MetadataCache &mac_cache,
             WritePendingQueue &wpq, StatGroup &parent)
    : _eq(eq), _traits(schemeTraits(scheme)), _cfg(cfg),
      _layout(layout), _keys(keys), _counters(counters), _oracle(oracle),
      _pm(pm), _crypto(crypto), _walker(walker), _ctrCache(ctr_cache),
      _macCache(mac_cache), _wpq(wpq),
      _entries(cfg.numEntries),
      _order(cfg.numEntries),
      _highWm(std::max<unsigned>(
          1, static_cast<unsigned>(cfg.numEntries * cfg.highWatermark))),
      _lowWm(static_cast<unsigned>(cfg.numEntries * cfg.lowWatermark)),
      _stats("secpb", &parent),
      statPersists(_stats, "persists", "stores accepted by the SecPB"),
      statAllocs(_stats, "allocs", "new SecPB entry allocations"),
      statCoalescedHits(_stats, "coalesced_hits",
                        "stores coalesced into resident entries"),
      statFullRejects(_stats, "full_rejects",
                      "accepts rejected because the buffer was full"),
      statDrainedEntries(_stats, "drained_entries",
                         "entries drained during execution"),
      statPageReencrypts(_stats, "page_reencrypts",
                         "page re-encryptions from minor-counter overflow"),
      statNwpe(_stats, "nwpe", "writes per entry residency (NWPE)"),
      statUnblockLatency(_stats, "unblock_latency",
                         "store accept to unblock signal (cycles)"),
      statOccupancy(_stats, "occupancy", "occupancy sampled at accepts"),
      statBatteryStalls(_stats, "battery_stalls",
                        "allocations gated by battery headroom"),
      statMdcShedWrites(_stats, "mdc_shed_writes",
                        "dirty metadata written through under battery "
                        "pressure")
{
    static_assert([] {
        for (unsigned i = 0; i < std::size(Stages); ++i)
            if (unsigned(Stages[i].stage) != i ||
                Stages[i].dep > Stages[i].stage)
                return false;
        return true;
    }(), "stage row i must describe stage i, after its dependency");
    fatal_if(cfg.numEntries == 0, "SecPB needs at least one entry");
    fatal_if(cfg.lowWatermark >= cfg.highWatermark,
             "SecPB low watermark must be below the high watermark");
    fatal_if(cfg.highWatermark <= 0.0 || cfg.highWatermark > 1.0,
             "SecPB high watermark fraction must be in (0, 1]");
    fatal_if(cfg.lowWatermark < 0.0,
             "SecPB low watermark fraction must be non-negative");
    fatal_if(_traits.partialBmtPersist && cfg.params.triadLevels < 1,
             "triad needs at least one persisted BMT level");
    // For tiny buffers the watermark *fractions* can derive to the same
    // entry count (e.g. numEntries=2 with 0.75/0.50 gives 1/1), which
    // would stall the drain engine the moment it starts. The watermarks
    // must also be strictly ordered in entries: clamp the low watermark
    // below the high one (_highWm >= 1, so _lowWm >= 0 always works).
    if (_lowWm >= _highWm)
        _lowWm = _highWm - 1;
    _index.reserve(cfg.numEntries);
    _freeList.reserve(cfg.numEntries);
    if (_traits.wpqPersistDomain)
        _spPending.reserve(64);
    for (unsigned i = 0; i < cfg.numEntries; ++i)
        _freeList.push_back(cfg.numEntries - 1 - i);
    _dbg = debug::enabled("SecPb");
}

Cycles
SecPb::counterWriteAccess(Addr addr)
{
    if (_traits.counterWriteThrough)
        return _ctrCache.writeThroughAccess(_layout.counterAddr(addr));
    return _ctrCache.writeAccess(_layout.counterAddr(addr));
}

unsigned
SecPb::persistedBmtLevels() const
{
    const unsigned levels = _walker.tree().numLevels();
    return _traits.partialBmtPersist
               ? std::min(_cfg.params.triadLevels, levels)
               : levels;
}

void
SecPb::persistBmtPathPrefix(Addr addr)
{
    // Level l of the arity-8 path holds node page / 8^(l+1).
    MetadataCache &nodes = _walker.nodeCache();
    std::uint64_t node = _layout.pageIndex(addr);
    for (unsigned l = 0; l < persistedBmtLevels(); ++l) {
        node /= 8;
        nodes.writeThroughAccess(_layout.bmtNodeAddr(l, node));
    }
}

PbEntry &
SecPb::claimSlot(Addr addr)
{
    const std::uint64_t idx = _freeList.back();
    _freeList.pop_back();
    _index.insert(blockAlign(addr), idx);
    _order[idx] = OrderLink{_newest, NoSlot};
    if (_newest == NoSlot)
        _oldest = idx;
    else
        _order[_newest].next = idx;
    _newest = idx;
    PbEntry &e = _entries[idx];
    e.valid = true;
    e.addr = blockAlign(addr);
    return e;
}

void
SecPb::opStarted(PbEntry *e, bool gates_unblock)
{
    if (gates_unblock && (!e || earlyRun(*e)))
        ++_accept.pending;
    if (e)
        ++e->pendingOps;
}

void
SecPb::opFinished(PbEntry *e, bool gates_unblock)
{
    if (e) {
        panic_if(e->pendingOps == 0, "op underflow");
        --e->pendingOps;
        if (!earlyRun(*e)) {
            // The last op of a drain or of an SP tuple completes it.
            if (e->pendingOps == 0 && _traits.wpqPersistDomain)
                persistSp(slotOf(*e));
            else if (e->pendingOps == 0)
                finalizeDrain(slotOf(*e));
            return;
        }
    }
    if (!gates_unblock) {
        maybeStartDrain();
        return;
    }
    panic_if(_accept.pending == 0, "accept-op underflow");
    if (--_accept.pending == 0) {
        statUnblockLatency.sample(
            static_cast<double>(_eq.curTick() - _accept.start));
        TRACE_SPAN("secpb", "accept", _accept.start, _eq.curTick());
        EventCallback cb = std::move(_accept.cb);
        _accept.cb = nullptr;
        if (cb)
            cb();
    }
    maybeStartDrain();
}

void
SecPb::beginAccept(EventCallback unblocked)
{
    panic_if(_accept.pending != 0,
             "store offered while a previous acceptance is in flight");
    _accept.start = _eq.curTick();
    _accept.cb = std::move(unblocked);
    ++statPersists;
}

void
SecPb::holdAcceptUntil(PbEntry *e, Tick t)
{
    opStarted(e);
    _eq.schedule(t, [this, e] { opFinished(e); });
}

void
SecPb::incrementInto(PbEntry &e)
{
    e.counter = incrementCounter(e.addr);
    e.ctrIncremented = true;
}

void
SecPb::generatePadInto(PbEntry &e)
{
    e.otp = generatePad(_keys, e.addr, e.counter);
    e.vOtp = true;
}

void
SecPb::refreshCiphertext(PbEntry &e)
{
    e.ciphertext = encryptBlock(e.plaintext, e.otp);
    e.vCt = true;
}

void
SecPb::refreshMac(PbEntry &e)
{
    e.mac = computeMac(_keys, e.addr, e.ciphertext, e.counter);
    e.vMac = true;
}

void
SecPb::updateBmtLeaf(PbEntry &e)
{
    // Functional mode only (the timed walker applies the leaf itself).
    // Triad-NVM walks only the persisted levels on battery power, as
    // addEntryWork() prices it; the volatile remainder is rebuilt at
    // recovery (bmtNodesRebuilt, counted by crashDrainAll).
    const std::uint64_t page = _layout.pageIndex(e.addr);
    _walker.tree().updateLeaf(
        page, _walker.tree().leafDigest(_counters.block(page)));
    e.vBmt = true;
}

Cycles
SecPb::bumpCounter(PbEntry &e)
{
    const Cycles d_ctr =
        counterWriteAccess(e.addr) + _crypto.latencies().counterInc;
    incrementInto(e);
    return d_ctr;
}

BlockCounter
SecPb::incrementCounter(Addr addr)
{
    CounterIncrement r = _counters.increment(addr);
    if (r.overflowed) {
        ++statPageReencrypts;
        if (_dbg)
            DPRINTF("SecPb", "minor overflow -> re-encrypt page %llu",
                    static_cast<unsigned long long>(
                        _layout.pageIndex(addr)));
        reencryptPage(_layout.pageIndex(addr), r.oldBlock);
    }
    return r.counter;
}

void
SecPb::reencryptPage(std::uint64_t page_idx, const CounterBlock &old_cb)
{
    // Copy, not reference: the counter store is an open-addressing table
    // now, so a held reference dies with the store's next mutation. The
    // loop below doesn't touch counters today, but a 64-block walk that
    // calls back into crypto and PM is exactly where that assumption
    // would rot silently.
    const CounterBlock nb = _counters.block(page_idx);
    const Addr page_base = page_idx * PageSize;

    // The whole page regenerates in one burst: OTP/MAC pricing goes
    // through a coalesced request train per unit (identical per-block
    // completion ticks, spans, and stats as per-call issue).
    CryptoEngine::RegenBurst burst(_crypto);

    for (unsigned b = 0; b < BlocksPerPage; ++b) {
        const Addr addr = page_base + b * BlockSize;
        if (PbEntry *e = find(addr)) {
            // Resident block: retarget its counter snapshot and re-apply
            // the valid stages derived from it.
            e->counter = nb.counterFor(b);
            for (const StageRow &r : Stages) {
                if (!r.rederived || !(e->*r.done))
                    continue;
                (this->*r.effect)(*e);
                if (r.unit == Unit::Aes)
                    burst.otp();
                else if (r.unit == Unit::MacUnit)
                    burst.mac();
            }
        } else if (_pm.hasData(addr)) {
            // Persisted, non-resident block: transcrypt in place.
            const BlockData old_pad =
                generatePad(_keys, addr, old_cb.counterFor(b));
            const BlockData pt = decryptBlock(_pm.readData(addr), old_pad);
            const BlockCounter nc = nb.counterFor(b);
            const BlockData new_pad = generatePad(_keys, addr, nc);
            const BlockData ct = encryptBlock(pt, new_pad);
            _pm.writeData(addr, ct);
            _pm.writeMac(addr, computeMac(_keys, addr, ct, nc));
            burst.otp();
            burst.mac();
        }
    }
    burst.commit();

    // Persist the fresh counter block and fold it into the BMT.
    _pm.writeCounterBlock(page_idx, nb);
    _walker.update(page_base, _walker.tree().leafDigest(nb));
}

bool
SecPb::tryAcceptStore(Addr addr, std::uint64_t value,
                      EventCallback unblocked, std::uint32_t asid)
{
    const auto reject = [&](const char *why, bool kick_drain = false) {
        ++statFullRejects;
        TRACE_INSTANT_P("secpb", why, _eq.curTick(), asid);
        if (kick_drain)
            maybeStartDrain();
        return false;
    };

    // Coherence (Section IV-C(c)): the gate rejects stores to pages this
    // core does not own, exactly like a full buffer -- the store buffer
    // waits for space, and the epoch engine kicks the waiters once the
    // barrier has migrated the page's entries here. Checked before the
    // SP dispatch so the SPoP-at-the-MC baseline is gated too.
    if (_gate && !_gate->allows(addr, _eq.curTick()))
        return reject("gate_reject");

    if (_traits.wpqPersistDomain)
        return acceptStoreSp(addr, value, std::move(unblocked));

    PbEntry *e = find(addr);
    // An entry mid-drain makes a fresh residency wait for the drain to
    // free the slot: treat as full.
    if (e && e->draining)
        return reject("pb_full");
    if (!e && _freeList.empty())
        return reject("pb_full", true);

    // Adaptive drain policy: admitting a new residency must leave the
    // battery able to cover the priced crash prediction plus one
    // worst-case entry and one in-flight regeneration (the gate margin).
    // An empty buffer always admits -- a liveness floor of one entry --
    // otherwise a dead-enough capacitor would wedge the machine instead
    // of degrading it to write-through behavior.
    // Shed metadata dirt first: an allocation the gate is about to
    // price deserves a floor as small as wall power can make it, and
    // the liveness-floor admission below must not ride on a floor the
    // battery cannot cover.
    if (!e) {
        shedMetadataDirt();
        if (batteryGateBlocksAllocation()) {
            ++statBatteryStalls;
            return reject("battery_stall", true);
        }
    }

    beginAccept(std::move(unblocked));
    statOccupancy.sample(static_cast<double>(_index.size()));

    const Tick base = _eq.curTick() + _cfg.accessLatency;

    if (e) {
        ++statCoalescedHits;
        ++e->numWrites;
        TRACE_INSTANT_P("secpb", "coalesce", _eq.curTick(), e->asid);
        if (_dbg)
            DPRINTF("SecPb", "coalesce %#llx (writes=%llu) @%llu",
                    static_cast<unsigned long long>(e->addr),
                    static_cast<unsigned long long>(e->numWrites),
                    static_cast<unsigned long long>(_eq.curTick()));
        // PoP: the store persists the moment the entry's plaintext is
        // updated. Eager rows regenerate the stale stages now, lazy rows
        // leave them for drain time; sec_wt redoes the whole tuple.
        setBlockWord(e->plaintext, blockOffset(addr) / 8, value);
        _oracle.applyStore(addr, value);
        invalidateStages(*e, !_traits.coalesceValueIndependent);
        runStages(slotOf(*e), base);
    } else {
        e = &claimSlot(addr);
        ++statAllocs;
        TRACE_INSTANT_P("secpb", "alloc", _eq.curTick(), asid);
        if (_dbg)
            DPRINTF("SecPb", "alloc %#llx occupancy=%zu @%llu",
                    static_cast<unsigned long long>(e->addr),
                    _index.size(),
                    static_cast<unsigned long long>(_eq.curTick()));
        e->asid = asid;
        e->numWrites = 1;
        e->plaintext = _oracle.applyStore(addr, value, true);
        e->vData = true;
        runStages(slotOf(*e), base);
        maybeStartDrain();
    }
    return true;
}

void
SecPb::invalidateStages(PbEntry &e, bool whole_tuple)
{
    for (const StageRow &r : Stages)
        if (whole_tuple || r.valueDependent)
            e.*r.done = false;
    if (whole_tuple)
        e.vCtr = false;
}

bool
SecPb::wanted(const PbEntry &e, Stage s) const
{
    return _traits.secure && (e.draining || _traits.*row(s).early);
}

template <typename Fn>
void
SecPb::forEachNext(const PbEntry &e, Stage from, Fn &&fn) const
{
    for (unsigned m = Dependants[unsigned(from)]; m != 0; m &= m - 1) {
        const StageRow &r = Stages[std::countr_zero(m)];
        if (e.*r.done)
            forEachNext(e, r.stage, fn);
        else if (wanted(e, r.stage))
            fn(r.stage);
    }
}

Tick
SecPb::runStages(std::uint64_t slot, Tick base)
{
    PbEntry &e = _entries[slot];
    if (earlyRun(e))
        holdAcceptUntil(&e, base);  // the SecPB write itself
    if (!e.draining && (e.ctrIncremented || !wanted(e, Stage::Counter))) {
        // No counter in this run: stages whose inputs are valid start
        // at base (a coalescing store's ciphertext, then MAC).
        forEachNext(e, Stage::Counter, [&](Stage s) {
            opStarted(&e);
            request(slot, s, base);
        });
        return base;
    }

    // The counter: fetch through the counter cache and increment. Its
    // latency is known now, so the stages waiting on it are counted now
    // and issued by its completion event (stageDone()).
    Tick t_ctr = base;
    if (_traits.secure && !e.ctrIncremented)
        t_ctr += bumpCounter(e);
    unsigned next = 0;
    forEachNext(e, Stage::Counter, [&next](Stage) { ++next; });
    // With nothing downstream in an early run (OBCM), the fetch runs in
    // the background: the unblock only waits for a second SecPB access
    // that checks the counter valid bit (paper Section VI-B).
    opStarted(&e, next != 0);
    _eq.schedule(t_ctr,
                 [this, slot] { stageDone<Stage::Counter>(slot); });
    if (next == 0 && earlyRun(e))
        holdAcceptUntil(&e, base + _cfg.accessLatency);
    for (; next > 0; --next)
        opStarted(&e);
    return t_ctr;
}

void
SecPb::request(std::uint64_t slot, Stage s, Tick ready)
{
    switch (s) {
      case Stage::Counter:
        panic("the counter is issued by runStages()");
      case Stage::Otp:
        return request<Stage::Otp>(slot, ready);
      case Stage::Ciphertext:
        return request<Stage::Ciphertext>(slot, ready);
      case Stage::Mac:
        return request<Stage::Mac>(slot, ready);
      case Stage::Bmt:
        return request<Stage::Bmt>(slot, ready);
    }
}

template <SecPb::Stage S>
void
SecPb::request(std::uint64_t slot, Tick ready)
{
    constexpr Unit unit = row(S).unit;
    const auto done = [this, slot] { stageDone<S>(slot); };
    if constexpr (unit == Unit::Aes) {
        _crypto.generateOtp(done);
    } else if constexpr (unit == Unit::Xor) {
        _eq.schedule(ready + _crypto.generateCiphertext(), done);
    } else if constexpr (unit == Unit::MacUnit) {
        _crypto.generateMac(done);
    } else {
        static_assert(unit == Unit::Walker);
        PbEntry &e = _entries[slot];
        const std::uint64_t page = _layout.pageIndex(e.addr);
        const Digest d = _walker.tree().leafDigest(_counters.block(page));
        if (!e.draining && !_traits.streamlinedIssue) {
            // An early (or SP) walk holds its run until the root write
            // retires.
            _walker.update(e.addr, d, done);
            return;
        }
        // The drain, and streamlined early updates, wait only for the
        // pipelined walker to *accept* the walk; the coalesced root
        // update retires in the background (the battery provisioning
        // covers one in-flight tuple update for that window), so walker
        // throughput still backpressures them. Merged same-leaf updates
        // are accepted at once.
        const BmtWalker::UpdateTiming t = _walker.updateTimed(e.addr, d);
        e.vBmt = true;
        // Triad-NVM runtime cost: the persisted frontier (the lowest N
        // path levels) must actually reach PCM at drain time, not just
        // the walker's volatile node cache.
        if (e.draining && _traits.partialBmtPersist)
            persistBmtPathPrefix(e.addr);
        _eq.schedule(std::max(t.issue, _eq.curTick()), done);
    }
}

template <SecPb::Stage S>
void
SecPb::stageDone(std::uint64_t slot)
{
    PbEntry &e = _entries[slot];
    const Tick now = _eq.curTick();
    if constexpr (S == Stage::Counter) {
        // Retire the counter, then issue the stages counted in when it
        // was issued (in this order: the retire may start drains).
        e.vCtr = true;
        Stage next[std::size(Stages)];
        unsigned n = 0;
        forEachNext(e, S, [&](Stage t) { next[n++] = t; });
        opFinished(&e, n != 0);
        for (unsigned i = 0; i < n; ++i)
            request(slot, next[i], now);
    } else {
        // SP generates the tuple from the block's final content when it
        // persists (persistSp()), so its stages only take time.
        constexpr const StageRow &r = row(S);
        if (!_traits.wpqPersistDomain) {
            if constexpr (r.unit == Unit::Walker)
                e.vBmt = true;
            else
                (this->*r.effect)(e);
            if constexpr (r.unit == Unit::MacUnit)
                _macCache.writeAccess(_layout.macAddr(e.addr));
        }
        forEachNext(e, S, [&](Stage t) {
            opStarted(&e);
            request(slot, t, now);
        });
        opFinished(&e);
    }
}

bool
SecPb::acceptStoreSp(Addr addr, std::uint64_t value,
                     EventCallback unblocked)
{
    const Addr block_addr = blockAlign(addr);

    // Coalescing window: a store to a block whose tuple update is still
    // in flight persists on arrival (the target WPQ slot is already
    // reserved in the ADR domain); the pending tuple picks up the value.
    if (_spPending.contains(block_addr)) {
        beginAccept(std::move(unblocked));
        ++statCoalescedHits;
        _oracle.applyStore(addr, value);
        holdAcceptUntil(nullptr, _eq.curTick() + _cfg.spCoalesceCycles);
        return true;
    }

    if (_wpq.full()) {
        ++statFullRejects;
        return false;
    }

    beginAccept(std::move(unblocked));
    ++statAllocs;

    // Traverse the hierarchy to the MC, then run the whole tuple there
    // in a free slot.
    if (_freeList.empty()) {
        _freeList.push_back(_entries.size());
        _entries.emplace_back();
    }
    const std::uint64_t slot = _freeList.back();
    _freeList.pop_back();
    _entries[slot].addr = block_addr;
    const Tick t_ctr =
        runStages(slot, _eq.curTick() + _cfg.spTraversalCycles);

    _oracle.applyStore(addr, value);
    _spPending.insert(block_addr);

    // The store buffer is released once the persist pipeline has
    // absorbed this store: after the MC traversal and counter access,
    // when the walker can take the walk, plus the per-level
    // serialization charge (shared tree levels across updates).
    const Tick pipe_free = std::max(t_ctr, _walker.pipeReadyAt());
    holdAcceptUntil(nullptr, pipe_free + _walker.effectiveLevels() *
                                             _cfg.spPerLevelCycles);
    return true;
}

void
SecPb::persistSp(std::uint64_t slot)
{
    // Full tuple produced: persist the data block through the WPQ
    // (metadata lands dirty in the MDCs), retried while it is full.
    // Under strict persistency the store only completes once the tuple
    // is durable.
    PbEntry &e = _entries[slot];
    if (!_wpq.push(e.addr)) {
        _wpq.notifyOnSpace([this, slot] { persistSp(slot); });
        return;
    }
    _macCache.writeAccess(_layout.macAddr(e.addr));
    // The tuple is generated from the final (coalesced) plaintext; its
    // leaf went through the walker.
    PbEntry t = spTuple(e.addr);
    t.vBmt = true;
    persistFunctionally(t);
    _crypto.generateCiphertext();
    _spPending.erase(e.addr);
    e.clear();
    _freeList.push_back(slot);
}

PbEntry
SecPb::oracleEntry(Addr block) const
{
    PbEntry e;
    e.valid = e.vData = true;
    e.addr = block;
    e.plaintext = _oracle.blockContent(block);
    return e;
}

PbEntry
SecPb::spTuple(Addr block) const
{
    PbEntry e = oracleEntry(block);
    e.ctrIncremented = true;
    e.counter = _counters.counterFor(block);
    return e;
}

void
SecPb::attachBatteryMonitor(const Capacitor *battery,
                            const EnergyModel *pricing,
                            const AdaptiveDrainConfig &cfg)
{
    if (!battery || !pricing || !cfg.enabled) {
        _battery = nullptr;
        _pricing = nullptr;
        _adaptive = AdaptiveDrainConfig{};
        _worstEntryJ = _regenJ = _gateMarginJ = 0.0;
        return;
    }
    _battery = battery;
    _pricing = pricing;
    _adaptive = cfg;

    // Worst-case completion of one entry under this scheme: every lazy
    // field missing and the counter block absent on-chip. Ciphertext and
    // MAC are always missing -- they are value-dependent, so even an
    // eager scheme can hold them invalid while a coalescing store's
    // regeneration is in flight. SP completes the whole tuple before the
    // WPQ admits the store, so its worst unit is one WPQ-resident block
    // write (predictCrashDrainWork prices the full queue the same way).
    CrashWork w;
    if (_traits.wpqPersistDomain) {
        w.pmBlockWrites = 1;
    } else {
        PbEntry worst;
        for (const StageRow &r : Stages)
            worst.*r.done = _traits.*r.early && !r.valueDependent;
        addEntryWork(worst, /*ctr_on_chip=*/false, w);
    }
    _worstEntryJ = pricing->actualCrashEnergy(w);

    // One in-flight ciphertext+MAC regeneration (the store buffer issues
    // one store at a time, so at most one is pending at any instant).
    CrashWork transient;
    transient.ciphertexts = 1;
    transient.macsComputed = 1;
    _regenJ = pricing->actualCrashEnergy(transient);

    // Gate margin: the marginEntries reserve plus the in-flight
    // regeneration. SP has no crash-time regeneration -- its value work
    // happens on mains power before the WPQ ever admits the store.
    _gateMarginJ =
        double(std::max(1u, _adaptive.marginEntries)) * _worstEntryJ +
        (_traits.wpqPersistDomain ? 0.0 : _regenJ);
}

double
SecPb::crashReserveEnergyJ() const
{
    if (!_pricing)
        return 0.0;
    // The committed obligation a brownout must not bleed below: every
    // resident entry plus the mandatory metadata-cache flush (both in
    // the prediction), plus the gate margin -- one worst-case entry the
    // empty-buffer liveness rule can admit even on a dead cell, and one
    // value-dependent regeneration that may be in flight when the sag
    // hits. Reserving the margin keeps the brownout floor consistent
    // with what batteryGateBlocksAllocation() lets through.
    return _pricing->actualCrashEnergy(predictCrashDrainWork()) +
           _gateMarginJ;
}

void
SecPb::shedMetadataDirt()
{
    if (!_adaptive.enabled || !_traits.secure)
        return;
    const double budget = batteryBudgetJ();
    // Resident entries cannot be shed from here (the gate and the
    // effective watermarks bound those); once the caches are clean the
    // loop stops making progress and exits, leaving the gate to reject.
    while (crashReserveEnergyJ() > budget) {
        const std::size_t cleaned =
            _ctrCache.cleanDirty(4) + _macCache.cleanDirty(4);
        if (cleaned == 0)
            break;
        statMdcShedWrites += static_cast<double>(cleaned);
    }
}

bool
SecPb::batteryGateBlocksAllocation() const
{
    if (!_adaptive.enabled)
        return false;
    if (_index.empty())
        return false;  // liveness floor: one entry may always allocate
    return crashReserveEnergyJ() > batteryBudgetJ();
}

double
SecPb::batteryBudgetJ() const
{
    return _battery->deliverableEnergyJ() /
           std::max(_adaptive.safetyFactor, 1.0);
}

unsigned
SecPb::adaptiveOccupancyBoundNow() const
{
    if (!_adaptive.enabled)
        return _cfg.numEntries;
    // Fixed floor: the mandatory metadata-cache flush at its current
    // dirtiness, plus the in-flight regeneration reserve. Sharing the
    // gate's margin keeps the two halves consistent: whenever the gate
    // rejects, occupancy already exceeds this bound, so the (tightened)
    // high watermark has drains running and space waiters will wake.
    const double fixed_floor =
        _pricing->actualCrashEnergy(crashFloorWork()) + _regenJ;
    AdaptiveDrainConfig cfg = _adaptive;
    cfg.marginEntries = std::max(1u, _adaptive.marginEntries);
    return adaptiveOccupancyBound(_battery->deliverableEnergyJ(),
                                  fixed_floor, _worstEntryJ,
                                  _cfg.numEntries, cfg);
}

unsigned
SecPb::effectiveHighWatermarkEntries() const
{
    if (!_adaptive.enabled)
        return _highWm;
    // Never below one: occupancy above the bound must trigger drains.
    return std::min(_highWm,
                    std::max(1u, adaptiveOccupancyBoundNow()));
}

unsigned
SecPb::effectiveLowWatermarkEntries() const
{
    const unsigned high = effectiveHighWatermarkEntries();
    return std::min(_lowWm, high - 1);
}

void
SecPb::maybeStartDrain()
{
    const unsigned high_wm = effectiveHighWatermarkEntries();
    const unsigned low_wm = effectiveLowWatermarkEntries();
    const bool over_wm = _index.size() >= high_wm;
    if (!over_wm && !_drainAllMode)
        return;
    // Start up to drainWidth concurrent drains, but never so many that
    // completing them would undershoot the low watermark (coalescing
    // opportunity would be wasted). drainAll mode ignores the floor.
    while (_drainsActive < _cfg.drainWidth) {
        const std::size_t would_remain = _index.size() - _drainsActive;
        if (would_remain <= (_drainAllMode ? 0 : low_wm))
            break;
        const unsigned before = _drainsActive;
        drainNext();
        if (_drainsActive == before)
            break;  // no eligible entry right now
    }
}

void
SecPb::drainNext()
{
    // Oldest drainable entry: not already draining, no early ops still
    // in flight.
    for (std::uint64_t i = _oldest; i != NoSlot; i = _order[i].next) {
        PbEntry &e = _entries[i];
        if (e.draining || e.pendingOps != 0)
            continue;
        startDrain(e);
        return;
    }
}

void
SecPb::startDrain(PbEntry &e)
{
    // Complete the missing tuple stages at the MC ("late" work). The
    // insecure BBB baseline has none: its data block drains as-is.
    ++_drainsActive;
    e.draining = true;
    e.drainStart = _eq.curTick();
    runStages(slotOf(e), _eq.curTick());
}

void
SecPb::finalizeDrain(std::uint64_t entry_idx)
{
    PbEntry &e = _entries[entry_idx];
    panic_if(!e.valid || !e.draining, "finalizing a non-draining entry");

    // Push the data block through the ADR WPQ. Counter and MAC updates
    // land in the (volatile) metadata caches, dirty; they reach PM on MDC
    // eviction or, after a crash, via the battery-powered MDC flush --
    // exactly the state the paper's battery-sizing assumptions (2) and (4)
    // describe. Functionally they are applied to the PM image now, since
    // the crash path always flushes them.
    if (!_wpq.push(e.addr)) {
        _wpq.notifyOnSpace([this, entry_idx] { finalizeDrain(entry_idx); });
        return;
    }
    if (_traits.secure) {
        counterWriteAccess(e.addr);
        _macCache.writeAccess(_layout.macAddr(e.addr));
    }
    writeTuple(e);

    TRACE_SPAN_P("secpb", "drain", e.drainStart, _eq.curTick(), e.asid);
    releaseEntry(e);

    panic_if(_drainsActive == 0, "drain bookkeeping underflow");
    --_drainsActive;

    // A powered drain converts entry work into MDC dirt (the counter and
    // MAC writebacks above); under battery pressure, write it through
    // now rather than letting the crash floor outgrow the cell.
    shedMetadataDirt();

    const bool keep_draining =
        _drainAllMode ? !_index.empty()
                      : _index.size() > effectiveLowWatermarkEntries();
    if (keep_draining) {
        maybeStartDrain();
    } else if (_drainAllMode && _index.empty() && _drainsActive == 0) {
        _drainAllMode = false;
        if (_drainAllDone) {
            EventCallback cb = std::move(_drainAllDone);
            _drainAllDone = nullptr;
            cb();
        }
    }
}

void
SecPb::releaseEntry(PbEntry &e)
{
    if (_dbg)
        DPRINTF("SecPb", "drain %#llx nwpe=%llu @%llu",
                static_cast<unsigned long long>(e.addr),
                static_cast<unsigned long long>(e.numWrites),
                static_cast<unsigned long long>(_eq.curTick()));
    ++statDrainedEntries;
    statNwpe.sample(static_cast<double>(e.numWrites));
    freeSlot(e);
    _spaceWaiters.wakeAll();
}

void
SecPb::freeSlot(PbEntry &e)
{
    panic_if(!_index.erase(e.addr),
             "freeing an entry the index does not know");
    const std::uint64_t idx = slotOf(e);
    const OrderLink link = _order[idx];
    (link.prev == NoSlot ? _oldest : _order[link.prev].next) = link.next;
    (link.next == NoSlot ? _newest : _order[link.next].prev) = link.prev;
    e.clear();
    _freeList.push_back(idx);
}

void
SecPb::drainAll(EventCallback done)
{
    if (_index.empty() && _drainsActive == 0) {
        if (done)
            done();
        return;
    }
    _drainAllMode = true;
    _drainAllDone = std::move(done);
    maybeStartDrain();
}

void
SecPb::persistFunctionally(PbEntry &e)
{
    if (_traits.secure)
        for (const StageRow &r : Stages)
            if (!(e.*r.done))
                (this->*r.effect)(e);
    writeTuple(e);
}

void
SecPb::writeTuple(const PbEntry &e)
{
    if (!_traits.secure) {
        // BBB: the data block is the plaintext, with no metadata.
        _pm.writeData(e.addr, e.plaintext);
        return;
    }
    const std::uint64_t page = _layout.pageIndex(e.addr);
    _pm.writeData(e.addr, e.ciphertext);
    _pm.writeCounterBlock(page, _counters.block(page));
    _pm.writeMac(e.addr, e.mac);
}

std::optional<PbEntry>
SecPb::extractForMigration(Addr addr)
{
    PbEntry *e = find(addr);
    if (!e || e->draining || e->pendingOps != 0)
        return std::nullopt;
    PbEntry copy = *e;
    freeSlot(*e);
    _spaceWaiters.wakeAll();
    return copy;
}

void
SecPb::injectMigrated(const PbEntry &entry)
{
    panic_if(_freeList.empty(), "injectMigrated without a free slot");
    PbEntry &e = claimSlot(entry.addr);
    e = entry;
    e.draining = false;
    e.pendingOps = 0;
}

bool
SecPb::flushForRemoteRead(Addr addr)
{
    PbEntry *e = find(addr);
    if (!e || e->draining || e->pendingOps != 0)
        return false;
    startDrain(*e);
    return true;
}

bool
SecPb::pageEntries(std::uint64_t page, std::vector<Addr> &out) const
{
    // The page's entries as a mask over its blocks, so they come out in
    // ascending order without a sort.
    static_assert(BlocksPerPage == 64, "one mask bit per block");
    std::uint64_t blocks = 0;
    bool quiescent = true;
    _index.forEach([&](const Addr &addr, const std::uint64_t &idx) {
        if (addr / PageSize != page)
            return;
        blocks |= std::uint64_t{1} << (addr % PageSize / BlockSize);
        const PbEntry &e = _entries[idx];
        if (e.draining || e.pendingOps != 0)
            quiescent = false;
    });
    out.clear();
    const Addr base = static_cast<Addr>(page) * PageSize;
    for (; blocks != 0; blocks &= blocks - 1)
        out.push_back(base + std::countr_zero(blocks) * BlockSize);
    // SP baseline: a pending tuple update is an in-flight WPQ persist for
    // the page -- its functional effects landed, but the timed completion
    // closure still references this slice's counter store.
    _spPending.forEach([&](const Addr &addr) {
        if (addr / PageSize == page)
            quiescent = false;
    });
    return quiescent;
}

std::vector<Addr>
SecPb::residentAddrs() const
{
    std::vector<Addr> out;
    out.reserve(occupancy());
    _index.forEach([&](const Addr &addr, const std::uint64_t &) {
        out.push_back(addr);
    });
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace secpb

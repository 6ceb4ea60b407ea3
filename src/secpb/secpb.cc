#include "secpb/secpb.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <utility>

#include "energy/energy_model.hh"
#include "mem/data_hierarchy.hh"
#include "obs/trace.hh"
#include "sim/debug.hh"

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
    drainedBlocks.insert(drainedBlocks.end(), w.drainedBlocks.begin(),
                         w.drainedBlocks.end());
    abandoned.insert(abandoned.end(), w.abandoned.begin(),
                     w.abandoned.end());
    absorbedApplied += w.absorbedApplied;
    absorbedLost += w.absorbedLost;
    return *this;
}

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
    fatal_if(_lowWm >= _highWm,
             "SecPB derived watermarks degenerate (low %u >= high %u)",
             _lowWm, _highWm);
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

void
SecPb::persistBmtPathPrefix(Addr addr, unsigned levels)
{
    std::vector<std::uint64_t> path;
    _walker.tree().pathIndices(_layout.pageIndex(addr), path);
    MetadataCache &nodes = _walker.nodeCache();
    for (unsigned l = 0; l < levels && l < path.size(); ++l)
        nodes.writeThroughAccess(_layout.bmtNodeAddr(l, path[l]));
}

PbEntry *
SecPb::find(Addr addr)
{
    return const_cast<PbEntry *>(std::as_const(*this).peekEntry(addr));
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
    return _entries[idx];
}

PbEntry *
SecPb::allocate(Addr addr)
{
    if (_freeList.empty())
        return nullptr;
    PbEntry &e = claimSlot(addr);
    e.clear();
    e.valid = true;
    e.addr = blockAlign(addr);
    return &e;
}

void
SecPb::opStarted(PbEntry *e, bool gates_unblock)
{
    if (gates_unblock)
        ++_accept.pending;
    if (e)
        ++e->pendingEarlyOps;
}

void
SecPb::opFinished(PbEntry *e, bool gates_unblock)
{
    if (e) {
        panic_if(e->pendingEarlyOps == 0, "early-op underflow");
        --e->pendingEarlyOps;
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

Cycles
SecPb::bumpCounter(PbEntry &e)
{
    const Cycles d_ctr =
        counterWriteAccess(e.addr) + _crypto.latencies().counterInc;
    e.counter = incrementCounter(e.addr);
    e.ctrIncremented = true;
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
            // Resident block: retarget its counter snapshot and regenerate
            // any value-dependent fields it already produced.
            e->counter = nb.counterFor(b);
            if (e->vOtp) {
                e->otp = generatePad(_keys, addr, e->counter);
                burst.otp();
            }
            if (e->vCt)
                refreshCiphertext(*e);
            if (e->vMac) {
                refreshMac(*e);
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
    if (!e)
        shedMetadataDirt();
    if (!e && batteryGateBlocksAllocation()) {
        ++statBatteryStalls;
        return reject("battery_stall", true);
    }

    panic_if(_accept.pending != 0,
             "store offered while a previous acceptance is in flight");
    _accept.start = _eq.curTick();
    _accept.cb = std::move(unblocked);

    ++statPersists;
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
        // updated.
        setBlockWord(e->plaintext, blockOffset(addr) / 8, value);
        _oracle.applyStore(addr, value);
        launchHitOps(*e, base);
    } else {
        e = allocate(addr);
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
        launchEarlyOps(*e, base);
        maybeStartDrain();
    }
    return true;
}

void
SecPb::launchEarlyOps(PbEntry &e, Tick base)
{
    PbEntry *ep = &e;

    // The buffer write itself (access latency).
    opStarted(ep);
    _eq.schedule(base, [this, ep] { opFinished(ep); });
    launchTupleOps(e, base);
}

void
SecPb::launchTupleOps(PbEntry &e, Tick base)
{
    if (!_traits.secure)
        return;
    PbEntry *ep = &e;

    // Counter: fetch from the counter cache (miss -> PCM) and increment.
    // When nothing downstream is produced early (OBCM), the fetch runs in
    // the background: the unblock only waits for a second SecPB access
    // that checks the counter valid bit (paper Section VI-B).
    Tick t_ctr = base;
    if (_traits.earlyCounter) {
        const bool gates = _traits.earlyOtp || _traits.earlyBmt;
        t_ctr = base + bumpCounter(e);
        opStarted(ep, gates);
        _eq.schedule(t_ctr, [this, ep, gates] {
            ep->vCtr = true;
            opFinished(ep, gates);
        });
        if (!gates) {
            // The valid-bit check costs one more SecPB access.
            opStarted(ep);
            _eq.schedule(base + _cfg.accessLatency,
                         [this, ep] { opFinished(ep); });
        }
    }

    // OTP (depends on the counter), then ciphertext, then MAC.
    if (_traits.earlyOtp) {
        opStarted(ep);
        _eq.schedule(t_ctr, [this, ep] {
            _crypto.generateOtp([this, ep] {
                ep->otp = generatePad(_keys, ep->addr, ep->counter);
                ep->vOtp = true;
                if (_traits.earlyCiphertext)
                    launchValueOps(
                        ep, _eq.curTick() + _crypto.generateCiphertext());
                opFinished(ep);
            });
        });
    }

    // BMT root update (depends on the counter; parallel with the OTP).
    if (_traits.earlyBmt) {
        opStarted(ep);
        _eq.schedule(t_ctr, [this, ep] {
            const std::uint64_t page = _layout.pageIndex(ep->addr);
            const Digest d =
                _walker.tree().leafDigest(_counters.block(page));
            if (_traits.streamlinedIssue) {
                // Streamlined updates: the store only waits for the
                // pipelined walker to *accept* the walk; the coalesced
                // root update retires in the background (the battery
                // provisioning covers the in-flight window, exactly as
                // it does for the drain engine's deferred walks).
                const BmtWalker::UpdateTiming t =
                    _walker.updateTimed(ep->addr, d);
                ep->vBmt = true;
                _eq.schedule(std::max(t.issue, _eq.curTick()),
                             [this, ep] { opFinished(ep); });
            } else {
                _walker.update(ep->addr, d, [this, ep] {
                    ep->vBmt = true;
                    opFinished(ep);
                });
            }
        });
    }
}

void
SecPb::launchHitOps(PbEntry &e, Tick base)
{
    PbEntry *ep = &e;

    // The coalescing write itself.
    opStarted(ep);
    _eq.schedule(base, [this, ep] { opFinished(ep); });

    if (!_traits.secure)
        return;

    // Value-dependent metadata must reflect the new plaintext: invalidate
    // stale ciphertext/MAC immediately; eager schemes regenerate them now,
    // lazy schemes leave them for drain time.
    e.vCt = false;
    e.vMac = false;

    if (!_traits.coalesceValueIndependent) {
        // sec_wt strawman: every store redoes the whole (all-early) tuple.
        e.vCtr = e.vOtp = e.vBmt = false;
        e.ctrIncremented = false;
        launchTupleOps(e, base);
    } else if (_traits.earlyCiphertext) {
        launchValueOps(&e, base + _crypto.generateCiphertext());
    }
}

void
SecPb::launchValueOps(PbEntry *ep, Tick at)
{
    opStarted(ep);
    _eq.schedule(at, [this, ep] {
        refreshCiphertext(*ep);
        if (_traits.earlyMac) {
            opStarted(ep);
            _crypto.generateMac([this, ep] {
                refreshMac(*ep);
                _macCache.writeAccess(_layout.macAddr(ep->addr));
                opFinished(ep);
            });
        }
        opFinished(ep);
    });
}

bool
SecPb::acceptStoreSp(Addr addr, std::uint64_t value,
                     EventCallback unblocked)
{
    const Addr block_addr = blockAlign(addr);

    panic_if(_accept.pending != 0,
             "store offered while a previous acceptance is in flight");

    // Coalescing window: a store to a block whose tuple update is still
    // in flight persists on arrival (the target WPQ slot is already
    // reserved in the ADR domain); the pending tuple picks up the value.
    if (_spPending.contains(block_addr)) {
        _accept.start = _eq.curTick();
        _accept.cb = std::move(unblocked);
        ++statPersists;
        ++statCoalescedHits;
        _oracle.applyStore(addr, value);
        opStarted(nullptr);
        _eq.scheduleIn(_cfg.spCoalesceCycles,
                       [this] { opFinished(nullptr); });
        return true;
    }

    if (_wpq.full()) {
        ++statFullRejects;
        return false;
    }

    _accept.start = _eq.curTick();
    _accept.cb = std::move(unblocked);

    ++statPersists;
    ++statAllocs;

    // Traverse the hierarchy to the MC, then fetch and bump the counter.
    const Cycles d_ctr =
        _ctrCache.writeAccess(_layout.counterAddr(block_addr)) +
        _crypto.latencies().counterInc;
    incrementCounter(block_addr);
    const Tick t_ctr = _eq.curTick() + _cfg.spTraversalCycles + d_ctr;

    _oracle.applyStore(addr, value);
    _spPending.insert(block_addr);

    // Shared finalization state for the parallel chains.
    struct SpState
    {
        unsigned pending = 0;
        Addr blockAddr;
        bool pushedData = false;
    };
    auto st = std::make_shared<SpState>();
    st->blockAddr = block_addr;

    // Persist the data block through the WPQ (metadata lands dirty in the
    // MDCs); retried if the WPQ is momentarily full.
    auto persist_tuple =
        [this, st](auto &&self) -> void {
        if (!st->pushedData) {
            if (!_wpq.push(st->blockAddr)) {
                _wpq.notifyOnSpace([self] { self(self); });
                return;
            }
            st->pushedData = true;
            _macCache.writeAccess(_layout.macAddr(st->blockAddr));
        }
        // The tuple is generated from the final (coalesced) plaintext.
        persistSpTuple(st->blockAddr);
        _spPending.erase(st->blockAddr);
    };

    auto finish_one = [st, persist_tuple] {
        if (--st->pending > 0)
            return;
        // Full tuple produced: persist through the WPQ. Under strict
        // persistency the store only completes once the tuple is durable.
        persist_tuple(persist_tuple);
    };

    // The store buffer is released once the persist pipeline has
    // absorbed this store: after the MC traversal and counter access,
    // when the walker can take the walk, plus the per-level
    // serialization charge (shared tree levels across updates).
    opStarted(nullptr);
    const Tick pipe_free = std::max(t_ctr, _walker.pipeReadyAt());
    const Tick unblock_at =
        pipe_free + _walker.effectiveLevels() * _cfg.spPerLevelCycles;
    _eq.schedule(unblock_at, [this] { opFinished(nullptr); });

    // Chain 1: OTP -> ciphertext -> MAC.
    st->pending = 2;
    _eq.schedule(t_ctr, [this, st, finish_one] {
        _crypto.generateOtp([this, st, finish_one] {
            _eq.scheduleIn(_crypto.generateCiphertext(),
                           [this, st, finish_one] {
                _crypto.generateMac([this, st, finish_one]
                                    { finish_one(); });
            });
        });
    });

    // Chain 2: BMT leaf-to-root update (pipelined/merged in the walker).
    _eq.schedule(t_ctr, [this, st, finish_one] {
        const std::uint64_t page = _layout.pageIndex(st->blockAddr);
        const Digest d = _walker.tree().leafDigest(_counters.block(page));
        _walker.update(st->blockAddr, d,
                       [finish_one] { finish_one(); });
    });

    return true;
}

void
SecPb::persistSpTuple(Addr block_addr)
{
    const BlockCounter ctr = _counters.counterFor(block_addr);
    const BlockData pt = _oracle.blockContent(block_addr);
    const BlockData pad = generatePad(_keys, block_addr, ctr);
    const BlockData ct = encryptBlock(pt, pad);
    _crypto.generateCiphertext();
    const std::uint64_t page = _layout.pageIndex(block_addr);
    _pm.writeData(block_addr, ct);
    _pm.writeCounterBlock(page, _counters.block(page));
    _pm.writeMac(block_addr, computeMac(_keys, block_addr, ct, ctr));
}

void
SecPb::notifyOnSpace(EventCallback cb)
{
    _spaceWaiters.add(std::move(cb));
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
        worst.ctrIncremented = _traits.earlyCounter;
        worst.vOtp = _traits.earlyOtp;
        worst.vBmt = _traits.earlyBmt;
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
SecPb::predictedDrainEnergyJ() const
{
    if (!_pricing)
        return 0.0;
    return _pricing->actualCrashEnergy(predictCrashDrainWork());
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
    return predictedDrainEnergyJ() + _gateMarginJ;
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
        if (!_drainAllMode && would_remain <= low_wm)
            break;
        if (_drainAllMode && would_remain == 0)
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
        if (e.draining || e.pendingEarlyOps != 0)
            continue;
        ++_drainsActive;
        e.draining = true;
        startDrainOf(e);
        return;
    }
}

void
SecPb::startDrainOf(PbEntry &e)
{
    const std::uint64_t idx = slotOf(e);
    e.drainStart = _eq.curTick();

    if (!_traits.secure) {
        // Insecure BBB baseline: the "tuple" is just the data block, which
        // drains as-is (no encryption).
        e.ciphertext = e.plaintext;
        e.ctrIncremented = true;
        e.vCtr = e.vOtp = e.vCt = e.vMac = e.vBmt = true;
        e.pushedCtr = true;
        e.pushedMac = true;
        e.drainPending = 1;
        _eq.schedule(_eq.curTick(),
                     [this, idx] { drainBranchDone(idx); });
        return;
    }

    // Complete the missing tuple components at the MC ("late" work).
    Tick t_ctr = _eq.curTick();
    if (!e.ctrIncremented)
        t_ctr += bumpCounter(e);
    e.vCtr = true;

    e.drainPending = 2;
    _eq.schedule(t_ctr, [this, idx] { drainKick(idx); });
}

void
SecPb::drainKick(std::uint64_t idx)
{
    // One fused kick event runs both late-work branches. They used to be
    // two consecutive same-tick events nothing could schedule between
    // (back-to-back schedule calls, adjacent sequence numbers), so fusing
    // them halves drain-path event traffic while keeping pop order -- and
    // therefore every downstream tick, span, and stat -- bit-identical.
    PbEntry &e = _entries[idx];

    // Branch A: OTP -> ciphertext -> MAC (skipping already-valid parts).
    if (!e.vOtp) {
        _crypto.generateOtp([this, idx] {
            PbEntry &d = _entries[idx];
            d.otp = generatePad(_keys, d.addr, d.counter);
            d.vOtp = true;
            drainAfterOtp(idx);
        });
    } else {
        drainAfterOtp(idx);
    }

    // Branch B: BMT root update, if this residency hasn't done it.
    // The drain does not wait for the walk to *retire* -- the battery
    // provisioning includes one in-flight tuple update for exactly
    // that window -- but it does wait for the pipelined walker to
    // *accept* the walk, so walker throughput backpressures draining.
    // Merged same-leaf updates are accepted instantly.
    if (!e.vBmt) {
        const std::uint64_t page = _layout.pageIndex(e.addr);
        const Digest d = _walker.tree().leafDigest(_counters.block(page));
        const BmtWalker::UpdateTiming t = _walker.updateTimed(e.addr, d);
        e.vBmt = true;
        // Triad-NVM runtime cost: the persisted frontier (the lowest N
        // path levels) must actually reach PCM at drain time, not just
        // the walker's volatile node cache.
        if (_traits.partialBmtPersist)
            persistBmtPathPrefix(e.addr, persistedBmtLevels());
        _eq.schedule(std::max(t.issue, _eq.curTick()),
                     [this, idx] { drainBranchDone(idx); });
    } else {
        drainBranchDone(idx);
    }
}

void
SecPb::drainAfterOtp(std::uint64_t idx)
{
    if (!_entries[idx].vCt) {
        _eq.scheduleIn(_crypto.generateCiphertext(), [this, idx] {
            refreshCiphertext(_entries[idx]);
            drainAfterCt(idx);
        });
    } else {
        drainAfterCt(idx);
    }
}

void
SecPb::drainAfterCt(std::uint64_t idx)
{
    if (!_entries[idx].vMac) {
        _crypto.generateMac([this, idx] {
            PbEntry &e = _entries[idx];
            refreshMac(e);
            _macCache.writeAccess(_layout.macAddr(e.addr));
            drainBranchDone(idx);
        });
    } else {
        drainBranchDone(idx);
    }
}

void
SecPb::drainBranchDone(std::uint64_t idx)
{
    if (--_entries[idx].drainPending == 0)
        finalizeDrain(idx);
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
    if (!e.pushedData) {
        if (!_wpq.push(e.addr)) {
            _wpq.notifyOnSpace([this, entry_idx]
                               { finalizeDrain(entry_idx); });
            return;
        }
        e.pushedData = true;
        _pm.writeData(e.addr, e.ciphertext);
        if (_traits.secure) {
            counterWriteAccess(e.addr);
            _macCache.writeAccess(_layout.macAddr(e.addr));
            const std::uint64_t page = _layout.pageIndex(e.addr);
            _pm.writeCounterBlock(page, _counters.block(page));
            _pm.writeMac(e.addr, e.mac);
        }
    }

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
SecPb::completeEntryFunctionally(PbEntry &e, CrashWork &work)
{
    addEntryWork(e, work);

    if (!_traits.secure) {
        // BBB: the battery just moves the plaintext blocks out.
        _pm.writeData(e.addr, e.plaintext);
        return;
    }

    if (!e.ctrIncremented) {
        e.counter = incrementCounter(e.addr);
        e.ctrIncremented = true;
    }
    if (!e.vOtp) {
        e.otp = generatePad(_keys, e.addr, e.counter);
        e.vOtp = true;
    }
    if (!e.vCt)
        refreshCiphertext(e);
    if (!e.vMac)
        refreshMac(e);
    if (!e.vBmt) {
        // Triad-NVM walks only the persisted levels on battery power (as
        // addEntryWork() prices it); the volatile remainder is rebuilt at
        // recovery (bmtNodesRebuilt, counted by crashDrainAll).
        const std::uint64_t page = _layout.pageIndex(e.addr);
        _walker.tree().updateLeaf(
            page, _walker.tree().leafDigest(_counters.block(page)));
        e.vBmt = true;
    }

    const std::uint64_t page = _layout.pageIndex(e.addr);
    _pm.writeData(e.addr, e.ciphertext);
    _pm.writeCounterBlock(page, _counters.block(page));
    _pm.writeMac(e.addr, e.mac);
}

std::vector<PbEntry *>
SecPb::residentInPersistOrder()
{
    std::vector<PbEntry *> out;
    out.reserve(_index.size());
    for (std::uint64_t i = _oldest; i != NoSlot; i = _order[i].next)
        out.push_back(&_entries[i]);
    return out;
}

CrashWork
SecPb::applicationCrash(std::uint32_t asid, AppCrashPolicy policy)
{
    CrashWork work;
    TRACE_INSTANT_P("secpb", "app_crash", _eq.curTick(), asid);

    // Complete the victims in persist order. Entries with early ops or a
    // drain in flight are left to their normal pipelines -- an
    // application crash does not stop the clock, so in-flight hardware
    // operations retire normally.
    for (PbEntry *ep : residentInPersistOrder()) {
        if (ep->draining || ep->pendingEarlyOps != 0 ||
            (policy == AppCrashPolicy::DrainProcess && ep->asid != asid))
            continue;
        completeEntryFunctionally(*ep, work);
        releaseEntry(*ep);
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
    if (!e.ctrIncremented) {
        if (!ctr_on_chip)
            ++w.counterFetches;
        ++w.countersIncremented;
    }
    if (!e.vOtp)
        ++w.otpsGenerated;
    if (!e.vCt)
        ++w.ciphertexts;
    if (!e.vMac)
        ++w.macsComputed;
    if (!e.vBmt) {
        ++w.bmtRootUpdates;
        w.bmtLevelsWalked += persistedBmtLevels();
    }
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
    if (_traits.flushesHierarchy) {
        w.cacheLinesFlushed = DataHierarchyConfig{}.totalBytes() / BlockSize;
    }
    return w;
}

unsigned
SecPb::persistedBmtLevels() const
{
    const unsigned levels = _walker.tree().numLevels();
    return _traits.partialBmtPersist
               ? std::min(_cfg.params.triadLevels, levels)
               : levels;
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
    const CrashDrainBudget &budget)
{
    CrashWork work;
    panic_if(budget.bounded() && budget.pricing == nullptr,
             "bounded crash-drain budget needs a pricing model");
    TRACE_INSTANT("secpb", "crash_drain", _eq.curTick());

    const auto price = [&budget](const CrashWork &w) {
        return budget.pricing ? budget.pricing->actualCrashEnergy(w) : 0.0;
    };
    const auto fits = [&](const PbEntry &e) {
        CrashWork d;
        addEntryWork(e, d);
        return price(work) + price(d) <= *budget.energyJ;
    };

    if (_dbg)
        DPRINTF("SecPb", "crash drain: %zu resident, %zu sb-absorbed",
                _index.size(), absorbed_stores.size());

    // Battery-backed store buffer: absorb its stores in program order.
    // With an unbounded battery, stores to resident blocks fold into the
    // entry (stale value-dependent fields are invalidated) and the rest
    // complete as one-off tuples after the resident pass. Under a
    // bounded budget, absorbed stores -- the *newest* stores in the
    // persist order -- are instead deferred until every resident entry
    // has drained, so an exhausted battery always loses an in-order
    // suffix rather than tearing the middle of the order.
    std::vector<Addr> absorbed_blocks;
    if (!budget.bounded()) {
        for (const auto &[addr, value] : absorbed_stores) {
            _oracle.applyStore(addr, value);
            if (PbEntry *e = find(addr)) {
                setBlockWord(e->plaintext, blockOffset(addr) / 8, value);
                e->vCt = false;
                e->vMac = false;
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
    // content, with no counter fetch or increment. Visit order is slot
    // order, which is fine: each tuple touches only its own block/page,
    // and the work counters are order-insensitive.
    _spPending.forEach([&](const Addr &addr) {
        PbEntry e;
        e.valid = e.vData = e.ctrIncremented = true;
        e.addr = addr;
        e.counter = _counters.counterFor(addr);
        e.plaintext = _oracle.blockContent(addr);
        completeEntryFunctionally(e, work);
    });
    _spPending.clear();

    // Reserve the crash floor up front: the metadata-cache flush (and
    // eADR's hierarchy flush) outranks draining further entries. It is
    // mandatory, charged even when it alone exceeds a tiny budget (those
    // functional writes happened at drain time and cannot be torn in
    // this model), so energySpentJ can exceed the budget by this fixed
    // floor plus SP's pending tuples above, and by nothing else. The
    // flush itself runs after the entry pass so the cache contents still
    // inform the per-entry predictions.
    work += crashFloorWork();

    // Persist order: complete entries oldest-first. A bounded battery
    // prices each entry before committing to it and stops at the first
    // entry that no longer fits -- the drained set is an in-order prefix
    // and the abandoned suffix is reported for prefix verification.
    for (PbEntry *ep : residentInPersistOrder()) {
        if (work.batteryExhausted || (budget.bounded() && !fits(*ep))) {
            work.batteryExhausted = true;
            work.abandoned.push_back({ep->addr, ep->numWrites});
            continue;
        }
        completeEntryFunctionally(*ep, work);
        work.drainedBlocks.push_back(ep->addr);
        // Leave the index at once (the WPQ content was already
        // functionally applied when pushed -- ADR guarantees it reaches
        // the cell array): a later entry's counter overflow must
        // re-encrypt this block's persisted copy, not a dead buffer copy.
        // Abandoned entries stay resident: their state was never
        // persisted and simply dies with the machine.
        freeSlot(*ep);
    }

    // Complete the absorbed stores. Unbounded: the deduplicated blocks
    // that had no resident entry. Bounded: every store, in program
    // order, each priced as a full one-off tuple; the battery stops
    // mid-list when the budget dies, losing only newer stores.
    const auto complete_absorbed = [&](Addr block) {
        PbEntry tmp;
        tmp.valid = tmp.vData = true;
        tmp.addr = block;
        tmp.plaintext = _oracle.blockContent(block);
        completeEntryFunctionally(tmp, work);
        ++work.absorbedApplied;
    };
    if (!budget.bounded()) {
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

    work.energySpentJ = price(work);
    return work;
}

std::optional<PbEntry>
SecPb::extractForMigration(Addr addr)
{
    PbEntry *e = find(addr);
    if (!e || e->draining || e->pendingEarlyOps != 0)
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
    e.pendingEarlyOps = 0;
    e.drainPending = 0;
    e.pushedData = false;
}

bool
SecPb::flushForRemoteRead(Addr addr)
{
    PbEntry *e = find(addr);
    if (!e || e->draining || e->pendingEarlyOps != 0)
        return false;
    e->draining = true;
    ++_drainsActive;
    startDrainOf(*e);
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
        if (e.draining || e.pendingEarlyOps != 0)
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

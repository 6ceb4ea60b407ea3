#include "core/multicore.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace secpb
{

MultiCoreSystem::MultiCoreSystem(const SystemConfig &base, unsigned cores)
    : _rootStats("mc_system"), _dir(cores, _rootStats)
{
    fatal_if(cores == 0, "need at least one core");
    if (cores == 1) {
        // Nothing to be coherent with: no gate, and the slice keeps the
        // base stat root. solo() reads this decision everywhere else.
        _slices.push_back(std::make_unique<SecPbSystem>(base));
        return;
    }
    // Slice stat roots borrow their names (SystemConfig::statsName is a
    // raw pointer), so fill the name vector up front and never touch it
    // again.
    _sliceNames.reserve(cores);
    for (unsigned i = 0; i < cores; ++i)
        _sliceNames.push_back("core" + std::to_string(i));
    _slices.reserve(cores);
    _gates.reserve(cores);
    for (unsigned i = 0; i < cores; ++i) {
        SystemConfig sc = base;
        sc.statsName = _sliceNames[i].c_str();
        _slices.push_back(std::make_unique<SecPbSystem>(sc));
        _gates.push_back(std::make_unique<CoherenceGate>(_dir, i));
        _slices.back()->secpb().attachGate(_gates.back().get());
    }
}

void
MultiCoreSystem::traceLane(std::size_t lane) const
{
    if (solo())
        return;
    if (obs::Tracer *t = obs::current())
        t->setLane(static_cast<std::uint32_t>(lane));
}

void
MultiCoreSystem::start(std::vector<WorkloadGenerator *> gens)
{
    panic_if(_started, "MultiCoreSystem::start called twice");
    panic_if(gens.size() != _slices.size(),
             "%zu generators for %zu cores", gens.size(), _slices.size());
    _started = true;
    for (std::size_t i = 0; i < _slices.size(); ++i) {
        traceLane(i);
        _slices[i]->start(*gens[i]);
    }
    traceLane(_slices.size());
}

bool
MultiCoreSystem::finished() const
{
    for (const auto &slice : _slices)
        if (!slice->finished())
            return false;
    return true;
}

bool
MultiCoreSystem::anyWorkPending() const
{
    for (std::size_t i = 0; i < _slices.size(); ++i) {
        if (!_slices[i]->eventQueue().empty())
            return true;
        if (!_gates[i]->pending().empty())
            return true;
    }
    return false;
}

void
MultiCoreSystem::advanceSlices(Tick target)
{
    for (std::size_t i = 0; i < _slices.size(); ++i) {
        traceLane(i);
        _slices[i]->runUntil(target);
    }
    // Barrier and crash work records after every core's events.
    traceLane(_slices.size());
}

void
MultiCoreSystem::kickCore(CoreId core, Tick when)
{
    SecPbSystem &s = *_slices[core];
    SecPb *pb = &s.secpb();
    s.eventQueue().schedule(std::max(when, s.eventQueue().curTick()),
                            [pb] { pb->kickSpaceWaiters(); });
}

void
MultiCoreSystem::processBarrier(Tick T)
{
    std::vector<BarrierRequest> &reqs = _barrierReqs;
    reqs.clear();
    for (CoreId c = 0; c < numCores(); ++c)
        for (const PageRequest &r : _gates[c]->pending())
            reqs.push_back(BarrierRequest{r.tick, c, r.seq, r.page});
    if (reqs.empty())
        return;
    // The canonical total order: request time, then core, then per-gate
    // filing order -- a pure function of the simulated run.
    std::sort(reqs.begin(), reqs.end(),
              [](const BarrierRequest &a, const BarrierRequest &b) {
                  if (a.tick != b.tick)
                      return a.tick < b.tick;
                  if (a.core != b.core)
                      return a.core < b.core;
                  return a.seq < b.seq;
              });

    // One action per page per barrier: later requests for a page this
    // barrier already served retry next barrier, against the new owner.
    // A barrier handles a few pages, so a scanned vector is the set.
    std::vector<std::uint64_t> &handled = _barrierHandled;
    handled.clear();
    std::vector<Addr> &entries = _pageScratch;
    for (const BarrierRequest &r : reqs) {
        if (std::find(handled.begin(), handled.end(), r.page) !=
            handled.end())
            continue;
        const CoreId owner = _dir.ownerOfPage(r.page);

        if (owner == r.core) {
            // We own it but a stop mark (from a quiesce whose requester
            // was served or lost) blocked the store. Lift it.
            _gates[r.core]->clearStop(r.page);
            _gates[r.core]->retireRequest(r.page);
            kickCore(r.core, T);
            handled.push_back(r.page);
            continue;
        }

        if (owner == NoOwner) {
            const CoreId res = _dir.residenceOfPage(r.page);
            if (res == NoOwner) {
                // Cold page: claim it, nothing moves.
                _dir.setOwner(r.page, r.core);
                _dir.setResidence(r.page, r.core);
                ++_dir.statFirstTouches;
                _gates[r.core]->retireRequest(r.page);
                kickCore(r.core, T);
                handled.push_back(r.page);
            } else if (res == r.core) {
                // Reclaim after a remote read dropped our ownership;
                // the durable state never left.
                _dir.setOwner(r.page, r.core);
                _gates[r.core]->retireRequest(r.page);
                kickCore(r.core, T);
                handled.push_back(r.page);
            } else {
                // Unowned but resident elsewhere (a remote read flushed
                // it). Wait for the forced drains to settle, then move
                // the durable state over.
                const bool quiescent =
                    _slices[res]->secpb().pageEntries(r.page, entries);
                if (quiescent && entries.empty()) {
                    movePageState(res, r.core, r.page);
                    _dir.setOwner(r.page, r.core);
                    _dir.setResidence(r.page, r.core);
                    ++_dir.statMigrations;
                    _gates[r.core]->retireRequest(r.page);
                    kickCore(r.core, T + MigrationLatency);
                    handled.push_back(r.page);
                }
            }
            continue;
        }

        // Remote write miss: migrate the owner's entries -- with their
        // data-value-independent metadata, per Section IV-C(c) -- plus
        // the page's durable state, if the page is quiescent and the
        // requester has room for every entry.
        SecPb &src = _slices[owner]->secpb();
        SecPb &dst = _slices[r.core]->secpb();
        if (src.pageEntries(r.page, entries) &&
            entries.size() <= dst.freeEntries()) {
            for (Addr a : entries) {
                auto e = src.extractForMigration(a);
                panic_if(!e, "quiescent page %llu lost entry mid-barrier",
                         static_cast<unsigned long long>(r.page));
                dst.injectMigrated(*e);
            }
            movePageState(owner, r.core, r.page);
            _dir.setOwner(r.page, r.core);
            _dir.setResidence(r.page, r.core);
            ++_dir.statMigrations;
            _gates[owner]->clearStop(r.page);
            _gates[r.core]->retireRequest(r.page);
            kickCore(r.core, T + MigrationLatency);
        } else {
            // Quiesce the page: no new stores at the owner, and every
            // extractable entry starts draining so a later barrier can
            // move the page. The request stays pending.
            _gates[owner]->markStop(r.page);
            for (Addr a : entries)
                src.flushForRemoteRead(a);
        }
        handled.push_back(r.page);
    }
}

void
MultiCoreSystem::movePageState(CoreId from, CoreId to, std::uint64_t page)
{
    SecPbSystem &a = *_slices[from];
    SecPbSystem &b = *_slices[to];

    a.pm().movePageTo(b.pm(), page);
    if (a.counters().hasBlock(page)) {
        b.counters().setBlock(page, a.counters().block(page));
        a.counters().erase(page);
    }
    a.oracle().movePageTo(b.oracle(), page);

    // The destination's BMT leaf must cover the page's *working* counter
    // block: eager schemes already hashed in-buffer increments into the
    // source tree, and the migrated entries carry those counters. (The
    // source leaf is left stale; the source no longer holds any state
    // its verifier would check against it.)
    b.tree().updateLeaf(page, b.tree().leafDigest(b.counters().block(page)));
}

void
MultiCoreSystem::runUntil(Tick limit)
{
    panic_if(!_started, "runUntil before start");
    if (solo()) {
        _slices[0]->runUntil(limit);
        _now = std::max(_now, limit);
        return;
    }
    while (_now < limit) {
        const Tick barrier = nextBarrier(_now);
        const Tick target = std::min(limit, barrier);
        advanceSlices(target);
        _now = target;
        // Barriers live on the absolute epoch grid, so a runUntil that
        // stops mid-epoch never shifts when coherence is processed --
        // crash-at-tick experiments see the same schedule as full runs.
        if (target == barrier)
            processBarrier(target);
    }
}

MultiCoreResult
MultiCoreSystem::run(std::vector<WorkloadGenerator *> gens)
{
    if (!_started)
        start(std::move(gens));
    // One core stops at its finishing event, exactly as SecPbSystem::run.
    if (solo())
        _slices[0]->runToEnd();
    while (!finished()) {
        panic_if(!anyWorkPending(),
                 "multi-core deadlock: no events and no page requests "
                 "pending, but not all %u cores have finished",
                 numCores());
        const Tick barrier = nextBarrier(_now);
        advanceSlices(barrier);
        _now = barrier;
        processBarrier(barrier);
    }

    MultiCoreResult res;
    res.perCore.reserve(_slices.size());
    for (const auto &slice : _slices) {
        res.perCore.push_back(slice->result());
        res.execTicks = std::max(res.execTicks, res.perCore.back().execTicks);
        res.totalInstructions += res.perCore.back().instructions;
    }
    res.migrations =
        static_cast<std::uint64_t>(_dir.statMigrations.value());
    res.remoteReadFlushes =
        static_cast<std::uint64_t>(_dir.statRemoteReadFlushes.value());
    res.firstTouches =
        static_cast<std::uint64_t>(_dir.statFirstTouches.value());
    return res;
}

bool
MultiCoreSystem::coreRead(CoreId core, Addr addr)
{
    panic_if(core >= numCores(), "core id %u out of range", core);
    const std::uint64_t page = coherencePage(addr);
    const CoreId owner = _dir.ownerOfPage(page);
    if (owner == NoOwner || owner == core)
        return false;
    // The datum is forwarded from the owner's buffer; durably, the
    // owner's entries for the page flush to its PM and write permission
    // drops (residence stays put until someone writes the page again).
    SecPb &pb = _slices[owner]->secpb();
    pb.pageEntries(page, _pageScratch);
    for (Addr a : _pageScratch)
        pb.flushForRemoteRead(a);
    _dir.clearOwner(page);
    _gates[owner]->clearStop(page);
    ++_dir.statRemoteReadFlushes;
    return true;
}

CrashReport
MultiCoreSystem::crashNow(const CrashOptions &opts)
{
    CrashReport agg;
    agg.batteryBudgetJ = opts.batteryEnergyJ;
    std::optional<double> remaining = opts.batteryEnergyJ;
    bool recovered = true;
    agg.verdict = CrashVerdict::Pass;
    // Add @p v into @p sum when set (unset + unset stays unset).
    auto addTo = [](std::optional<double> &sum, std::optional<double> v) {
        if (v)
            sum = sum.value_or(0.0) + *v;
    };

    // Serial core order: with one shared pool each core drains from what
    // the previous cores left, so the persist-order prefix guarantee
    // holds per core and the pool exhausts deterministically.
    for (const auto &slice : _slices) {
        CrashOptions per;
        per.batteryEnergyJ = remaining;
        const CrashReport cr = slice->crashNow(per);
        if (remaining)
            remaining = std::max(0.0, *remaining - cr.work.energySpentJ);
        else
            addTo(agg.batteryBudgetJ, cr.batteryBudgetJ);
        addTo(agg.batteryAfterJ, cr.batteryAfterJ);
        agg.work += cr.work;
        agg.recovery += cr.recovery;
        agg.actualEnergyJ += cr.actualEnergyJ;
        // Per-core batteries drain in parallel; the observer-blocked
        // window is the slowest core's.
        agg.drainLatency = std::max(agg.drainLatency, cr.drainLatency);
        agg.drainLatencyNs = std::max(agg.drainLatencyNs, cr.drainLatencyNs);
        recovered = recovered && cr.recovered;
        // Each slice judged its own drain; the first failure stands.
        if (agg.verdict == CrashVerdict::Pass)
            agg.verdict = cr.verdict;
    }

    // One battery per core, each sized by the scheme's own rule.
    agg.provisionedEnergyJ =
        numCores() * _slices[0]->provisionedCrashEnergy();
    agg.recovered = recovered;
    return agg;
}

SecPbSystem &
MultiCoreSystem::residentSystem(Addr addr)
{
    const CoreId res = _dir.residence(addr);
    return *_slices[res == NoOwner ? 0 : res];
}

std::uint64_t
MultiCoreSystem::totalPersists() const
{
    std::uint64_t total = 0;
    for (const auto &slice : _slices)
        total += slice->oracle().numPersists();
    return total;
}

bool
MultiCoreSystem::invariantNoReplication() const
{
    // One buffer cannot replicate, and without a gate no page is owned.
    if (solo())
        return true;
    FlatSet<Addr> seen;
    for (CoreId c = 0; c < numCores(); ++c) {
        for (Addr a : _slices[c]->secpb().residentAddrs()) {
            if (!seen.insert(a))
                return false;
            if (_dir.owner(a) != c)
                return false;
        }
    }
    return _dir.invariantSingleOwner();
}

void
MultiCoreSystem::dumpStats(std::ostream &os) const
{
    if (!solo())
        _rootStats.dump(os);
    for (const auto &slice : _slices)
        slice->dumpStats(os);
}

} // namespace secpb

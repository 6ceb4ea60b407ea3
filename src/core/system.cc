#include "core/system.hh"

#include "recovery/drain_latency.hh"

namespace secpb
{

SecPbSystem::SecPbSystem(const SystemConfig &cfg)
    : _cfg(cfg),
      _rootStats(cfg.statsName),
      _layout(cfg.pmDataBytes),
      _counters(_layout),
      _energy(0 /* placeholder, fixed below */)
{
    _pcm = std::make_unique<PcmModel>(_eq, cfg.pcm, _rootStats);
    _wpq = std::make_unique<WritePendingQueue>(_eq, *_pcm, cfg.wpqEntries,
                                               _rootStats);
    _ctrCache = std::make_unique<MetadataCache>(
        "ctr_cache", cfg.ctrCacheGeom, MetadataCacheHitLatency, *_pcm,
        _rootStats);
    _bmtCache = std::make_unique<MetadataCache>(
        "bmt_cache", MetadataCacheGeom, MetadataCacheHitLatency, *_pcm,
        _rootStats, /*writeback_dirty=*/false);
    _macCache = std::make_unique<MetadataCache>(
        "mac_cache", MetadataCacheGeom, MetadataCacheHitLatency, *_pcm,
        _rootStats);
    _crypto = std::make_unique<CryptoEngine>(_eq, cfg.crypto, _rootStats);
    _tree = std::make_unique<BonsaiMerkleTree>(_layout.numPages(),
                                               cfg.keys.macKey ^ 0xb037);
    _walker = std::make_unique<BmtWalker>(_eq, cfg.walker, _layout, *_tree,
                                          *_bmtCache, *_pcm, cfg.crypto,
                                          _rootStats);
    _secpb = std::make_unique<SecPb>(
        _eq, cfg.scheme, cfg.secpb, _layout, cfg.keys, _counters, _oracle,
        _pm, *_crypto, *_walker, *_ctrCache, *_macCache, *_wpq, _energy,
        _rootStats);
    _sb = std::make_unique<StoreBuffer>(_eq, *_secpb,
                                        cfg.storeBufferEntries, _rootStats);
    _cpu = std::make_unique<TraceCpu>(_eq, *_sb, cfg.loadPenalties,
                                      _rootStats);

    _energy = EnergyModel(_tree->numLevels() + 1);

    if (cfg.battery.enabled) {
        fatal_if(cfg.battery.provisionFraction <= 0.0,
                 "battery.provisionFraction must be positive");
        _battery = std::make_unique<Capacitor>(Capacitor::sizedFor(
            cfg.battery.provisionFraction * provisionedCrashEnergy(),
            cfg.battery.cap));
        if (cfg.battery.adaptive.enabled)
            _secpb->attachBatteryMonitor(*_battery);
    }

    if (cfg.obs.samplePeriod > 0) {
        _sampler =
            std::make_unique<obs::Sampler>(_eq, cfg.obs.samplePeriod);
        _sampler->addChannel("secpb_occupancy", [this] {
            return static_cast<double>(_secpb->occupancy());
        });
        _sampler->addChannel("sb_occupancy", [this] {
            return static_cast<double>(_sb->occupancy());
        });
        _sampler->addChannel("wpq_depth", [this] {
            return static_cast<double>(_wpq->occupancy());
        });
        _sampler->addChannel("battery_headroom_j", [this] {
            return provisionedCrashEnergy() -
                   _energy.actualCrashEnergy(
                       _secpb->predictCrashDrainWork());
        });
        _sampler->addChannel("ctr_cache_dirty", [this] {
            return static_cast<double>(_ctrCache->numDirty());
        });
        _sampler->addChannel("mac_cache_dirty", [this] {
            return static_cast<double>(_macCache->numDirty());
        });
        _sampler->addChannel("bmt_inflight_walks", [this] {
            return static_cast<double>(_walker->inFlightWalks());
        });
        if (_battery) {
            _sampler->addChannel("battery_stored_j", [this] {
                return _battery->storedEnergyJ();
            });
            _sampler->addChannel("battery_voltage_v", [this] {
                return _battery->voltage();
            });
            _sampler->addChannel("battery_deliverable_j", [this] {
                return _battery->deliverableEnergyJ();
            });
        }
    }
}

SystemConfig
SecPbSystem::configFor(Scheme scheme, const BenchmarkProfile &profile,
                       const SystemConfig &base)
{
    SystemConfig cfg = base;
    cfg.scheme = scheme;
    cfg.loadPenalties.mem = profile.memPenalty(
        static_cast<double>(cfg.pcm.readLatency));
    if (!cfg.speculativeVerification && schemeTraits(scheme).secure) {
        // Non-speculative: a PM load waits for its counter fetch (mostly
        // a metadata-cache hit) and MAC check before use.
        cfg.loadPenalties.mem += MetadataCacheHitLatency +
                                     static_cast<double>(cfg.crypto.macHash);
    }
    return cfg;
}

void
SecPbSystem::start(WorkloadGenerator &gen)
{
    panic_if(_started, "SecPbSystem::start called twice");
    _started = true;
    if (_sampler) {
        // Per-workload progress channels, only for sources that keep
        // counters (the server-scale generators and trace replay) --
        // profile-driven runs see the exact same channel set as before.
        if (const WorkloadCounters *ctr = gen.counters()) {
            _sampler->addChannel("wl_instructions", [ctr] {
                return static_cast<double>(ctr->instructions);
            });
            _sampler->addChannel("wl_stores", [ctr] {
                return static_cast<double>(ctr->stores);
            });
            _sampler->addChannel("wl_barriers", [ctr] {
                return static_cast<double>(ctr->barriers);
            });
        }
        _sampler->start();
    }
    _cpu->run(gen, [this] {
        _cpuDone = true;
        _sb->notifyWhenEmpty([this] {
            _finished = true;
            _endTick = _eq.curTick();
        });
    });
}

void
SecPbSystem::adoptPersistentState(const PmImage &pm,
                                  const BonsaiMerkleTree &tree,
                                  const PersistOracle &oracle)
{
    panic_if(_started,
             "adoptPersistentState must precede SecPbSystem::start");
    _pm = pm;
    *_tree = tree;
    _oracle = oracle;
}

void
SecPbSystem::applyBrownout(double retain)
{
    fatal_if(!_battery, "applyBrownout needs a system battery "
                        "(BatteryConfig::enabled)");
    const double reserve = _cfg.battery.adaptive.enabled
                               ? _secpb->crashReserveEnergyJ()
                               : 0.0;
    _battery->applyBrownout(retain, reserve);
}

void
SecPbSystem::runUntil(Tick limit)
{
    _eq.run(limit);
}

SimulationResult
SecPbSystem::run(WorkloadGenerator &gen)
{
    start(gen);
    return runToEnd();
}

SimulationResult
SecPbSystem::runToEnd()
{
    while (!_finished) {
        if (_eq.empty()) {
            panic("simulation deadlock: no events pending but the run has "
                  "not finished (SB occupancy %zu, SecPB occupancy %zu)",
                  _sb->occupancy(), _secpb->occupancy());
        }
        _eq.step();
    }
    return result();
}

SimulationResult
SecPbSystem::result() const
{
    SimulationResult r;
    r.execTicks = _finished ? _endTick : _eq.curTick();
    r.instructions = _cpu->instructions();
    r.ipc = r.execTicks
        ? static_cast<double>(r.instructions) / r.execTicks : 0.0;
    r.persists = static_cast<std::uint64_t>(_secpb->statPersists.value());
    r.allocations = static_cast<std::uint64_t>(_secpb->statAllocs.value());
    r.ppti = r.instructions
        ? 1000.0 * r.persists / r.instructions : 0.0;
    r.nwpe = _secpb->statNwpe.count() ? _secpb->statNwpe.mean()
        : (r.allocations ? static_cast<double>(r.persists) / r.allocations
                         : 0.0);
    r.bmtRootUpdates = _walker->rootUpdates();
    r.pageReencryptions =
        static_cast<std::uint64_t>(_secpb->statPageReencrypts.value());
    r.drainedEntries =
        static_cast<std::uint64_t>(_secpb->statDrainedEntries.value());
    r.sbFullStalls =
        static_cast<std::uint64_t>(_cpu->statSbStalls.value());
    r.pbFullRejects =
        static_cast<std::uint64_t>(_secpb->statFullRejects.value());
    r.pcmReads = _pcm->numReads();
    r.pcmWrites = _pcm->numWrites();
    r.ctrCacheHitRate = _ctrCache->hitRate();
    r.bmtCacheHitRate = _bmtCache->hitRate();
    r.meanUnblockLatency = _secpb->statUnblockLatency.mean();
    return r;
}

CrashReport
SecPbSystem::crashNow(const CrashOptions &opts)
{
    // Capture the pre-crash state as one last epoch: the time-series
    // then ends exactly where the battery takes over.
    if (_sampler)
        _sampler->sampleNow();

    CrashReport cr;
    DrainLatencyModel latency(_cfg.crypto, _cfg.pcm);
    // No explicit budget: the physical battery is what we have.
    cr.batteryBudgetJ = opts.batteryEnergyJ;
    if (!cr.batteryBudgetJ && _battery)
        cr.batteryBudgetJ = _battery->deliverableEnergyJ();
    cr.work = _secpb->crashDrainAll(
        _cfg.batteryBackedStoreBuffer
            ? _sb->pendingStores()
            : std::vector<std::pair<Addr, std::uint64_t>>{},
        cr.batteryBudgetJ);
    cr.actualEnergyJ = _energy.actualCrashEnergy(cr.work);
    if (_battery) {
        // The drain physically discharged the cell.
        _battery->deliver(cr.work.energySpentJ);
        cr.batteryAfterJ = _battery->storedEnergyJ();
    }
    cr.drainLatency = latency.estimate(cr.work);
    cr.drainLatencyNs = latency.estimateNs(cr.work);
    cr.provisionedEnergyJ = provisionedCrashEnergy();

    RecoveryVerifier verifier(_layout, _cfg.keys,
                              schemeTraits(_cfg.scheme).secure);
    cr.recovery =
        verifier.verifyAll(_pm, *_tree, _oracle, cr.work.abandoned);
    cr.recovered = cr.recovery.ok();
    cr.verdict = judgeCrash(cr, !opts.batteryEnergyJ && _battery &&
                                    _cfg.battery.adaptive.enabled);
    return cr;
}

} // namespace secpb

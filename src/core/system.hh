/**
 * @file
 * SecPbSystem: the assembled simulated machine and the library's main
 * entry point.
 *
 * Wires together the core, store buffer, SecPB, crypto engine, metadata
 * caches, BMT walker, WPQ, and PCM, per a SystemConfig. One instance
 * models one run; build a fresh instance per (benchmark, scheme) point.
 *
 * Typical use:
 * @code
 *   SystemConfig cfg;
 *   cfg.scheme = Scheme::Cobcm;
 *   SecPbSystem sys(cfg);
 *   SyntheticGenerator gen(profileByName("gamess"), 1'000'000);
 *   SimulationResult r = sys.run(gen);
 * @endcode
 *
 * Crash experiments interrupt a run:
 * @code
 *   sys.start(gen);
 *   sys.runUntil(500'000);
 *   CrashReport cr = sys.crashNow();   // battery drain + recovery verify
 * @endcode
 */

#ifndef SECPB_CORE_SYSTEM_HH
#define SECPB_CORE_SYSTEM_HH

#include <memory>
#include <optional>
#include <ostream>

#include "core/config.hh"
#include "core/results.hh"
#include "cpu/store_buffer.hh"
#include "cpu/trace_cpu.hh"
#include "energy/energy_model.hh"
#include "mem/pcm.hh"
#include "mem/pm_image.hh"
#include "mem/wpq.hh"
#include "metadata/bmt.hh"
#include "metadata/counter_store.hh"
#include "metadata/layout.hh"
#include "metadata/metadata_cache.hh"
#include "metadata/walker.hh"
#include "obs/sampler.hh"
#include "recovery/oracle.hh"
#include "recovery/verifier.hh"
#include "secpb/secpb.hh"
#include "workload/profile.hh"

namespace secpb
{

/** Knobs for a crash experiment (see SecPbSystem::crashNow). */
struct CrashOptions
{
    /**
     * Battery energy available for the crash drain, in joules. Unset
     * (the default) means: use the system-owned Capacitor's live
     * deliverable energy if one is configured, else the classic
     * unbounded correctly-provisioned battery. Fault experiments scale
     * this down from provisionedCrashEnergy() to model an
     * under-provisioned or partially-discharged battery. (Formerly an
     * infinity sentinel; see FaultPlan::batteryFraction.)
     */
    std::optional<double> batteryEnergyJ;
};

/** The assembled simulated machine. */
class SecPbSystem
{
  public:
    explicit SecPbSystem(const SystemConfig &cfg = {});

    /**
     * Convenience: configure the CPU's load penalties from a benchmark
     * profile (PCM read latency and MLP overlap) before building.
     */
    static SystemConfig configFor(Scheme scheme,
                                  const BenchmarkProfile &profile,
                                  const SystemConfig &base = {});

    /** Run @p gen to completion (generator exhausted, store buffer empty). */
    SimulationResult run(WorkloadGenerator &gen);

    /** Run a started workload to completion, stopping at the event that
     *  finishes it (run() is start() plus this). */
    SimulationResult runToEnd();

    /** Begin executing @p gen without advancing time. */
    void start(WorkloadGenerator &gen);

    /** Advance simulated time up to @p limit (or until idle). */
    void runUntil(Tick limit);

    /** True once the workload retired and the store buffer drained. */
    bool finished() const { return _finished; }

    /**
     * Crash now: battery-drain the SecPB, then run recovery verification
     * against the persist oracle. Simulated time does not advance. A
     * bounded battery budget makes the drain stop once the energy runs
     * out; recovery then verifies that the drained entries form an
     * in-order prefix of the persist order and classifies every
     * abandoned block. The report carries the crash's verdict
     * (judgeCrash).
     */
    CrashReport crashNow(const CrashOptions &opts = {});

    /**
     * The worst-case battery energy this configuration provisions
     * (the ceiling that CrashOptions::batteryEnergyJ scales down from).
     */
    double
    provisionedCrashEnergy() const
    {
        return _energy.provisionedEnergy(_cfg.scheme, _cfg.secpb.numEntries,
                                         _cfg.wpqEntries);
    }

    /**
     * Transplant durable state from a previous power cycle into this
     * (not-yet-started) incarnation: the PM image, the BMT, and the
     * persist oracle. Volatile state (counter registers, caches, persist
     * buffers) starts cold -- RestoreManager rebuilds what recovery
     * needs. The physical battery does NOT transfer here; copy the
     * Capacitor state explicitly (it lives outside the machine).
     */
    void adoptPersistentState(const PmImage &pm,
                              const BonsaiMerkleTree &tree,
                              const PersistOracle &oracle);

    /** Result snapshot of the current/finished run. */
    SimulationResult result() const;

    /** Dump the full statistics tree. */
    void dumpStats(std::ostream &os) const { _rootStats.dump(os); }

    /** Root of the hierarchical stat registry (dotted paths from
     *  "system"). */
    const StatGroup &stats() const { return _rootStats; }

    /** The epoch sampler, or nullptr when ObsConfig::samplePeriod is 0.
     *  Channels: secpb_occupancy, sb_occupancy, wpq_depth,
     *  battery_headroom_j, ctr_cache_dirty, mac_cache_dirty,
     *  bmt_inflight_walks; plus battery_stored_j, battery_voltage_v and
     *  battery_deliverable_j when a system Capacitor is configured. */
    obs::Sampler *sampler() { return _sampler.get(); }
    const obs::Sampler *sampler() const { return _sampler.get(); }

    /** @name Component access (tests, examples). */
    /** @{ */
    EventQueue &eventQueue() { return _eq; }
    SecPb &secpb() { return *_secpb; }
    StoreBuffer &storeBuffer() { return *_sb; }
    TraceCpu &cpu() { return *_cpu; }
    PmImage &pm() { return _pm; }
    BonsaiMerkleTree &tree() { return *_tree; }
    BmtWalker &walker() { return *_walker; }
    PersistOracle &oracle() { return _oracle; }
    CounterStore &counters() { return _counters; }
    const MetadataLayout &layout() const { return _layout; }
    PcmModel &pcm() { return *_pcm; }
    WritePendingQueue &wpq() { return *_wpq; }
    MetadataCache &ctrCache() { return *_ctrCache; }
    MetadataCache &bmtCache() { return *_bmtCache; }
    MetadataCache &macCache() { return *_macCache; }
    const SystemConfig &config() const { return _cfg; }
    const EnergyModel &energyModel() const { return _energy; }

    /** The system-owned Capacitor, or nullptr when battery.enabled is
     *  false. Mutable: fault schedules brown it out or recharge it. */
    Capacitor *battery() { return _battery.get(); }
    const Capacitor *battery() const { return _battery.get(); }

    /**
     * Brownout the system battery: the supply sags and the cell keeps
     * only @p retain of its stored charge. When the adaptive drain
     * policy is attached, the BBU's isolation diode protects the
     * committed crash-drain reserve (SecPb::crashReserveEnergyJ) -- the
     * sag bleeds uncommitted headroom only, which is what makes the
     * "drain never needs more than the cell holds" invariant survive
     * arbitrary brownout schedules. Without the policy the sag is
     * unprotected, as the flat-budget model always was.
     */
    void applyBrownout(double retain);
    /** @} */

  private:
    SystemConfig _cfg;
    EventQueue _eq;
    StatGroup _rootStats;

    MetadataLayout _layout;
    PmImage _pm;
    CounterStore _counters;
    PersistOracle _oracle;
    EnergyModel _energy;

    std::unique_ptr<PcmModel> _pcm;
    std::unique_ptr<WritePendingQueue> _wpq;
    std::unique_ptr<MetadataCache> _ctrCache;
    std::unique_ptr<MetadataCache> _bmtCache;
    std::unique_ptr<MetadataCache> _macCache;
    std::unique_ptr<CryptoEngine> _crypto;
    std::unique_ptr<BonsaiMerkleTree> _tree;
    std::unique_ptr<BmtWalker> _walker;
    std::unique_ptr<SecPb> _secpb;
    std::unique_ptr<StoreBuffer> _sb;
    std::unique_ptr<TraceCpu> _cpu;
    std::unique_ptr<obs::Sampler> _sampler;
    std::unique_ptr<Capacitor> _battery;

    bool _started = false;
    bool _cpuDone = false;
    bool _finished = false;
    Tick _endTick = 0;
};

} // namespace secpb

#endif // SECPB_CORE_SYSTEM_HH

/**
 * @file
 * Simulation: the one front door to the simulated machine.
 *
 * Every driver -- bench binaries, the sweep engine's default runner, the
 * fault soak, the intermittent-power injector, examples -- builds its
 * machine from a SimulationSpec and talks to the Simulation facade. The
 * spec pins everything a run needs: the per-core SystemConfig, the core
 * count, and the workload-level knobs the shared CLI owns (instructions,
 * seed, workload selector, battery physics, power schedule). One
 * lifecycle -- start / runUntil / run / crashNow / result -- covers the
 * single-core machine and the multi-core machine; callers stop
 * special-casing which one they drive.
 *
 * cores == 1 instantiates SecPbSystem directly (bit-identical to the
 * pre-facade behavior: no gate, no directory, "system" stat root);
 * cores > 1 instantiates the epoch-barrier MultiCoreSystem.
 *
 * SimulationSpec::fromCli is the single parse point for the spec-level
 * command line: it consumes the flags it owns from argv (leaving
 * sweep-level flags like --jobs for the caller) and validates everything
 * eagerly with diagnostics that list the valid values. Flags are the
 * only way to configure a run; no environment variable feeds the spec.
 */

#ifndef SECPB_CORE_SIMULATION_HH
#define SECPB_CORE_SIMULATION_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/multicore.hh"
#include "core/system.hh"
#include "energy/capacitor.hh"

namespace secpb
{

/** Everything one simulated machine + run needs; see the file comment. */
struct SimulationSpec
{
    /** Per-core machine configuration (every core gets a copy). */
    SystemConfig base;

    /** Simulated cores; 1 = the classic single-core machine. */
    unsigned cores = 1;

    /** Cycles to migrate a page between SecPBs (multi-core). */
    Cycles migrationLatency = 24;

    /** Epoch length in ticks; 0 derives it from migrationLatency. */
    Tick epochTicks = 0;

    /** @name Workload-level knobs owned by the shared CLI. */
    /** @{ */
    std::uint64_t instructions = 300'000;
    std::uint64_t seed = 7;
    std::string workload;        ///< Registry selector; "" = profiles.
    std::string traceRecord;     ///< Record first point's ops; "" = off.
    std::string batteryTech = "ideal";  ///< Capacitor physics preset.
    double batteryDerate = 1.0;  ///< End-of-life capacity derate.
    std::string powerSchedule;   ///< Intermittent power; "" = none.
    /** @} */

    /** The multi-core config this spec describes. */
    MultiCoreConfig
    multiCoreConfig() const
    {
        MultiCoreConfig mc;
        mc.base = base;
        mc.numCores = cores;
        mc.migrationLatency = migrationLatency;
        mc.epochTicks = epochTicks;
        return mc;
    }

    /** The parsed battery physics preset with the derate applied. */
    CapacitorParams batteryParams() const;

    /**
     * Parse and REMOVE the spec-level flags from @p argv (compacting in
     * place, updating @p argc), so the caller's parser only sees what
     * it owns. Flags: --instr, --seed, --workload, --trace-in,
     * --trace-record, --battery-tech, --battery-derate,
     * --power-schedule, --cores. All values are validated eagerly; a
     * bad one dies listing the valid choices.
     */
    static SimulationSpec fromCli(int &argc, char **argv, const char *prog);

    /** Usage text for the flags fromCli owns (callers splice it into
     *  their --help output). */
    static const char *cliHelp();
};

/**
 * Strict decimal parse of a command-line or environment value: the whole
 * of @p v must be one non-negative decimal integer that fits in 64 bits.
 * Anything else (sign, blank, trailing garbage, overflow) dies with a
 * diagnostic naming @p what ("fig6: --jobs"), never a silent truncation.
 */
std::uint64_t parseDecimalU64(const char *what, const char *v);

/**
 * The facade: one machine (single- or multi-core per the spec), one
 * lifecycle. See the file comment.
 */
class Simulation
{
  public:
    explicit Simulation(const SimulationSpec &spec);

    bool multiCore() const { return _multi != nullptr; }
    unsigned numCores() const
    {
        return _multi ? _multi->numCores() : 1;
    }

    /** The single-core machine (panics on a multi-core simulation). */
    SecPbSystem &system();
    /** The multi-core machine (panics on a single-core simulation). */
    MultiCoreSystem &multi();

    /** @name Unified lifecycle. */
    /** @{ */
    /** Begin executing; one generator (single-core). */
    void start(WorkloadGenerator &gen);
    /** Begin executing; one generator per core. */
    void start(std::vector<WorkloadGenerator *> gens);

    /** Advance simulated time to @p limit. */
    void runUntil(Tick limit);

    /** Run one generator to completion (single-core). */
    SimulationResult run(WorkloadGenerator &gen);
    /** Run one generator per core to completion. */
    MultiCoreResult run(std::vector<WorkloadGenerator *> gens);

    bool finished() const;

    /** Crash the machine now (every core, for multi-core specs). */
    CrashReport crashNow(const CrashOptions &opts = {});

    /** Single-core result snapshot (core 0's for multi-core specs). */
    SimulationResult result() const;
    /** @} */

    /** The core-0 epoch sampler (nullptr when sampling is off). */
    obs::Sampler *sampler();

    /** Stat root: the system's (single-core) or core 0's (multi). */
    const StatGroup &stats() const;

    /** Dump every stat tree this machine owns. */
    void dumpStats(std::ostream &os) const;

  private:
    std::unique_ptr<SecPbSystem> _single;
    std::unique_ptr<MultiCoreSystem> _multi;
};

} // namespace secpb

#endif // SECPB_CORE_SIMULATION_HH

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
 * lifecycle -- start / runUntil / run / crashNow / result -- covers
 * every core count.
 *
 * Every Simulation holds one MultiCoreSystem. A single core is its
 * N = 1 case: no coherence gate, no epoch barriers, and the "system"
 * stat root, so it runs exactly SecPbSystem's event sequence.
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
#include "sim/kv_spec.hh"

namespace secpb
{

/** Everything one simulated machine + run needs; see the file comment. */
struct SimulationSpec
{
    /** Per-core machine configuration (every core gets a copy). */
    SystemConfig base;

    /** Simulated cores; 1 = the classic single-core machine. */
    unsigned cores = 1;

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

    /** The parsed battery physics preset with the derate applied. */
    CapacitorParams batteryParams() const;

    /**
     * Parse and REMOVE the spec-level flags from @p argv (compacting in
     * place, updating @p argc), so the caller's parser only sees what
     * it owns. Flags: --instr, --seed, --workload, --trace-in,
     * --trace-record, --battery-tech, --battery-derate,
     * --power-schedule. All values are validated eagerly; a
     * bad one dies listing the valid choices. A flag not given keeps
     * its value in @p defaults (a default-constructed spec if null).
     */
    static SimulationSpec fromCli(int &argc, char **argv, const char *prog,
                                  const SimulationSpec *defaults = nullptr);

    /** Usage text for the flags fromCli owns (callers splice it into
     *  their --help output). */
    static const char *cliHelp();
};

/** The facade: one machine, one lifecycle. See the file comment. */
class Simulation
{
  public:
    explicit Simulation(const SimulationSpec &spec);

    unsigned numCores() const { return _machine->numCores(); }

    /** Core 0's machine slice (the whole machine when single-core). */
    SecPbSystem &system() { return _machine->slice(0); }
    /** The machine, for per-core access. */
    MultiCoreSystem &multi() { return *_machine; }

    /** @name Unified lifecycle. */
    /** @{ */
    /** Begin executing; one generator (single-core). */
    void start(WorkloadGenerator &gen) { _machine->start({&gen}); }
    /** Begin executing; one generator per core. */
    void
    start(std::vector<WorkloadGenerator *> gens)
    {
        _machine->start(std::move(gens));
    }

    /** Advance simulated time to @p limit. */
    void runUntil(Tick limit) { _machine->runUntil(limit); }

    /** Run one generator to completion (single-core). */
    SimulationResult
    run(WorkloadGenerator &gen)
    {
        return _machine->run({&gen}).perCore.front();
    }
    /** Run one generator per core to completion. */
    MultiCoreResult
    run(std::vector<WorkloadGenerator *> gens)
    {
        return _machine->run(std::move(gens));
    }

    bool finished() const { return _machine->finished(); }

    /** Crash the machine now (every core). */
    CrashReport
    crashNow(const CrashOptions &opts = {})
    {
        return _machine->crashNow(opts);
    }

    /** Core 0's result snapshot. */
    SimulationResult result() const { return _machine->slice(0).result(); }
    /** @} */

    /** The core-0 epoch sampler (nullptr when sampling is off). */
    obs::Sampler *sampler() { return system().sampler(); }

    /** Core 0's stat root ("system" when single-core). */
    const StatGroup &stats() const { return _machine->slice(0).stats(); }

    /** Dump every stat tree this machine owns. */
    void dumpStats(std::ostream &os) const { _machine->dumpStats(os); }

  private:
    /** Held by pointer: slices borrow their stat names from the
     *  machine, so it must not move when the Simulation does. */
    std::unique_ptr<MultiCoreSystem> _machine;
};

} // namespace secpb

#endif // SECPB_CORE_SIMULATION_HH

/**
 * @file
 * Fault-injection driver: crash a run at an arbitrary point, drain on a
 * bounded battery, tamper with the PM image, verify recovery.
 *
 * A FaultPlan names the experiment: *when* to crash (an absolute cycle,
 * a persist count, or end-of-run if neither triggers), *how much* battery
 * energy the drain gets (a fraction of the worst-case provisioning), and
 * *what* an attacker corrupts afterwards. FaultInjector executes the plan
 * against one SecPbSystem via the event queue's post-event hook -- the
 * only boundaries where model state is consistent -- so a crash can land
 * between any two events of the simulation, not just at quiescence.
 *
 * The resulting FaultReport composes the crash-drain accounting, the
 * recovery verification (prefix-consistency under a bounded battery), the
 * injected tamper records, and the post-tamper re-verification with the
 * zero-silent-acceptance check.
 */

#ifndef SECPB_FAULT_INJECTOR_HH
#define SECPB_FAULT_INJECTOR_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "core/system.hh"
#include "fault/tamper.hh"

namespace secpb
{

/** One fault-injection experiment. */
struct FaultPlan
{
    /** Crash once simulated time reaches this cycle. */
    std::optional<Tick> crashAtTick;

    /** Crash once this many stores have reached the PoP. */
    std::optional<std::uint64_t> crashAtPersist;

    /**
     * Battery energy as a fraction of the configuration's worst-case
     * provisioning (SecPbSystem::provisionedCrashEnergy). Unset (the
     * default) models the correctly-provisioned battery; values < 1
     * model an under-provisioned or partially-discharged one and force
     * prefix verification. Values >= 1 can still exhaust: for several
     * rows a full drain costs more than the provisioning. An engaged
     * value is one way to initialize a Capacitor; a system-owned
     * Capacitor (see BatteryConfig) supplies the budget when this is
     * unset.
     */
    std::optional<double> batteryFraction;

    /** Number of post-crash tampers to inject (secure schemes only). */
    unsigned tamperCount = 0;

    /** Seed for the tamper injector's RNG. */
    std::uint64_t tamperSeed = 1;

    /** One-line description for reproducer output. */
    std::string describe() const;
};

/** Outcome of one fault-injection experiment. */
struct FaultReport
{
    /** True if the crash interrupted the run (vs. end-of-workload). */
    bool crashedMidRun = false;

    Tick crashTick = 0;
    std::uint64_t persistsAtCrash = 0;

    /** Drain accounting + recovery verification at the crash point. */
    CrashReport crash;

    /** Tampers injected after the drain (empty if none requested). */
    std::vector<TamperRecord> tampers;

    /** Re-verification of the tampered image. */
    RecoveryReport postTamper;

    /** Every injected tamper surfaced as a classified fault. */
    bool tampersAllDetected = true;

    /**
     * The crash's verdict (judgeCrash), then the tamper check: a
     * passing crash with a tamper the re-verification missed is
     * UndetectedTamper. The tampered image itself is *expected* to fail
     * verification -- that failure is the detection.
     */
    CrashVerdict
    verdict() const
    {
        if (crash.verdict != CrashVerdict::Pass)
            return crash.verdict;
        return tampersAllDetected ? CrashVerdict::Pass
                                  : CrashVerdict::UndetectedTamper;
    }

    /** The experiment's pass condition: verdict() is Pass. */
    bool ok() const { return verdict() == CrashVerdict::Pass; }
};

/** Executes one FaultPlan against one system. */
class FaultInjector
{
  public:
    FaultInjector(SecPbSystem &sys, const FaultPlan &plan)
        : _sys(sys), _plan(plan)
    {}

    /** Run @p gen under the plan: crash, drain, tamper, verify. */
    FaultReport run(WorkloadGenerator &gen);

  private:
    SecPbSystem &_sys;
    FaultPlan _plan;
};

/** The synthetic profiles a randomized crash soak draws from. */
inline constexpr const char *SoakProfiles[] = {
    "gamess", "omnetpp", "lbm", "mcf", "libquantum",
};

/**
 * One randomized crash-soak trial, drawn from (seed, trial) alone, so a
 * reproducer's trial replays without its predecessors. Trial t runs
 * SchemeZoo[t % 10] (triad's depth cycling 1..4); the RNG picks the
 * profile, length, workload seed, crash point (a persist count or a
 * cycle), battery fraction (unbounded one time in three) and tampers.
 */
struct SoakTrial
{
    /** The machine and run: the default machine (not the profile's)
     *  with a 1 GiB PM region, the trial's scheme and knobs, its length
     *  and its workload seed. */
    SimulationSpec spec;
    const char *profile;
    FaultPlan plan;

    static SoakTrial draw(std::uint64_t seed, std::uint64_t trial);

    /**
     * "scheme=... profile=... instrs=... wseed=... <plan>"; with a
     * @p workload spec, which runs instead of the drawn profile,
     * "workload=<spec>" takes the profile's place.
     */
    std::string describe(const std::string &workload = {}) const;
};

} // namespace secpb

#endif // SECPB_FAULT_INJECTOR_HH

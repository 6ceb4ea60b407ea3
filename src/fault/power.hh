/**
 * @file
 * Intermittent-power fault mode: seeded schedules of brownouts, repeated
 * crash-recover-crash cycles, and power loss during recovery.
 *
 * A PowerScheduleSpec describes (deterministically, from one seed) a
 * sequence of power cycles. Each cycle boots a *fresh* SecPbSystem
 * incarnation -- volatile state dies with the power -- adopts the
 * durable state carried from the previous cycle (PM image, BMT, persist
 * oracle), restores it via RestoreManager (possibly interrupted partway
 * by another power loss, then re-run), runs a freshly-seeded workload
 * segment on top, possibly browns the capacitor out mid-run, and
 * crashes again on whatever energy the cell still holds. The one piece
 * of state that survives *physically* rather than logically is the
 * Capacitor itself: charge, capacity fade, and ESR growth carry across
 * incarnations, and between cycles it leaks and (partially) recharges.
 *
 * Every cycle's outcome is classified by the prefix-consistency
 * verifier and the restore pass -- zero silent acceptance. Tampers, if
 * requested, are injected only on the final cycle so attacker damage is
 * never conflated with battery loss.
 */

#ifndef SECPB_FAULT_POWER_HH
#define SECPB_FAULT_POWER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "fault/injector.hh"
#include "recovery/restore.hh"

namespace secpb
{

/** Deterministic per-cycle draw from a PowerScheduleSpec. */
struct PowerCycleDraw
{
    std::uint64_t instructions = 0;   ///< Workload segment length.
    std::uint64_t workloadSeed = 0;   ///< Segment generator seed.

    bool crashAtPersist = false;      ///< Else crash at a tick.
    std::uint64_t crashDelta = 0;     ///< Persists (or ticks) into the run.

    bool brownout = false;            ///< Derate the capacitor mid-run.
    double brownoutRetain = 1.0;      ///< Charge fraction retained.
    Tick brownoutTick = 0;            ///< When the sag hits.

    bool interruptRestore = false;    ///< Power loss during recovery.
    std::uint64_t restoreBudget = 0;  ///< Leaf repairs before it dies.

    double rechargeFraction = 1.0;    ///< Charge level at next boot.
    double downtimeS = 0.0;           ///< Powered-off leakage window.

    unsigned tampers = 0;             ///< Final cycle only.
    std::uint64_t tamperSeed = 1;
};

/** A seeded intermittent-power schedule (see file comment). */
struct PowerScheduleSpec
{
    unsigned cycles = 4;
    std::uint64_t seed = 2026;

    std::uint64_t minInstructions = 4000;
    std::uint64_t maxInstructions = 12000;

    double brownoutChance = 0.5;
    double brownoutRetainMin = 0.55;
    double brownoutRetainMax = 0.90;

    double interruptChance = 0.35;

    /** Chance the next boot starts below full charge. */
    double partialRechargeChance = 0.5;
    /** Minimum charge fraction a partial recharge reaches. */
    double rechargeFloor = 0.6;

    /** Capacity fade multiplier applied per power cycle (1 = no aging). */
    double capacityFadePerCycle = 1.0;

    /** Tampers drawn for the final cycle (0..max, inclusive). */
    unsigned finalTamperMax = 2;

    /**
     * Parse a "key=value,..." list (sim/kv_spec.hh; e.g.
     * "cycles=3,brownout=0.5"). Keys: cycles, min-instr, max-instr,
     * brownout, retain-min, retain-max, interrupt, partial-recharge,
     * recharge-floor, fade, tamper-max. Counts fit their field; chances
     * and charge fractions lie in [0, 1] with retain-min <= retain-max,
     * and fade lies in (0, 1]. Unknown keys or malformed or out-of-range
     * values are fatal. The seed is not a key: whoever runs the
     * schedule sets it.
     */
    static PowerScheduleSpec parse(const std::string &text);

    /** One-line description for reproducer output; @p with_seed adds
     *  the seed after the cycle count. */
    std::string describe(bool with_seed = true) const;

    /** The deterministic draw for cycle @p cycle (0-based). */
    PowerCycleDraw draw(unsigned cycle) const;
};

/** What one power cycle did and whether it held the guarantees. */
struct PowerCycleOutcome
{
    FaultReport fault;              ///< Crash + verification of the segment.
    double deliverableAtCrashJ = 0; ///< Capacitor budget at crash time.
    double energySpentJ = 0;        ///< What the drain actually consumed.
    bool brownoutApplied = false;

    /** Restore of the *previous* cycle's crash (cycle 0: all-default). */
    RestoreReport restoreFirst;     ///< Possibly interrupted partway.
    bool restoreInterrupted = false;
    RestoreReport restoreFinal;     ///< The completed (re-run) restore.

    /** Segment verified, restore verified, no silent acceptance. */
    bool ok = false;
};

/** Aggregate outcome of one intermittent-power schedule. */
struct IntermittentReport
{
    std::vector<PowerCycleOutcome> cycles;

    bool
    ok() const
    {
        for (const PowerCycleOutcome &c : cycles)
            if (!c.ok)
                return false;
        return !cycles.empty();
    }
};

/**
 * Executes one PowerScheduleSpec against one configuration. The config
 * must have battery.enabled set -- intermittent power without a physical
 * battery model has no budget to crash on.
 */
class IntermittentPowerInjector
{
  public:
    IntermittentPowerInjector(const SystemConfig &cfg,
                              const PowerScheduleSpec &spec,
                              std::string profile);

    /** Run the full schedule; deterministic for a given (cfg, spec). */
    IntermittentReport run();

  private:
    SystemConfig _cfg;
    PowerScheduleSpec _spec;
    std::string _profile;
};

} // namespace secpb

#endif // SECPB_FAULT_POWER_HH

#include "fault/power.hh"

#include <cstdio>
#include <memory>
#include <utility>

#include "core/simulation.hh"
#include "obs/trace.hh"
#include "recovery/restore.hh"
#include "sim/kv_spec.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/synthetic.hh"

namespace secpb
{

PowerScheduleSpec
PowerScheduleSpec::parse(const std::string &text)
{
    KvSpec kv = KvSpec::parsePairs(text, "power schedule");
    // A probability or charge fraction: a number in [0, 1].
    auto fraction = [&kv](const char *key, double fallback) {
        const double d = kv.number(key, fallback);
        fatal_if(d > 1.0, "power schedule: %s must be in [0, 1], got %g",
                 key, d);
        return d;
    };
    PowerScheduleSpec spec;
    spec.cycles = kv.count("cycles", spec.cycles);
    spec.minInstructions = kv.count("min-instr", spec.minInstructions);
    spec.maxInstructions = kv.count("max-instr", spec.maxInstructions);
    spec.brownoutChance = fraction("brownout", spec.brownoutChance);
    spec.brownoutRetainMin = fraction("retain-min", spec.brownoutRetainMin);
    spec.brownoutRetainMax = fraction("retain-max", spec.brownoutRetainMax);
    spec.interruptChance = fraction("interrupt", spec.interruptChance);
    spec.partialRechargeChance =
        fraction("partial-recharge", spec.partialRechargeChance);
    spec.rechargeFloor = fraction("recharge-floor", spec.rechargeFloor);
    spec.capacityFadePerCycle =
        kv.number("fade", spec.capacityFadePerCycle);
    spec.finalTamperMax = kv.count("tamper-max", spec.finalTamperMax);
    kv.finish();

    fatal_if(spec.cycles == 0, "power schedule: cycles must be >= 1");
    fatal_if(spec.maxInstructions < spec.minInstructions,
             "power schedule: max-instr < min-instr");
    fatal_if(spec.brownoutRetainMax < spec.brownoutRetainMin,
             "power schedule: retain-max < retain-min");
    fatal_if(!(spec.capacityFadePerCycle > 0.0 &&
               spec.capacityFadePerCycle <= 1.0),
             "power schedule: fade must be in (0, 1]");
    return spec;
}

std::string
PowerScheduleSpec::describe(bool with_seed) const
{
    const std::string seed_part =
        with_seed ? " seed=" + std::to_string(seed) : "";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "cycles=%u%s instr=[%llu,%llu] brownout=%.2f "
                  "retain=[%.2f,%.2f] interrupt=%.2f partial=%.2f "
                  "floor=%.2f fade=%.3f tamper-max=%u",
                  cycles, seed_part.c_str(),
                  static_cast<unsigned long long>(minInstructions),
                  static_cast<unsigned long long>(maxInstructions),
                  brownoutChance, brownoutRetainMin, brownoutRetainMax,
                  interruptChance, partialRechargeChance, rechargeFloor,
                  capacityFadePerCycle, finalTamperMax);
    return buf;
}

PowerCycleDraw
PowerScheduleSpec::draw(unsigned cycle) const
{
    // One independent stream per cycle: draw(k) never depends on how
    // many values earlier cycles consumed, so adding a knob to one
    // cycle's logic cannot silently reshuffle the whole schedule.
    Rng rng(seed * 0x100000001b3ULL + cycle);

    PowerCycleDraw d;
    d.instructions = minInstructions +
                     rng.below(maxInstructions - minInstructions + 1);
    d.workloadSeed = rng.next();

    // Crash mostly on a persist count (robust to workload mix); one in
    // four cycles crashes on a raw tick to land between arbitrary
    // events. Either way, overshooting the segment degenerates to an
    // end-of-workload crash, which still drains whatever is resident.
    d.crashAtPersist = !rng.chance(0.25);
    if (d.crashAtPersist)
        d.crashDelta = 40 + rng.below(d.instructions / 8 + 1);
    else
        d.crashDelta = 20'000 + rng.below(180'000);

    d.brownout = rng.chance(brownoutChance);
    d.brownoutRetain = brownoutRetainMin +
                       rng.uniform() *
                           (brownoutRetainMax - brownoutRetainMin);
    d.brownoutTick = 2'000 + rng.below(30'000);

    d.interruptRestore = rng.chance(interruptChance);
    d.restoreBudget = rng.below(3);

    d.rechargeFraction = rng.chance(partialRechargeChance)
                             ? rechargeFloor +
                                   rng.uniform() * (1.0 - rechargeFloor)
                             : 1.0;
    d.downtimeS = rng.uniform() * 30.0;

    if (cycle + 1 == cycles && finalTamperMax > 0)
        d.tampers = static_cast<unsigned>(rng.below(finalTamperMax + 1));
    d.tamperSeed = rng.next() | 1;
    return d;
}

IntermittentPowerInjector::IntermittentPowerInjector(
    const SystemConfig &cfg, const PowerScheduleSpec &spec,
    std::string profile)
    : _cfg(cfg), _spec(spec), _profile(std::move(profile))
{
    fatal_if(!_cfg.battery.enabled,
             "intermittent power needs a physical battery model "
             "(BatteryConfig::enabled)");
}

IntermittentReport
IntermittentPowerInjector::run()
{
    IntermittentReport report;

    // Durable state carried across power cycles. The PM image, BMT, and
    // oracle survive *logically* (adopted by the next incarnation); the
    // Capacitor survives *physically* (same cell, aged and re-charged).
    PmImage pm;
    PersistOracle oracle;
    Capacitor cell;
    std::vector<AbandonedResidency> abandoned;
    // The tree needs system geometry; captured from the first incarnation.
    std::unique_ptr<BonsaiMerkleTree> tree;

    const BenchmarkProfile profile = profileByName(_profile);

    for (unsigned cycle = 0; cycle < _spec.cycles; ++cycle) {
        const PowerCycleDraw d = _spec.draw(cycle);
        PowerCycleOutcome out;

        // Each incarnation is a fresh machine built through the facade;
        // the injector drives the single-core system underneath.
        SimulationSpec spec;
        spec.base = _cfg;
        Simulation incarnation(spec);
        SecPbSystem &sys = incarnation.system();
        TRACE_INSTANT("fault", "power_cycle", sys.eventQueue().curTick());

        if (cycle == 0) {
            // First boot: pristine machine, nothing to restore.
            out.restoreFirst.complete = out.restoreFirst.verified = true;
            out.restoreFinal = out.restoreFirst;
            cell = *sys.battery();
        } else {
            sys.adoptPersistentState(pm, *tree, oracle);

            // The physical cell sat powered off (leaking), aged one
            // cycle, and the returning wall power recharged it -- maybe
            // only partially if the outage recurs quickly.
            cell.leak(d.downtimeS);
            cell.age(_spec.capacityFadePerCycle);
            const double have =
                cell.capacityJ() > 0.0
                    ? cell.storedEnergyJ() / cell.capacityJ()
                    : 0.0;
            if (d.rechargeFraction > have)
                cell.setChargeFraction(d.rechargeFraction);

            // Restore, possibly dying partway through the BMT rebuild.
            // The model is functional, so "reboot and retry" is exactly
            // a second restore() call over the same durable state: the
            // repairs that did complete persisted, steps 1-2 re-run
            // idempotently, and the walk resumes in the same order.
            RestoreOptions ro;
            if (d.interruptRestore)
                ro.maxLeafRepairs = d.restoreBudget;
            RestoreManager rm(sys);
            out.restoreFirst = rm.restore(abandoned, ro);
            out.restoreInterrupted = !out.restoreFirst.complete;
            out.restoreFinal = out.restoreInterrupted
                                   ? rm.restore(abandoned)
                                   : out.restoreFirst;
        }
        *sys.battery() = cell;

        // Brownout mid-segment: the supply sags and the cell bleeds
        // charge into the dying rails (minus the BBU-protected reserve
        // when the adaptive policy is attached). The adaptive policy
        // sees the reduced headroom on its next gate check.
        if (d.brownout) {
            sys.eventQueue().schedule(
                d.brownoutTick, [&sys, &out, retain = d.brownoutRetain] {
                    sys.applyBrownout(retain);
                    out.brownoutApplied = true;
                });
        }

        FaultPlan plan;
        if (d.crashAtPersist)
            plan.crashAtPersist = oracle.numPersists() + d.crashDelta;
        else
            plan.crashAtTick = d.crashDelta;
        // No batteryFraction: the budget comes from the live Capacitor.
        plan.tamperCount = d.tampers;
        plan.tamperSeed = d.tamperSeed;

        SyntheticGenerator gen(profile, d.instructions, d.workloadSeed);
        FaultInjector injector(sys, plan);
        out.fault = injector.run(gen);

        // The cycle's pass condition: the previous crash restored to a
        // verified image, and this crash passed its verdict.
        out.ok = out.restoreFinal.complete && out.restoreFinal.verified &&
                 out.fault.ok();

        // Carry the durable world into the next incarnation.
        pm = sys.pm();
        if (!tree)
            tree = std::make_unique<BonsaiMerkleTree>(sys.tree());
        else
            *tree = sys.tree();
        oracle = sys.oracle();
        cell = *sys.battery();
        abandoned = out.fault.crash.work.abandoned;

        report.cycles.push_back(std::move(out));
    }
    return report;
}

} // namespace secpb

#include "fault/injector.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace secpb
{

std::string
FaultPlan::describe() const
{
    std::string out;
    char buf[96];
    if (crashAtTick) {
        std::snprintf(buf, sizeof(buf), "crash@tick=%llu",
                      static_cast<unsigned long long>(*crashAtTick));
        out += buf;
    }
    if (crashAtPersist) {
        std::snprintf(buf, sizeof(buf), "%scrash@persist=%llu",
                      out.empty() ? "" : " ",
                      static_cast<unsigned long long>(*crashAtPersist));
        out += buf;
    }
    if (out.empty())
        out = "crash@end";
    if (batteryFraction) {
        std::snprintf(buf, sizeof(buf), " battery=%.4f",
                      *batteryFraction);
        out += buf;
    }
    if (tamperCount) {
        std::snprintf(buf, sizeof(buf), " tampers=%u tamper_seed=%llu",
                      tamperCount,
                      static_cast<unsigned long long>(tamperSeed));
        out += buf;
    }
    return out;
}

FaultReport
FaultInjector::run(WorkloadGenerator &gen)
{
    FaultReport report;
    EventQueue &eq = _sys.eventQueue();

    _sys.start(gen);

    if (_plan.crashAtPersist) {
        const std::uint64_t target = *_plan.crashAtPersist;
        eq.setPostEventHook([this, &eq, target] {
            if (_sys.oracle().numPersists() >= target)
                eq.requestStop();
        });
    }

    const Tick limit = _plan.crashAtTick.value_or(MaxTick);
    eq.run(limit);
    eq.clearPostEventHook();
    eq.clearStop();

    report.crashTick = eq.curTick();
    report.persistsAtCrash = _sys.oracle().numPersists();
    report.crashedMidRun = !_sys.finished();

    TRACE_INSTANT("fault", "crash", report.crashTick);

    CrashOptions opts;
    if (_plan.batteryFraction)
        opts.batteryEnergyJ =
            *_plan.batteryFraction * _sys.provisionedCrashEnergy();
    report.crash = _sys.crashNow(opts);
    TRACE_INSTANT("fault",
                  report.crash.work.batteryExhausted
                      ? "battery_exhausted" : "drain_complete",
                  report.crashTick);

    // Tamper phase: corrupt the post-drain image, then re-verify and
    // demand that every mutation is flagged. Only meaningful for secure
    // schemes -- BBB plaintext carries no integrity metadata.
    if (_plan.tamperCount > 0 &&
        schemeTraits(_sys.config().scheme).secure) {
        std::unordered_set<Addr> abandoned;
        for (const AbandonedResidency &a : report.crash.work.abandoned)
            abandoned.insert(blockAlign(a.addr));

        // Victims: blocks fully persisted and actually present in PM.
        // Tampering an abandoned block would conflate attacker damage
        // with battery loss and make detection attribution ambiguous.
        std::vector<Addr> candidates;
        for (Addr addr : _sys.oracle().touchedBlocks())
            if (!abandoned.count(addr) && _sys.pm().hasData(addr))
                candidates.push_back(addr);
        std::sort(candidates.begin(), candidates.end());

        TamperInjector injector(_plan.tamperSeed);
        report.tampers =
            injector.inject(_sys.pm(), _sys.tree(), _sys.layout(),
                            candidates, _plan.tamperCount);
        TRACE_INSTANT("fault", "tamper", report.crashTick);

        RecoveryVerifier verifier(_sys.layout(), _sys.config().keys);
        report.postTamper =
            verifier.verifyAll(_sys.pm(), _sys.tree(), _sys.oracle(),
                               report.crash.work.abandoned);
        report.tampersAllDetected = TamperInjector::allDetected(
            report.tampers, report.postTamper, _sys.layout(), _sys.tree());
        TRACE_INSTANT("fault",
                      report.tampersAllDetected ? "recovery_verified"
                                                : "recovery_failed",
                      report.crashTick);
    }

    return report;
}

SoakTrial
SoakTrial::draw(std::uint64_t seed, std::uint64_t trial)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + trial);
    SoakTrial t;
    // Round-robin over the zoo so every scheme soaks regardless of the
    // trial count; the triad depth cycles through its useful range.
    t.scheme = SchemeZoo[trial % std::size(SchemeZoo)];
    if (t.scheme == Scheme::Triad)
        t.params.triadLevels = 1 + static_cast<unsigned>(trial % 4);
    t.profile = SoakProfiles[rng.below(std::size(SoakProfiles))];
    t.instructions = 8'000 + rng.below(8'000);
    t.workloadSeed = rng.next();
    if (rng.chance(0.5))
        t.plan.crashAtPersist = 1 + rng.below(220);
    else
        t.plan.crashAtTick = 100 + rng.below(40'000);
    // A third of trials keep the correctly provisioned battery (must
    // abandon nothing); the rest scale it down to force partial drains.
    if (!rng.chance(1.0 / 3.0))
        t.plan.batteryFraction = rng.uniform();
    t.plan.tamperCount = static_cast<unsigned>(rng.below(4));
    t.plan.tamperSeed = rng.next();
    return t;
}

std::string
SoakTrial::describe(const std::string &workload) const
{
    return std::string("scheme=") + schemeSpecName(scheme, params) +
           (workload.empty() ? " profile=" + std::string(profile)
                             : " workload=" + workload) +
           " instrs=" + std::to_string(instructions) +
           " wseed=" + std::to_string(workloadSeed) + " " + plan.describe();
}

} // namespace secpb

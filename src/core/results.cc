#include "core/results.hh"

#include <algorithm>

#include "stats/json.hh"

namespace secpb
{

void
SimulationResult::toJson(JsonWriter &w) const
{
    w.beginObject();
    visitFields([&w](const char *name, auto v) { w.field(name, v); });
    w.endObject();
}

const char *
crashVerdictName(CrashVerdict v)
{
    static constexpr const char *Names[] = {
        "pass", "inconsistent recovery", "undetected tamper",
        "abandoned entries the battery could pay for", "battery overspent",
    };
    return Names[static_cast<int>(v)];
}

CrashVerdict
judgeCrash(const CrashReport &cr, bool budget_is_ceiling)
{
    if (!cr.recovery.ok())
        return CrashVerdict::InconsistentRecovery;
    const CrashWork &w = cr.work;
    const std::optional<double> &budget = cr.batteryBudgetJ;
    if (budget ? !w.abandoned.empty() && !w.batteryExhausted
               : !w.abandoned.empty() || w.batteryExhausted)
        return CrashVerdict::UnpaidAbandon;
    if (!budget)
        return CrashVerdict::Pass;
    const double allowance =
        budget_is_ceiling ? *budget : std::max(*budget, w.mandatoryJ);
    return w.energySpentJ <= allowance + 1e-12 ? CrashVerdict::Pass
                                               : CrashVerdict::Overspent;
}

} // namespace secpb

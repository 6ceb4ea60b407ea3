/**
 * @file
 * Result records returned by SecPbSystem runs and crash experiments.
 */

#ifndef SECPB_CORE_RESULTS_HH
#define SECPB_CORE_RESULTS_HH

#include <cstdint>
#include <optional>

#include "recovery/verifier.hh"
#include "secpb/secpb.hh"

namespace secpb
{

class JsonWriter;

/** Summary of one timed execution. */
struct SimulationResult
{
    std::uint64_t execTicks = 0;      ///< Retire-to-SB-empty time.
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    std::uint64_t persists = 0;       ///< Stores accepted by the SecPB.
    std::uint64_t allocations = 0;    ///< SecPB entry allocations.
    double ppti = 0.0;                ///< Persists per kilo-instruction.
    double nwpe = 0.0;                ///< Mean writes per entry residency.
    std::uint64_t bmtRootUpdates = 0;
    std::uint64_t pageReencryptions = 0;
    std::uint64_t drainedEntries = 0;
    std::uint64_t sbFullStalls = 0;
    std::uint64_t pbFullRejects = 0;
    std::uint64_t pcmReads = 0;
    std::uint64_t pcmWrites = 0;
    double ctrCacheHitRate = 0.0;
    double bmtCacheHitRate = 0.0;
    double meanUnblockLatency = 0.0;

    /**
     * Visit every field as (name, value). The single source of truth for
     * serializing a result: toJson() and any tabular dumper iterate this
     * list, so adding a field here is the whole change.
     */
    template <typename F>
    void
    visitFields(F &&f) const
    {
        f("exec_ticks", execTicks);
        f("instructions", instructions);
        f("ipc", ipc);
        f("persists", persists);
        f("allocations", allocations);
        f("ppti", ppti);
        f("nwpe", nwpe);
        f("bmt_root_updates", bmtRootUpdates);
        f("page_reencryptions", pageReencryptions);
        f("drained_entries", drainedEntries);
        f("sb_full_stalls", sbFullStalls);
        f("pb_full_rejects", pbFullRejects);
        f("pcm_reads", pcmReads);
        f("pcm_writes", pcmWrites);
        f("ctr_cache_hit_rate", ctrCacheHitRate);
        f("bmt_cache_hit_rate", bmtCacheHitRate);
        f("mean_unblock_latency", meanUnblockLatency);
    }

    /** Serialize as one JSON object via the field visitor. */
    void toJson(JsonWriter &w) const;
};

/**
 * A crash's verdict: Pass, or the first rule it broke. Every crashNow
 * judges its own crash (judgeCrash); FaultReport::verdict adds the
 * tamper check.
 */
enum class CrashVerdict
{
    Pass,
    InconsistentRecovery,
    UndetectedTamper,
    UnpaidAbandon,  ///< Abandoned unexhausted, or a full battery ran dry.
    Overspent,      ///< Spent past the allowance (see judgeCrash).
};

/** "inconsistent recovery", "undetected tamper", ... ("pass"). */
const char *crashVerdictName(CrashVerdict v);

/** Outcome of a crash + battery-drain + recovery experiment. */
struct CrashReport
{
    CrashWork work;               ///< What the battery actually did.
    RecoveryReport recovery;      ///< Integrity/plaintext verification.
    double provisionedEnergyJ = 0.0;  ///< Worst-case battery sizing.
    double actualEnergyJ = 0.0;       ///< Energy this drain consumed.
    Cycles drainLatency = 0;          ///< Observer-blocked window (cycles).
    bool recovered = false;           ///< True when recovery verified.
    /** The crash's verdict (unjudged: as `recovered` says). */
    CrashVerdict verdict = CrashVerdict::InconsistentRecovery;

    /** Energy budget the drain ran under (unset = unbounded). */
    std::optional<double> batteryBudgetJ;

    /** Capacitor charge remaining after the drain (system battery only). */
    std::optional<double> batteryAfterJ;
};

/**
 * The one crash verdict; its rules, in order:
 *  - InconsistentRecovery: recovery did not verify.
 *  - UnpaidAbandon: an unbounded battery abandoned anything or ran dry,
 *    or a budgeted one abandoned an entry without running dry.
 *  - Overspent: the drain spent more than its allowance (+1e-12 J).
 *    With @p budget_is_ceiling (the budget is the machine's own cell
 *    and the adaptive policy is attached, so it promises to fit even
 *    the mandatory work) the allowance is the budget; otherwise it is
 *    max(budget, work.mandatoryJ), since the crash floor and SP's
 *    pending tuples are charged whatever the budget.
 */
CrashVerdict judgeCrash(const CrashReport &cr, bool budget_is_ceiling);

} // namespace secpb

#endif // SECPB_CORE_RESULTS_HH

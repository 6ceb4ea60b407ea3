/**
 * @file
 * ExperimentPoint: one cell of the evaluation cross-product.
 *
 * The paper's evaluation space is (persistency scheme x benchmark profile
 * x SecPB size x BMF mode x battery budget x ...); a point pins one
 * coordinate of it. Points are self-contained and deterministic: the seed
 * lives in the point, every simulation object is constructed fresh by the
 * runner, and no state is shared between points -- which is what lets the
 * SweepRunner execute them on any number of threads with bit-identical
 * results.
 *
 * Two escape hatches keep the descriptor generic:
 *  - `configure` applies free-form SystemConfig overrides (ablation knobs
 *    like drain width or watermarks) after the scheme/profile defaults;
 *    `tags` records what the override did, so the JSON stays
 *    self-describing even though a closure is not serializable.
 *  - `custom` replaces the default single-core run-to-completion runner
 *    entirely, for points that crash mid-run, build a multi-core
 *    Simulation, or only evaluate the energy model.
 */

#ifndef SECPB_EXP_EXPERIMENT_HH
#define SECPB_EXP_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/results.hh"
#include "metadata/walker.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "secpb/scheme.hh"

namespace secpb
{

struct SystemConfig;

/** What one executed point reports back. */
struct ExperimentResult
{
    /** Timing/coalescing summary (default-constructed for points whose
     *  custom runner measures something else entirely). */
    SimulationResult sim;

    /** Bench-specific named metrics (crash windows, battery volumes,
     *  migration counts, ...), serialized under "extra". */
    std::vector<std::pair<std::string, double>> extra;

    /** Epoch time-series (empty unless the point set samplePeriod).
     *  Deterministic: sampling probes never perturb the simulation. */
    obs::SampleSeries samples;

    /** Full stats dump as a compact JSON object (empty unless the point
     *  set captureStats), spliced into the sweep document verbatim. */
    std::string statsJson;

    /** Host wall-clock seconds this point took. Excluded from the
     *  determinism contract (the only non-deterministic field). */
    double hostSeconds = 0.0;

    double
    extraValue(const std::string &name, double fallback = 0.0) const
    {
        for (const auto &[k, v] : extra)
            if (k == name)
                return v;
        return fallback;
    }
};

/** One cell of the sweep cross-product. */
struct ExperimentPoint
{
    /** Row/column label in the bench's printed table ("gamess/CM"). */
    std::string label;

    Scheme scheme = Scheme::Bbb;

    /** Scheme knobs (triad:levels=N); inert for unparameterized
     *  schemes. Applied to SystemConfig::secpb.params by the default
     *  runner before `configure` runs. */
    SchemeParams schemeParams;

    /** Synthetic profile name; "" for points that don't run one. */
    std::string profile;

    /**
     * Registry workload selector ("kv_wal:puts=0.8", "replay:file=x");
     * "" runs the synthetic profile instead. When set, `profile` only
     * picks the machine model (default: serverWorkloadProfile()).
     */
    std::string workload;

    /** Record the executed op stream to this trace file (workload or
     *  profile runs alike); "" disables recording. */
    std::string traceRecord;

    std::uint64_t instructions = 0;
    unsigned secpbEntries = 32;
    BmfMode bmf = BmfMode::None;

    /** Workload seed. Determinism is per-point: same seed, same result,
     *  regardless of which thread runs it or in what order. */
    std::uint64_t seed = 7;

    /** Epoch-sample the built-in channels every this many ticks
     *  (0 = off). Honored by the default runner; custom runners that
     *  build their own system must apply it themselves. */
    Tick samplePeriod = 0;

    /** Embed the full stats dump in this point's JSON. */
    bool captureStats = false;

    /**
     * Tracer to record this point's timeline into (not owned; may be
     * nullptr). The runner installs it as the thread's trace session
     * for the duration of the run, so exactly this point is traced
     * even when the sweep fans out across threads.
     */
    obs::Tracer *tracer = nullptr;

    /** Human-readable record of config overrides, serialized to JSON. */
    std::vector<std::pair<std::string, std::string>> tags;

    /** Free-form SystemConfig override, applied after scheme/profile
     *  defaults and the secpbEntries/bmf fields. */
    std::function<void(SystemConfig &)> configure;

    /** Replaces the default runner when set. */
    std::function<ExperimentResult(const ExperimentPoint &)> custom;

    ExperimentPoint &
    tag(std::string k, std::string v)
    {
        tags.emplace_back(std::move(k), std::move(v));
        return *this;
    }
};

/** Name for serialization ("none" / "dbmf" / "sbmf"). */
const char *bmfModeName(BmfMode mode);

/**
 * Execute one point: the custom runner if set, otherwise a fresh
 * single-core Simulation over a fresh generator, run to completion.
 * hostSeconds is left 0 -- the SweepRunner stamps it.
 */
ExperimentResult runExperimentPoint(const ExperimentPoint &point);

} // namespace secpb

#endif // SECPB_EXP_EXPERIMENT_HH

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
 * A point is one SimulationSpec -- the machine plus the run knobs --
 * with a label, the profile it models, and tags. makePoint() applies the
 * scheme/profile defaults once, where the point is made; callers then
 * edit `spec` directly (SecPB size, BMF mode, ablation knobs) and record
 * what they changed in `tags`, so the JSON stays self-describing. A
 * `custom` runner replaces the default single-core run-to-completion
 * runner for points that crash mid-run, build a multi-core Simulation,
 * or only evaluate the energy model; one that simulates builds from
 * `Simulation(point.spec)` over `pointWorkload(point)` like the default.
 */

#ifndef SECPB_EXP_EXPERIMENT_HH
#define SECPB_EXP_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/results.hh"
#include "core/simulation.hh"
#include "metadata/walker.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "secpb/scheme.hh"

namespace secpb
{

/** What one executed point reports back. */
struct ExperimentResult
{
    /** Timing/coalescing summary (default-constructed for points whose
     *  custom runner measures something else entirely). */
    SimulationResult sim;

    /** Bench-specific named metrics (crash windows, battery volumes,
     *  migration counts, ...), serialized under "extra". */
    std::vector<std::pair<std::string, double>> extra;

    /** Epoch time-series (empty unless spec.base.obs.samplePeriod is set).
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

    /** Synthetic profile name; "" for points that don't run one. When
     *  spec.workload is set it only names the machine model. */
    std::string profile;

    /** The machine and run knobs. The default runner simulates exactly
     *  this; spec.workload ("kv_wal:puts=0.8", "replay:file=x") runs a
     *  registry workload instead of the profile's synthetic stream, and
     *  spec.traceRecord records the executed op stream. */
    SimulationSpec spec;

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
 * A point of @p scheme on @p profile: spec.base is
 * SecPbSystem::configFor(scheme, profile), with an empty @p profile
 * meaning serverWorkloadProfile() (the machine model of registry
 * workloads). Everything else keeps the SimulationSpec defaults.
 */
ExperimentPoint makePoint(Scheme scheme, const std::string &profile);

/**
 * The op stream @p point runs: the registry workload spec.workload, else
 * the synthetic stream of its profile, recorded to spec.traceRecord when
 * that is set.
 */
std::unique_ptr<WorkloadGenerator> pointWorkload(const ExperimentPoint &point);

/**
 * Execute one point: the custom runner if set, otherwise a fresh
 * Simulation(point.spec) over pointWorkload(point), run to completion.
 * hostSeconds is left 0 -- the SweepRunner stamps it.
 */
ExperimentResult runExperimentPoint(const ExperimentPoint &point);

} // namespace secpb

#endif // SECPB_EXP_EXPERIMENT_HH

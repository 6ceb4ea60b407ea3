#include "exp/experiment.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "core/simulation.hh"
#include "sim/logging.hh"
#include "stats/json.hh"
#include "workload/registry.hh"
#include "workload/synthetic.hh"
#include "workload/trace_file.hh"

namespace secpb
{

const char *
bmfModeName(BmfMode mode)
{
    switch (mode) {
      case BmfMode::None: return "none";
      case BmfMode::Dbmf: return "dbmf";
      case BmfMode::Sbmf: return "sbmf";
    }
    return "?";
}

namespace
{

/**
 * Fold a multi-core run into one SimulationResult: counters sum, the
 * throughput ratios are recomputed from the sums, and the per-core mean
 * rates average arithmetically. Purely a function of the (deterministic)
 * per-core results, so the aggregate inherits the determinism contract.
 */
SimulationResult
aggregateResult(const MultiCoreResult &mr)
{
    SimulationResult agg;
    agg.execTicks = mr.execTicks;
    for (const SimulationResult &r : mr.perCore) {
        agg.instructions += r.instructions;
        agg.persists += r.persists;
        agg.allocations += r.allocations;
        agg.bmtRootUpdates += r.bmtRootUpdates;
        agg.pageReencryptions += r.pageReencryptions;
        agg.drainedEntries += r.drainedEntries;
        agg.sbFullStalls += r.sbFullStalls;
        agg.pbFullRejects += r.pbFullRejects;
        agg.pcmReads += r.pcmReads;
        agg.pcmWrites += r.pcmWrites;
        agg.nwpe += r.nwpe;
        agg.ctrCacheHitRate += r.ctrCacheHitRate;
        agg.bmtCacheHitRate += r.bmtCacheHitRate;
        agg.meanUnblockLatency += r.meanUnblockLatency;
    }
    const double cores = static_cast<double>(mr.perCore.size());
    if (cores > 0) {
        agg.nwpe /= cores;
        agg.ctrCacheHitRate /= cores;
        agg.bmtCacheHitRate /= cores;
        agg.meanUnblockLatency /= cores;
    }
    if (agg.execTicks > 0)
        agg.ipc = static_cast<double>(agg.instructions) /
                  static_cast<double>(agg.execTicks);
    if (agg.instructions > 0)
        agg.ppti = 1000.0 * static_cast<double>(agg.persists) /
                   static_cast<double>(agg.instructions);
    return agg;
}

} // namespace

ExperimentResult
runExperimentPoint(const ExperimentPoint &point)
{
    // The trace session wraps the custom runner too: anything it
    // simulates on this thread lands in the point's tracer.
    obs::TraceSession session(point.tracer);

    if (point.custom)
        return point.custom(point);

    fatal_if(point.profile.empty() && point.workload.empty(),
             "experiment point '%s' has no profile, no workload, and no "
             "custom runner",
             point.label.c_str());

    // Workload points default to the server machine model; a profile
    // name next to a workload only picks the core-side parameters.
    const BenchmarkProfile &profile = point.profile.empty()
                                          ? serverWorkloadProfile()
                                          : profileByName(point.profile);
    SimulationSpec spec;
    spec.base = SecPbSystem::configFor(point.scheme, profile);
    spec.base.secpb.numEntries = point.secpbEntries;
    spec.base.secpb.params = point.schemeParams;
    spec.base.walker.bmfMode = point.bmf;
    spec.base.obs.samplePeriod = point.samplePeriod;
    spec.base.obs.sampleCapacity = point.sampleCapacity;
    if (point.configure)
        point.configure(spec.base);
    spec.cores = std::max(1u, point.cores);
    spec.instructions = point.instructions;
    spec.seed = point.seed;
    spec.workload = point.workload;
    spec.traceRecord = point.traceRecord;

    // One generator per core, seeded seed+core so cores diverge but the
    // point stays deterministic.
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    for (unsigned c = 0; c < spec.cores; ++c) {
        const std::uint64_t seed = point.seed + c;
        std::unique_ptr<WorkloadGenerator> gen;
        if (!point.workload.empty()) {
            gen = makeWorkload(point.workload, point.instructions, seed);
        } else {
            gen = std::make_unique<SyntheticGenerator>(
                profile, point.instructions, seed);
        }
        if (!point.traceRecord.empty() && c == 0) {
            gen = std::make_unique<RecordingGenerator>(
                std::move(gen), point.traceRecord, TraceEncoding::Binary,
                std::vector<std::pair<std::string, std::string>>{
                    {"workload", point.workload.empty() ? point.profile
                                                        : point.workload},
                    {"seed", std::to_string(seed)},
                    {"instructions", std::to_string(point.instructions)},
                });
        }
        gens.push_back(std::move(gen));
    }

    Simulation sim(spec);
    ExperimentResult res;
    if (!sim.multiCore()) {
        res.sim = sim.run(*gens.front());
    } else {
        std::vector<WorkloadGenerator *> raw;
        raw.reserve(gens.size());
        for (auto &g : gens)
            raw.push_back(g.get());
        res.sim = aggregateResult(sim.run(std::move(raw)));
    }
    if (sim.sampler())
        res.samples = sim.sampler()->series();
    if (point.captureStats) {
        std::ostringstream ss;
        JsonWriter w(ss, /*pretty=*/false);
        sim.stats().toJson(w);
        res.statsJson = ss.str();
    }
    return res;
}

} // namespace secpb

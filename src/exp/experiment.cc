#include "exp/experiment.hh"

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
    if (point.configure)
        point.configure(spec.base);

    std::unique_ptr<WorkloadGenerator> gen;
    if (!point.workload.empty()) {
        gen = makeWorkload(point.workload, point.instructions, point.seed);
    } else {
        gen = std::make_unique<SyntheticGenerator>(
            profile, point.instructions, point.seed);
    }
    if (!point.traceRecord.empty()) {
        gen = std::make_unique<RecordingGenerator>(
            std::move(gen), point.traceRecord, TraceEncoding::Binary,
            std::vector<std::pair<std::string, std::string>>{
                {"workload", point.workload.empty() ? point.profile
                                                    : point.workload},
                {"seed", std::to_string(point.seed)},
                {"instructions", std::to_string(point.instructions)},
            });
    }

    Simulation sim(spec);
    ExperimentResult res;
    res.sim = sim.run(*gen);
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

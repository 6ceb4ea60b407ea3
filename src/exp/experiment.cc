#include "exp/experiment.hh"

#include <sstream>
#include <utility>

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

ExperimentPoint
makePoint(Scheme scheme, const std::string &profile)
{
    ExperimentPoint p;
    p.profile = profile;
    p.spec.base = SecPbSystem::configFor(
        scheme, profile.empty() ? serverWorkloadProfile()
                                : profileByName(profile));
    return p;
}

std::unique_ptr<WorkloadGenerator>
pointWorkload(const ExperimentPoint &point)
{
    const SimulationSpec &spec = point.spec;
    fatal_if(point.profile.empty() && spec.workload.empty(),
             "experiment point '%s' has no profile and no workload",
             point.label.c_str());
    std::unique_ptr<WorkloadGenerator> gen;
    if (!spec.workload.empty()) {
        gen = makeWorkload(spec.workload, spec.instructions, spec.seed);
    } else {
        gen = std::make_unique<SyntheticGenerator>(
            profileByName(point.profile), spec.instructions, spec.seed);
    }
    if (!spec.traceRecord.empty()) {
        gen = std::make_unique<RecordingGenerator>(
            std::move(gen), spec.traceRecord,
            std::vector<std::pair<std::string, std::string>>{
                {"workload",
                 spec.workload.empty() ? point.profile : spec.workload},
                {"seed", std::to_string(spec.seed)},
                {"instructions", std::to_string(spec.instructions)},
            });
    }
    return gen;
}

ExperimentResult
runExperimentPoint(const ExperimentPoint &point)
{
    // The trace session wraps the custom runner too: anything it
    // simulates on this thread lands in the point's tracer.
    obs::TraceSession session(point.tracer);

    if (point.custom)
        return point.custom(point);

    const std::unique_ptr<WorkloadGenerator> gen = pointWorkload(point);
    Simulation sim(point.spec);
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

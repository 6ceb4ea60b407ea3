#include "core/simulation.hh"

#include <string>

#include "fault/power.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"

namespace secpb
{

CapacitorParams
SimulationSpec::batteryParams() const
{
    CapacitorParams p = capacitorPresetFor(batteryTech);
    p.capacitanceDerate = batteryDerate;
    return p;
}

SimulationSpec
SimulationSpec::fromCli(int &argc, char **argv, const char *prog,
                        const SimulationSpec *defaults)
{
    SimulationSpec spec = defaults ? *defaults : SimulationSpec{};
    std::string traceIn;

    // Parse our flags out of argv, compacting the survivors in place so
    // the caller's parser never sees what we consumed.
    auto what = [&](const char *flag) {
        return std::string(prog) + ": " + flag;
    };
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "%s: flag %s needs a value", prog,
                     a.c_str());
            return argv[++i];
        };
        if (a == "--instr") {
            spec.instructions =
                parseDecimalU64(what("--instr").c_str(), need());
        } else if (a == "--seed") {
            spec.seed = parseDecimalU64(what("--seed").c_str(), need());
        } else if (a == "--workload") {
            spec.workload = need();
        } else if (a == "--trace-in") {
            traceIn = need();
        } else if (a == "--trace-record") {
            spec.traceRecord = need();
        } else if (a == "--battery-tech") {
            spec.batteryTech = need();
        } else if (a == "--battery-derate") {
            spec.batteryDerate = parseDecimalNumber(
                what("--battery-derate").c_str(), need());
        } else if (a == "--power-schedule") {
            spec.powerSchedule = need();
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;

    // Validate eagerly: a bad value dies here, before any run starts,
    // with a diagnostic that lists the valid choices.
    capacitorPresetFor(spec.batteryTech);
    fatal_if(!(spec.batteryDerate > 0.0 && spec.batteryDerate <= 1.0),
             "%s: --battery-derate %.3f out of (0, 1]", prog,
             spec.batteryDerate);
    if (!spec.powerSchedule.empty())
        PowerScheduleSpec::parse(spec.powerSchedule);
    // --trace-in is sugar for the replay workload; combining them would
    // silently drop one, so refuse instead.
    if (!traceIn.empty()) {
        fatal_if(!spec.workload.empty(),
                 "%s: --trace-in and --workload are mutually exclusive "
                 "(replay IS a workload)",
                 prog);
        spec.workload = "replay:file=" + traceIn;
    }
    if (!spec.workload.empty()) {
        const KvSpec ws = KvSpec::parse(spec.workload, "workload");
        fatal_if(!isRegisteredWorkload(ws.name),
                 "%s: unknown workload '%s' (registered: %s)", prog,
                 ws.name.c_str(),
                 joinNames(registeredWorkloadNames()).c_str());
    }
    return spec;
}

const char *
SimulationSpec::cliHelp()
{
    return
        "  --instr N           instructions per point/core\n"
        "  --seed N            base workload seed\n"
        "  --workload SPEC     registry workload \"name:k=v,...\"\n"
        "  --trace-in PATH     replay a recorded trace (= --workload\n"
        "                      replay:file=PATH)\n"
        "  --trace-record PATH record the first point's op stream\n"
        "  --battery-tech T    capacitor physics preset\n"
        "                      (ideal|supercap|li-thin)\n"
        "  --battery-derate F  end-of-life capacity derate in (0,1]\n"
        "  --power-schedule S  seeded intermittent-power schedule"
        " \"k=v,...\"\n";
}

Simulation::Simulation(const SimulationSpec &spec)
    : _machine(std::make_unique<MultiCoreSystem>(spec.base, spec.cores))
{}

} // namespace secpb

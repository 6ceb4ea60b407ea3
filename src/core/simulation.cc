#include "core/simulation.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <vector>

#include "fault/power.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"

namespace secpb
{

std::string
joinNames(const std::vector<std::string> &v)
{
    std::string out;
    for (const std::string &s : v) {
        if (!out.empty())
            out += ",";
        out += s;
    }
    return out;
}

std::uint64_t
parseDecimalU64(const char *what, const char *v)
{
    // strtoull alone would accept a sign (wrapping "-1" to 2^64-1) or
    // leading blanks, so the first character must already be a digit.
    fatal_if(!std::isdigit(static_cast<unsigned char>(v[0])),
             "%s '%s': not a decimal integer (must be plain non-negative "
             "digits)",
             what, v);
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    fatal_if(*end != '\0',
             "%s '%s': not a decimal integer (trailing garbage at '%s')",
             what, v, end);
    fatal_if(errno == ERANGE, "%s '%s': out of range for a 64-bit value",
             what, v);
    return parsed;
}

CapacitorParams
SimulationSpec::batteryParams() const
{
    CapacitorParams p = capacitorPresetFor(batteryTech);
    p.capacitanceDerate = batteryDerate;
    return p;
}

SimulationSpec
SimulationSpec::fromCli(int &argc, char **argv, const char *prog)
{
    SimulationSpec spec;
    std::string traceIn;

    // Parse our flags out of argv, compacting the survivors in place so
    // the caller's parser never sees what we consumed.
    auto parseU64 = [&](const char *flag, const char *v) {
        return parseDecimalU64((std::string(prog) + ": " + flag).c_str(), v);
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
            spec.instructions = parseU64("--instr", need());
        } else if (a == "--seed") {
            spec.seed = parseU64("--seed", need());
        } else if (a == "--workload") {
            spec.workload = need();
        } else if (a == "--trace-in") {
            traceIn = need();
        } else if (a == "--trace-record") {
            spec.traceRecord = need();
        } else if (a == "--battery-tech") {
            spec.batteryTech = need();
        } else if (a == "--battery-derate") {
            const char *v = need();
            char *end = nullptr;
            spec.batteryDerate = std::strtod(v, &end);
            fatal_if(end == v || *end != '\0',
                     "%s: --battery-derate '%s' is not a number", prog, v);
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
        const WorkloadSpec ws = WorkloadSpec::parse(spec.workload);
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

#include "core/simulation.hh"

#include <charconv>
#include <string>

#include "fault/power.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"

namespace secpb
{

std::vector<CliFlag>
SimulationSpec::cliFlags()
{
    CapacitorParams &cell = base.battery.cap;
    auto count = [](const std::uint64_t &v) {
        return [&v] { return std::to_string(v); };
    };
    auto text = [](const std::string &v) { return [&v] { return v; }; };
    return {
        {flag::Instr, "--instr", "N", "instructions per point/core",
         readCount(instructions), count(instructions)},
        {flag::Seed, "--seed", "N", "base workload seed", readCount(seed),
         count(seed)},
        {flag::Workload, "--workload", "SPEC",
         "registry workload \"name:k=v,...\" (" +
             joinNames(registeredWorkloadNames()) + ")",
         readText(workload), text(workload)},
        // No show: it replays as the workload it is.
        {flag::TraceIn, "--trace-in", "PATH",
         "replay a recorded trace (= --workload replay:file=PATH)",
         [this](const char *, const char *v) {
             workload = std::string("replay:file=") + v;
         }},
        {flag::TraceRecord, "--trace-record", "PATH",
         "record the first point's op stream", readText(traceRecord),
         text(traceRecord)},
        {flag::BatteryTech, "--battery-tech", "T",
         "the machine's battery cell technology (ideal|supercap|li-thin)",
         readText(cell.tech), text(cell.tech)},
        {flag::BatteryDerate, "--battery-derate", "F",
         "the cell's end-of-life capacity derate, in (0,1]",
         readNumber(cell.capacitanceDerate),
         [&cell] {
             // The shortest text that parses back to the same value.
             char buf[32];
             return std::string(buf, std::to_chars(buf, buf + sizeof(buf),
                                                   cell.capacitanceDerate)
                                         .ptr);
         }},
        {flag::PowerSchedule, "--power-schedule", "S",
         "seeded intermittent-power schedule \"k=v,...\"",
         readText(powerSchedule), text(powerSchedule)},
    };
}

unsigned
SimulationSpec::parseCli(int argc, const char *const *argv, const char *prog,
                         unsigned reads, std::vector<CliFlag> own)
{
    for (CliFlag &f : cliFlags())
        own.push_back(std::move(f));
    const unsigned given = parseFlags(argc, argv, prog, own, reads);

    // Validate eagerly: a bad value dies here, before any run starts,
    // with a diagnostic that lists the valid choices.
    CapacitorParams &cell = base.battery.cap;
    cell = capacitorPresetFor(cell.tech, cell.capacitanceDerate);
    PowerScheduleSpec::parse(powerSchedule);
    // --trace-in is sugar for the replay workload; combining them would
    // silently drop one, so refuse instead.
    fatal_if((given & flag::TraceIn) && (given & flag::Workload),
             "%s: --trace-in and --workload are mutually exclusive "
             "(replay IS a workload)",
             prog);
    if (!workload.empty()) {
        const KvSpec ws = KvSpec::parse(workload, "workload");
        fatal_if(!isRegisteredWorkload(ws.name),
                 "%s: unknown workload '%s' (registered: %s)", prog,
                 ws.name.c_str(),
                 joinNames(registeredWorkloadNames()).c_str());
    }
    return given;
}

Simulation::Simulation(const SimulationSpec &spec)
    : _machine(std::make_unique<MultiCoreSystem>(spec.base, spec.cores))
{}

} // namespace secpb

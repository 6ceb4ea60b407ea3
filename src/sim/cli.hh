/**
 * @file
 * The one command-line parser.
 *
 * A program's flags are rows: each CliFlag names one flag, the value it
 * takes, its help line and the setter that reads the value into its
 * target. Three kinds of rows exist: the run-spec rows
 * (SimulationSpec::cliFlags), the sweep rows every bench shares
 * (bench::BenchCli) and a program's own rows. Each shared row carries
 * one bit of flag::; a driver names the bits of the flags it reads, and
 * parseFlags walks argv once over exactly those rows plus the
 * program's own. Any other flag dies as unknown, naming the program,
 * and --help prints exactly the rows the program reads.
 */

#ifndef SECPB_SIM_CLI_HH
#define SECPB_SIM_CLI_HH

#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/kv_spec.hh"

namespace secpb
{

namespace flag
{

/** The shared flags, one bit each: a driver ORs the ones it reads. */
enum : unsigned
{
    // Run-spec rows (SimulationSpec::cliFlags).
    Instr = 1u << 0,
    Seed = 1u << 1,
    Workload = 1u << 2,
    TraceIn = 1u << 3,
    TraceRecord = 1u << 4,
    BatteryTech = 1u << 5,
    BatteryDerate = 1u << 6,
    PowerSchedule = 1u << 7,
    // Sweep rows (bench::BenchCli).
    Jobs = 1u << 8,
    Json = 1u << 9,
    Schemes = 1u << 10,
    Profiles = 1u << 11,
    NoProgress = 1u << 12,
    TraceOut = 1u << 13,
    SampleEvery = 1u << 14,
    Stats = 1u << 15,

    /** A registry workload: by selector, or a trace to replay. */
    Workloads = Workload | TraceIn,
    /** What every sweep reads: its threads, JSON and progress line. */
    SweepOut = Jobs | Json | NoProgress,
    /** A sweep of default-runner points: run length and seed, the
     *  workload, and every per-point capture. */
    Grid = Instr | Seed | Workloads | TraceRecord | TraceOut |
           SampleEvery | Stats | SweepOut,
};

} // namespace flag

/** Reads a flag's value (nullptr for a switch) into the row's target;
 *  @p what ("fig6: --jobs") names the flag in diagnostics. */
using CliSetter = std::function<void(const char *what, const char *value)>;

/** One command-line flag; see the file comment. */
struct CliFlag
{
    unsigned id;           ///< Its flag:: bit; 0 for a program's own row.
    const char *name;      ///< "--instr".
    const char *arg;       ///< The value in --help ("N"); nullptr: switch.
    std::string help;      ///< Its line in --help.
    CliSetter set;
    /** The target's value as flag text; only the run-spec rows have
     *  one (bench::SoakCli::reproducer replays them). */
    std::function<std::string()> show = {};
};

/** @name Row setters: each reads the value strictly into @p dst. */
/** @{ */
/** A count that fits @p T (parseDecimalU64). */
template <typename T>
CliSetter
readCount(T &dst)
{
    static_assert(std::is_unsigned_v<T>, "counts are unsigned");
    return [&dst](const char *what, const char *v) {
        dst = static_cast<T>(
            parseDecimalU64(what, v, std::numeric_limits<T>::max()));
    };
}

/** A finite non-negative decimal (parseDecimalNumber). */
inline CliSetter
readNumber(double &dst)
{
    return [&dst](const char *what, const char *v) {
        dst = parseDecimalNumber(what, v);
    };
}

/** The text as given. */
inline CliSetter
readText(std::string &dst)
{
    return [&dst](const char *, const char *v) { dst = v; };
}

/** A switch: giving the flag sets @p dst to @p value. */
inline CliSetter
setSwitch(bool &dst, bool value)
{
    return [&dst, value](const char *, const char *) { dst = value; };
}
/** @} */

/**
 * Walk argv once over the rows of @p flags the program reads -- its own
 * (id 0) and the shared ones in @p reads -- calling each given row's
 * setter in command-line order, and return the id bits of the rows
 * given. --help or -h prints "Usage: <prog> [flags]" and one line per
 * row read, then exits 0. Any other flag dies: "<prog>: unknown flag
 * '--x' (try --help)".
 */
unsigned parseFlags(int argc, const char *const *argv, const char *prog,
                    const std::vector<CliFlag> &flags, unsigned reads);

} // namespace secpb

#endif // SECPB_SIM_CLI_HH

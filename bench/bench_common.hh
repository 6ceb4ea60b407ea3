/**
 * @file
 * Shared harness for the table/figure reproduction benches.
 *
 * Every evaluation binary declares its slice of the paper's evaluation
 * cross-product as a vector of ExperimentPoints, hands it to the
 * experiment engine (src/exp/), and prints paper-style rows from the
 * aggregated results. The engine runs points concurrently under `--jobs`
 * with per-point deterministic seeding, so `--jobs 1` and `--jobs N`
 * produce bit-identical results, and `--json` serializes every point plus
 * derived rows to the schema-versioned sweep document.
 *
 * Most benches are one grid: schemes (or sizes, or variants) x profiles,
 * each cell normalized to a baseline point. They share three pieces:
 * BenchCli::point (a point carrying --instr, --seed and the scheme
 * knobs), BenchCli::pick (a declared scheme list under the --scheme
 * filter) and Table (print a row, then reduce each column into a
 * derived row).
 *
 * BenchCli::parse reads a bench's command line in one pass over the
 * sweep rows and run-spec rows it names (flag:: bits, sim/cli.hh); a
 * flag it does not name dies, and --help lists exactly the ones it
 * does. Flags are the only way to configure a run.
 */

#ifndef SECPB_BENCH_BENCH_COMMON_HH
#define SECPB_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/simulation.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"
#include "obs/trace.hh"
#include "workload/synthetic.hh"

namespace secpb::bench
{

/**
 * A non-negative integer knob from the environment, or @p fallback when
 * @p name is unset or empty. The value goes through the same strict
 * parse as the command line (fault_soak's SECPB_SOAK_* knobs).
 */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? parseDecimalU64(name, v) : fallback;
}

/** The trials a soak runs, [first, end), and the seed they draw from. */
struct SoakRange
{
    std::uint64_t seed, first, end;
};

/**
 * fault_soak's SECPB_SOAK_* knobs: SECPB_SOAK_SEED (default 2026) and
 * SECPB_SOAK_TRIALS (trials [0, N), default @p default_trials), or
 * SECPB_SOAK_TRIAL to replay exactly one trial from a reproducer (trial
 * streams are independent, so it needs none of its predecessors). Each
 * goes through envU64: strict, and empty means unset.
 */
inline SoakRange
soakRange(std::uint64_t default_trials)
{
    SoakRange r{envU64("SECPB_SOAK_SEED", 2026), 0,
                envU64("SECPB_SOAK_TRIALS", default_trials)};
    const char *one = std::getenv("SECPB_SOAK_TRIAL");
    if (one && *one) {
        r.first = envU64("SECPB_SOAK_TRIAL", 0);
        fatal_if(r.first == UINT64_MAX,
                 "SECPB_SOAK_TRIAL '%s': no trial range ends after it", one);
        r.end = r.first + 1;
    }
    return r;
}

/** Parsed shared command line of one bench binary. */
struct BenchCli
{
    std::string bench;               ///< Binary name ("fig6").
    unsigned jobs = 1;
    std::string jsonPath;            ///< Empty = no JSON output.
    std::vector<Scheme> schemes;     ///< Empty = no scheme filter.
    /** Scheme knobs from parameterized --scheme specs (triad:levels=N);
     *  defaults elsewhere. point() threads this into each point. */
    SchemeParams schemeParams;
    std::vector<std::string> profiles;  ///< Empty = no profile filter.
    bool progress = true;
    std::string traceOut;            ///< Empty = no trace capture.
    Tick sampleEvery = 0;            ///< 0 = no epoch sampling.
    bool captureStats = false;       ///< Embed stats dump per point.

    /** The run-spec knobs (SimulationSpec::parseCli). */
    SimulationSpec spec;

    /** The flag:: bits the command line gave. */
    unsigned given = 0;

    /**
     * Parse argv over the sweep and run-spec rows in @p reads (flag::
     * bits): the flags this bench reads. Any other flag dies naming
     * the bench. Benches print their own tables, so this first turns
     * the simulator's warn/inform chatter off.
     */
    static BenchCli
    parse(int argc, const char *const *argv, const char *bench_name,
          unsigned reads)
    {
        setQuietLogging(true);
        BenchCli cli;
        cli.bench = bench_name;
        std::vector<CliFlag> rows = {
            {flag::Jobs, "--jobs", "N", "concurrent points (default 1)",
             [&cli](const char *what, const char *v) {
                 readCount(cli.jobs)(what, v);
                 cli.jobs = std::max(1u, cli.jobs);
             }},
            {flag::Json, "--json", "PATH", "write the sweep JSON",
             readText(cli.jsonPath)},
            // Canonical lowercase names only: anything else dies listing
            // every valid one. "triad:levels=N" sets the depth knob.
            {flag::Schemes, "--scheme", "A[,B]",
             "keep matching schemes (repeatable; triad:levels=N)",
             [&cli](const char *what, const char *v) {
                 for (const std::string &name : splitList(v, what))
                     cli.schemes.push_back(
                         parseSchemeSpec(name, &cli.schemeParams));
             }},
            {flag::Profiles, "--profile", "A[,B]",
             "keep matching profiles (repeatable)",
             [&cli](const char *what, const char *v) {
                 for (const std::string &name : splitList(v, what)) {
                     profileByName(name);  // a typo dies before a sweep
                     cli.profiles.push_back(name);
                 }
             }},
            {flag::NoProgress, "--no-progress", nullptr,
             "suppress the stderr progress/ETA line",
             setSwitch(cli.progress, false)},
            {flag::TraceOut, "--trace-out", "PATH",
             "Perfetto trace of the sweep's first point",
             readText(cli.traceOut)},
            {flag::SampleEvery, "--sample-every", "N",
             "epoch-sample each default-runner point every N ticks",
             readCount(cli.sampleEvery)},
            {flag::Stats, "--stats", nullptr,
             "embed the full stats dump in each JSON point",
             setSwitch(cli.captureStats, true)},
        };
        cli.given = cli.spec.parseCli(argc, argv, bench_name, reads,
                                      std::move(rows));
        return cli;
    }

    /**
     * Die naming the first of the run-spec flags @p flags that the
     * command line gave: this run reads none of them, @p why ("in
     * classic mode"). For a bench whose mode picks the flags it reads.
     */
    void
    refuse(unsigned flags, const char *why) const
    {
        SimulationSpec unread;
        for (const CliFlag &f : unread.cliFlags())
            fatal_if(f.id & flags & given, "%s: %s is not read %s",
                     bench.c_str(), f.name, why);
    }

    /** True if @p s passes the scheme filter (empty filter = all). */
    bool
    wantScheme(Scheme s) const
    {
        return schemes.empty() ||
               std::find(schemes.begin(), schemes.end(), s) !=
                   schemes.end();
    }

    /** True if @p name passes the profile filter. */
    bool
    wantProfile(const std::string &name) const
    {
        return profiles.empty() ||
               std::find(profiles.begin(), profiles.end(), name) !=
                   profiles.end();
    }

    /**
     * The declared @p all in declaration order, keeping the entries whose
     * scheme passes the filter. An entry is a Scheme or a row with a
     * `scheme` member.
     */
    template <typename T>
    std::vector<T>
    pick(std::initializer_list<T> all) const
    {
        std::vector<T> out;
        for (const T &x : all) {
            if constexpr (std::is_same_v<T, Scheme>) {
                if (wantScheme(x))
                    out.push_back(x);
            } else if (wantScheme(x.scheme)) {
                out.push_back(x);
            }
        }
        return out;
    }

    /**
     * A default-runner point of @p s on @p profile labelled
     * "<profile>/<scheme>", carrying --instr, --seed and the --scheme
     * knobs (only triad reads them). Callers extend the label and set
     * the coordinates their grid varies.
     */
    ExperimentPoint
    point(Scheme s, const std::string &profile) const
    {
        ExperimentPoint p = makePoint(s, profile);
        p.label = profile + "/" + schemeName(s);
        p.spec.base.secpb.params = schemeParams;
        p.spec.instructions = spec.instructions;
        p.spec.seed = spec.seed;
        return p;
    }

    /** spec2006Profiles() restricted to the profile filter. */
    std::vector<BenchmarkProfile>
    profilesToRun() const
    {
        std::vector<BenchmarkProfile> out;
        for (const BenchmarkProfile &p : spec2006Profiles())
            if (wantProfile(p.name))
                out.push_back(p);
        return out;
    }
};

/**
 * The shell line that replays trial @p trial of a soak seeded @p seed:
 * "SECPB_SOAK_SEED=S SECPB_SOAK_TRIAL=T <bench>" plus each run-spec row
 * of @p cli whose value differs from a default spec's, in row order
 * (--trace-in appears as the replay workload it is). Each number prints
 * in the shortest form that parses back to the same value, so the line
 * runs the same trial on the same cell.
 */
inline std::string
soakReproducer(const BenchCli &cli, std::uint64_t seed, std::uint64_t trial)
{
    auto word = [](const std::string &v) {
        if (v.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                "0123456789_-.,:=/+") == std::string::npos)
            return v;
        std::string q = "'";
        for (char c : v)
            q += c == '\'' ? std::string("'\\''") : std::string(1, c);
        return q + "'";
    };
    std::string out = "SECPB_SOAK_SEED=" + std::to_string(seed) +
                      " SECPB_SOAK_TRIAL=" + std::to_string(trial) + " " +
                      cli.bench;
    SimulationSpec spec = cli.spec, unset;
    const std::vector<CliFlag> rows = spec.cliFlags(),
                               defaults = unset.cliFlags();
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows[i].show && rows[i].show() != defaults[i].show())
            out += std::string(" ") + rows[i].name + " " +
                   word(rows[i].show());
    return out;
}

/**
 * One bench's sweep: collect points, run them through the engine, look
 * results up by index, record derived rows, write the JSON document.
 */
class Sweep
{
  public:
    explicit Sweep(const BenchCli &cli) : _cli(cli)
    {
        if (!_cli.traceOut.empty())
            _tracer = std::make_unique<obs::Tracer>();
    }

    /** Queue @p point; returns its index for post-run lookup. */
    std::size_t
    add(ExperimentPoint point)
    {
        _points.push_back(std::move(point));
        return _points.size() - 1;
    }

    /** Execute every queued point (respecting --jobs). */
    void
    run()
    {
        // Apply the shared knobs here, so no bench binary needs per-flag
        // plumbing: --stats reaches every point; --workload reaches
        // every point that did not pin its own (a custom runner that
        // simulates builds from pointWorkload too); --sample-every
        // reaches every default-runner point that did not pin its own
        // period; --trace-out traces the first point and --trace-record
        // records the first default-runner point (one timeline, or one
        // op stream, per file).
        bool record = !_cli.spec.traceRecord.empty();
        for (ExperimentPoint &p : _points) {
            if (_cli.captureStats)
                p.captureStats = true;
            SimulationSpec &spec = p.spec;
            if (spec.workload.empty())
                spec.workload = _cli.spec.workload;
            if (p.custom)
                continue;
            if (spec.base.obs.samplePeriod == 0)
                spec.base.obs.samplePeriod = _cli.sampleEvery;
            if (record) {
                spec.traceRecord = _cli.spec.traceRecord;
                record = false;
            }
        }
        if (_tracer && !_points.empty())
            _points.front().tracer = _tracer.get();

        SweepOptions opts;
        opts.jobs = _cli.jobs;
        opts.progress = _cli.progress;
        opts.name = _cli.bench;
        const auto start = std::chrono::steady_clock::now();
        _results = SweepRunner(opts).run(_points);
        _hostSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
    }

    const ExperimentResult &
    at(std::size_t index) const
    {
        return _results.at(index);
    }

    /** Execution time of point @p cell normalized to point @p base. */
    double
    execRatio(std::size_t cell, std::size_t base) const
    {
        return static_cast<double>(at(cell).sim.execTicks) /
               static_cast<double>(at(base).sim.execTicks);
    }

    const std::vector<ExperimentPoint> &points() const { return _points; }

    /** Record a derived aggregate row (also serialized to JSON). */
    void
    derive(std::string name, std::string group, double value)
    {
        _derived.push_back({std::move(name), std::move(group), value});
    }

    /** Build the full report document (JSON serialization input). */
    SweepReport
    report() const
    {
        SweepReport r;
        r.bench = _cli.bench;
        r.jobs = _cli.jobs;
        r.hostSeconds = _hostSeconds;
        r.points = _points;
        r.results = _results;
        r.derived = _derived;
        return r;
    }

    /** Write the Perfetto trace if --trace-out was given. */
    void
    writeTrace() const
    {
        if (!_tracer)
            return;
        std::ofstream out(_cli.traceOut);
        fatal_if(!out, "%s: cannot open --trace-out path '%s'",
                 _cli.bench.c_str(), _cli.traceOut.c_str());
        _tracer->writeJson(out);
        std::fprintf(stderr, "%s: wrote %s (%zu events, %llu dropped)\n",
                     _cli.bench.c_str(), _cli.traceOut.c_str(),
                     _tracer->numEvents(),
                     static_cast<unsigned long long>(_tracer->numDropped()));
    }

    /** Write the JSON document if --json was given (and the trace if
     *  --trace-out was; benches call writeJson() unconditionally). */
    void
    writeJson() const
    {
        writeTrace();
        if (_cli.jsonPath.empty())
            return;
        std::ofstream out(_cli.jsonPath);
        fatal_if(!out, "%s: cannot open --json path '%s'",
                 _cli.bench.c_str(), _cli.jsonPath.c_str());
        writeSweepJson(out, report());
        std::fprintf(stderr, "%s: wrote %s\n", _cli.bench.c_str(),
                     _cli.jsonPath.c_str());
    }

  private:
    BenchCli _cli;
    std::unique_ptr<obs::Tracer> _tracer;
    std::vector<ExperimentPoint> _points;
    std::vector<ExperimentResult> _results;
    std::vector<DerivedRow> _derived;
    double _hostSeconds = 0.0;
};

/** Geometric mean of a vector of ratios. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/**
 * A printed table with one column per derived-row group (a scheme, a
 * size, a variant). row() prints a labelled row and files each value
 * under its column; summary() reduces every column, records each result
 * as the derived row (name, group) and prints the results as a row.
 */
class Table
{
  public:
    /** Each value prints as printf(@p cell, value * @p scale) after a
     *  label padded to @p width. */
    Table(Sweep &sweep, std::vector<std::string> groups, const char *cell,
          int width = 12, double scale = 1.0)
        : _sweep(sweep), _groups(std::move(groups)),
          _columns(_groups.size()), _cell(cell), _width(width),
          _scale(scale)
    {
    }

    /** File @p values under their columns without printing them. */
    void
    add(const std::vector<double> &values)
    {
        for (std::size_t i = 0; i < values.size(); ++i)
            _columns.at(i).push_back(values[i]);
    }

    void
    row(const std::string &label, const std::vector<double> &values)
    {
        print(label, values);
        add(values);
    }

    /** @p reduce is geomean or mean. */
    void
    summary(const std::string &label, const std::string &name,
            double (*reduce)(const std::vector<double> &))
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < _columns.size(); ++i) {
            out.push_back(reduce(_columns[i]));
            _sweep.derive(name, _groups[i], out.back());
        }
        print(label, out);
    }

  private:
    void
    print(const std::string &label, const std::vector<double> &values) const
    {
        std::printf("%-*s |", _width, label.c_str());
        for (double v : values)
            std::printf(_cell, v * _scale);
        std::printf("\n");
    }

    Sweep &_sweep;
    std::vector<std::string> _groups;
    std::vector<std::vector<double>> _columns;
    const char *_cell;
    int _width;
    double _scale;
};

} // namespace secpb::bench

#endif // SECPB_BENCH_BENCH_COMMON_HH

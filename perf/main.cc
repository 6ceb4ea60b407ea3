/**
 * @file
 * secpb_perf: run one benchmark workload in a closed loop for a fixed
 * host time and print one JSON document of metrics and digests.
 *
 *   secpb_perf --workload NAME --seed N --seconds S [--trace 0|1]
 *              [--trace-out PATH]
 *
 * Rounds repeat until S host seconds have passed (at least one round;
 * --seconds 0 runs exactly one, which is what golden recording uses).
 * End-to-end metrics come from untraced rounds. With --trace 1 the
 * layer microbenchmarks run first, then untraced and traced rounds
 * alternate: traced rounds collect the per-layer counts and host-time
 * spans, and the untraced ones give the tracing overhead. run.py builds
 * this program, checks the digests against perf/golden, and formats the
 * result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "bench.hh"
#include "exp/sweep.hh"
#include "exp/thread_pool.hh"
#include "sim/logging.hh"
#include "stats/json.hh"

using namespace perf;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 15.0;
    bool trace = false;
    std::string traceOut = "trace.json";
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto need = [&](int i) -> const char * {
        fatal_if(i + 1 >= argc, "secpb_perf: %s needs a value", argv[i]);
        return argv[i + 1];
    };
    auto number = [&](int i) {
        const char *v = need(i);
        char *end = nullptr;
        const double d = std::strtod(v, &end);
        fatal_if(end == v || *end != '\0' || !(d >= 0.0),
                 "secpb_perf: %s '%s' is not a non-negative number",
                 argv[i], v);
        return d;
    };
    for (int i = 1; i < argc; i += 2) {
        const std::string a = argv[i];
        if (a == "--workload")
            o.workload = need(i);
        else if (a == "--seed")
            o.seed = static_cast<std::uint64_t>(number(i));
        else if (a == "--seconds")
            o.seconds = number(i);
        else if (a == "--trace")
            o.trace = number(i) != 0.0;
        else if (a == "--trace-out")
            o.traceOut = need(i);
        else
            fatal("secpb_perf: unknown flag '%s'", a.c_str());
    }
    fatal_if(o.workload.empty(), "secpb_perf: --workload is required");
    return o;
}

struct Round
{
    bool traced = false;
    double wallS = 0.0;
    std::vector<PointOutcome> outs;
    std::vector<double> pointS;  ///< SweepRunner's per-point host time.
};

Round
runRound(const Workload &w, bool traced, std::uint64_t round)
{
    Round r;
    r.traced = traced;
    r.outs.resize(w.points.size());
    std::vector<secpb::ExperimentPoint> eps(w.points.size());
    for (std::size_t i = 0; i < eps.size(); ++i) {
        eps[i].label = w.points[i].label;
        eps[i].custom = [&w, &r, i, traced,
                         round](const secpb::ExperimentPoint &) {
            const PointCtx ctx{traced, round * w.points.size() + i,
                               &w.points[i].label};
            r.outs[i] = w.points[i].run(ctx);
            return secpb::ExperimentResult{};
        };
    }
    secpb::SweepOptions opts;
    opts.jobs = w.jobs;
    opts.progress = false;
    opts.name = w.name;
    const auto t0 = Clock::now();
    const std::vector<secpb::ExperimentResult> res =
        secpb::SweepRunner(opts).run(eps);
    r.wallS = secondsSince(t0);
    for (const secpb::ExperimentResult &e : res)
        r.pointS.push_back(e.hostSeconds);
    return r;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

struct Metric
{
    double value;
    const char *unit;
    std::size_t samples;
};

using Metrics = std::map<std::string, Metric>;

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Fastest time of one calibration loop on the reference host (a 4-CPU
 *  Intel Xeon, see perf/README.md). */
constexpr double kCalibrationRefS = 0.0035;

/** One calibration loop, a few ms: integer mixing, then
 *  read-modify-writes over a 1 MiB table. */
double
calibrationLoop()
{
    thread_local std::vector<std::uint32_t> table(1u << 18);
    const auto t0 = Clock::now();
    std::uint64_t x = 1, sink = 0;
    for (std::uint32_t i = 0; i < 1'000'000; ++i) {
        x ^= x >> 13;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 31;
        sink += x;
    }
    for (std::uint32_t i = 0; i < 1'000'000; ++i) {
        std::uint32_t &slot =
            table[(x + i * 2654435761u) & (table.size() - 1)];
        slot += i;
        sink += slot;
    }
    volatile std::uint64_t keep = sink;
    (void)keep;
    return secondsSince(t0);
}

/**
 * Host-speed probe: the calibration loop on @p jobs sweep workers at
 * once (the load shape of the workload), mean seconds per copy. It runs
 * no simulator code, so no change to src/ moves it. Its fastest time in
 * a run, against kCalibrationRefS, gives the host's current speed;
 * scaling host times by it cancels part of the slow drift of a shared
 * machine (see perf/README.md for the measured effect).
 */
double
calibrate(unsigned jobs)
{
    if (jobs <= 1)
        return calibrationLoop();
    std::vector<double> t(jobs);
    secpb::ThreadPool::global().parallelFor(
        jobs, [&t](std::size_t i) { t[i] = calibrationLoop(); }, jobs);
    return std::accumulate(t.begin(), t.end(), 0.0) / jobs;
}

/**
 * End-to-end metrics from the untraced rounds. Every host time is the
 * fastest over rounds (per point for the percentiles), which filters
 * the bursts other tenants cause, then scaled to the reference host's
 * speed by @p host_speed.
 */
Metrics
endToEnd(const std::vector<const Round *> &rounds, double process_setup_s,
         double host_speed, std::map<std::string, double> &info)
{
    const std::size_t n = rounds.size();
    const std::size_t points = rounds.front()->outs.size();
    double wall = rounds.front()->wallS, instr = 0.0;
    std::vector<double> point_s = rounds.front()->pointS, setup_s(points);
    for (std::size_t i = 0; i < points; ++i) {
        instr += static_cast<double>(rounds.front()->outs[i].instructions);
        setup_s[i] = rounds.front()->outs[i].setupS;
    }
    for (const Round *r : rounds) {
        wall = std::min(wall, r->wallS);
        for (std::size_t i = 0; i < points; ++i) {
            point_s[i] = std::min(point_s[i], r->pointS[i]);
            setup_s[i] = std::min(setup_s[i], r->outs[i].setupS);
        }
    }
    const double setup =
        process_setup_s + std::accumulate(setup_s.begin(), setup_s.end(), 0.0);
    info["raw_wall_s"] = wall;
    info["raw_setup_s"] = setup;
    info["host_speed"] = host_speed;
    // A slow host (speed < 1) took longer than the reference would have.
    const double scale = host_speed;
    return {
        {"wall_s", {wall * scale, "s", n}},
        {"sim_mips", {instr / (wall * scale) / 1e6, "Minstr/s", n}},
        {"setup_s", {setup * scale, "s", n}},
        {"peak_rss_mb", {peakRssMb(), "MB", 1}},
        {"point_p50_ms",
         {percentile(point_s, 0.50) * scale * 1e3, "ms", points}},
        {"point_p90_ms",
         {percentile(point_s, 0.90) * scale * 1e3, "ms", points}},
    };
}

/**
 * Per-layer metrics. Exact counts repeat every traced round; take the
 * first. Times only tracing can take (generator calls, crash spans)
 * pool the traced rounds; every other host time is a per-round mean
 * over the untraced rounds, so the tracing overhead stays out of it.
 */
Metrics
perLayer(const Workload &w, const std::vector<const Round *> &traced,
         const std::vector<const Round *> &untraced,
         const std::map<std::string, double> &probes,
         std::map<std::string, double> &decomposition)
{
    Counts c, sum;
    for (const PointOutcome &o : traced.front()->outs)
        addCounts(c, o.counts);
    for (const Round *r : traced)
        for (const PointOutcome &o : r->outs)
            addCounts(sum, o.counts);
    auto count = [&c](const char *k) {
        const auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    auto mean = [&](const std::string &k) {
        return ratio(count((k + ".sum").c_str()), count((k + ".n").c_str()));
    };
    auto hit_rate = [&](const char *hits, const char *misses) {
        return ratio(count(hits), count(hits) + count(misses));
    };
    auto total = [&sum](const char *k) {
        const auto it = sum.find(k);
        return it == sum.end() ? 0.0 : it->second;
    };

    const double nu = static_cast<double>(untraced.size());
    double run_s = 0.0, setup_s = 0.0, busy = 0.0, longest = 0.0;
    double untraced_wall = 0.0;
    std::vector<double> t_walls, u_walls;
    for (const Round *r : untraced) {
        untraced_wall += r->wallS;
        u_walls.push_back(r->wallS);
        for (const PointOutcome &o : r->outs) {
            run_s += o.runS / nu;
            setup_s += o.setupS / nu;
        }
        for (double s : r->pointS) {
            busy += s;
            longest = std::max(longest, s);
        }
    }
    for (const Round *r : traced)
        t_walls.push_back(r->wallS);

    Metrics m = {
        {"sim.events", {count("sim.events"), "count", 1}},
        {"sim.host_ns_per_event",
         {ratio(run_s, count("sim.events")) * 1e9, "ns", untraced.size()}},
        {"workload.ops", {count("workload.ops"), "count", 1}},
        {"workload.next_ns_per_op",
         {ratio(total("workload.next_ns"), total("workload.ops")), "ns", 1}},
        {"cpu.sb_stalls", {count("cpu.sb_stalls"), "count", 1}},
        {"cpu.sb_full_stalls", {count("cpu.sb_full_stalls"), "count", 1}},
        {"secpb.persists", {count("secpb.persists"), "count", 1}},
        {"secpb.allocs", {count("secpb.allocs"), "count", 1}},
        {"secpb.coalesced", {count("secpb.coalesced"), "count", 1}},
        {"secpb.full_rejects", {count("secpb.full_rejects"), "count", 1}},
        {"secpb.drained", {count("secpb.drained"), "count", 1}},
        {"secpb.page_reencrypts",
         {count("secpb.page_reencrypts"), "count", 1}},
        {"secpb.unblock_latency_cyc",
         {mean("secpb.unblock_latency"), "cycles", 1}},
        {"pb.battery_stalls", {count("pb.battery_stalls"), "count", 1}},
        {"pb.mdc_shed_writes", {count("pb.mdc_shed_writes"), "count", 1}},
        {"crypto.otp", {count("crypto.otp"), "count", 1}},
        {"crypto.mac", {count("crypto.mac"), "count", 1}},
        {"metadata.root_updates",
         {count("metadata.root_updates"), "count", 1}},
        {"metadata.merged_updates",
         {count("metadata.merged_updates"), "count", 1}},
        {"metadata.full_walks", {count("metadata.full_walks"), "count", 1}},
        {"metadata.update_latency_cyc",
         {mean("metadata.update_latency"), "cycles", 1}},
        {"metadata.ctr_hit_rate",
         {hit_rate("metadata.ctr_hits", "metadata.ctr_misses"), "frac", 1}},
        {"metadata.bmt_hit_rate",
         {hit_rate("metadata.bmt_hits", "metadata.bmt_misses"), "frac", 1}},
        {"metadata.mac_hit_rate",
         {hit_rate("metadata.mac_hits", "metadata.mac_misses"), "frac", 1}},
        {"metadata.writebacks", {count("metadata.writebacks"), "count", 1}},
        {"mem.pcm_reads", {count("mem.pcm_reads"), "count", 1}},
        {"mem.pcm_writes", {count("mem.pcm_writes"), "count", 1}},
        {"mem.pcm_write_delay_cyc",
         {mean("mem.pcm_write_delay"), "cycles", 1}},
        {"mem.wpq_pushes", {count("mem.wpq_pushes"), "count", 1}},
        {"mem.wpq_coalesced", {count("mem.wpq_coalesced"), "count", 1}},
        {"mem.wpq_full_rejects", {count("mem.wpq_full_rejects"), "count", 1}},
        {"recovery.crash_ms",
         {ratio(total("recovery.crash_s"), total("recovery.crash_n")) * 1e3,
          "ms", static_cast<std::size_t>(total("recovery.crash_n"))}},
        {"recovery.mid_run_crashes",
         {count("recovery.mid_run_crashes"), "count", 1}},
        {"recovery.exhausted", {count("recovery.exhausted"), "count", 1}},
        {"recovery.abandoned_entries",
         {count("recovery.abandoned_entries"), "count", 1}},
        {"recovery.torn_detected",
         {count("recovery.torn_detected"), "count", 1}},
        {"recovery.tampers_detected",
         {count("recovery.tampers_detected"), "count", 1}},
        {"core.setup_ms_per_point",
         {ratio(setup_s, static_cast<double>(w.points.size())) * 1e3, "ms",
          untraced.size() * w.points.size()}},
        {"core.epochs", {count("core.epochs"), "count", 1}},
        {"core.host_ns_per_epoch",
         {ratio(run_s, count("core.epochs")) * 1e9, "ns", untraced.size()}},
        {"core.migrations", {count("core.migrations"), "count", 1}},
        {"exp.busy_frac",
         {ratio(busy, w.jobs * untraced_wall), "frac", untraced.size()}},
        {"exp.longest_point_s", {longest, "s", untraced.size()}},
        {"trace.overhead_frac",
         {ratio(median(t_walls), median(u_walls)) - 1.0, "frac",
          traced.size()}},
    };
    for (const auto &[name, value] : probes)
        m[name] = {value, name.ends_with("_us") ? "us" : "Mops", 5};

    // Count x unit cost per layer for one round, in host s summed over
    // points. The probes overlap (an accept includes its drains) and run
    // warm, so this is an estimate; the remainder is what no probe
    // prices.
    auto at = [&probes](const char *k) { return probes.at(k); };
    decomposition = {
        {"sim", count("sim.events") / at("sim.event_chain_mops") / 1e6},
        {"workload",
         count("workload.ops") / at("workload.synthetic_gen_mops") / 1e6},
        {"secpb", count("secpb.persists") / at("secpb.accept_mops") / 1e6},
        {"pb", count("pb.adaptive_allocs") * at("pb.predict_drain_us") / 1e6 +
                   count("pb.mdc_shed_writes") / 4.0 *
                       at("metadata.dirty_scan_us") / 1e6},
        {"crypto", (count("crypto.otp") + count("crypto.mac")) /
                       at("crypto.regen_burst_mops") / 1e6},
        {"metadata",
         count("metadata.root_updates") / at("metadata.walker_update_mops") /
                 1e6 +
             (count("metadata.ctr_hits") + count("metadata.ctr_misses") +
              count("metadata.bmt_hits") + count("metadata.bmt_misses") +
              count("metadata.mac_hits") + count("metadata.mac_misses")) /
                 at("metadata.cache_access_mops") / 1e6},
        {"mem", count("mem.wpq_pushes") / at("mem.wpq_push_mops") / 1e6},
    };
    double explained = 0.0;
    for (const auto &[layer, s] : decomposition)
        explained += s;
    decomposition["run_s"] = run_s;
    decomposition["unexplained_s"] = run_s - explained;
    return m;
}

void
writeMetrics(secpb::JsonWriter &j, const char *key, const Metrics &m)
{
    j.key(key);
    j.beginObject();
    for (const auto &[name, metric] : m) {
        j.key(name);
        j.beginObject();
        j.field("value", metric.value);
        j.field("unit", metric.unit);
        j.field("samples", std::uint64_t{metric.samples});
        j.endObject();
    }
    j.endObject();
}

void
writeMap(secpb::JsonWriter &j, const char *key,
         const std::map<std::string, double> &m)
{
    j.key(key);
    j.beginObject();
    for (const auto &[k, v] : m)
        j.field(k, v);
    j.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const auto t_main = Clock::now();
    secpb::setQuietLogging(true);
    const Options opt = parseArgs(argc, argv);
    // Sweep workers: at most 4, never more than the host has.
    const unsigned jobs =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    const Workload w = makeBenchWorkload(opt.workload, opt.seed, jobs);
    const double process_setup_s = secondsSince(t_main);

    const auto t_start = Clock::now();
    std::map<std::string, double> probes;
    if (opt.trace) {
        enableSpans();
        probes = runProbes();
    }

    std::vector<Round> rounds;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    double calibration_s = calibrate(w.jobs);
    for (std::uint64_t r = 0;; ++r) {
        const bool traced = opt.trace && r % 2 == 1;
        calibration_s = std::min(
            {calibration_s, calibrate(w.jobs), calibrate(w.jobs)});
        rounds.push_back(runRound(w, traced, r));
        const Round &cur = rounds.back();
        for (std::size_t i = 0; i < cur.outs.size(); ++i) {
            ++attempted;
            std::string why = cur.outs[i].failure;
            if (why.empty() && cur.outs[i].digest != rounds[0].outs[i].digest)
                why = "outputs differ from round 0";
            if (why.empty())
                continue;
            ++failed;
            if (failures.size() < 20)
                failures.push_back(w.points[i].label + ": " + why);
        }
        const bool both_kinds = !opt.trace || rounds.size() >= 2;
        if (both_kinds && secondsSince(t_start) >= opt.seconds)
            break;
    }
    calibration_s =
        std::min({calibration_s, calibrate(w.jobs), calibrate(w.jobs)});

    std::vector<const Round *> traced, untraced;
    for (const Round &r : rounds)
        (r.traced ? traced : untraced).push_back(&r);
    std::map<std::string, double> info, decomposition;
    if (w.summarize)
        w.summarize(rounds.front().outs, info);
    double points = 0.0, wall = 0.0;
    std::vector<double> point_ms;
    for (const Round *r : untraced) {
        points += static_cast<double>(r->outs.size());
        wall += r->wallS;
        for (double s : r->pointS)
            point_ms.push_back(s * 1e3);
    }
    info["points_per_s"] = ratio(points, wall);
    info["point_p99_ms"] = percentile(point_ms, 0.99);
    info["process_setup_s"] = process_setup_s;
    info["calibration_s"] = calibration_s;

    const Metrics e2e = endToEnd(untraced, process_setup_s,
                                 kCalibrationRefS / calibration_s, info);
    Metrics layers;
    if (opt.trace) {
        layers = perLayer(w, traced, untraced, probes, decomposition);
        std::ofstream out(opt.traceOut);
        fatal_if(!out, "secpb_perf: cannot write '%s'", opt.traceOut.c_str());
        writeSpans(out);
    }

    secpb::JsonWriter j(std::cout, /*pretty=*/false);
    j.beginObject();
    j.field("workload", w.name);
    j.field("seed", opt.seed);
    j.field("jobs", w.jobs);
    j.field("trace", opt.trace);
    j.field("compiler", std::string("g++ ") + __VERSION__);
    j.field("cxx_flags", SECPB_PERF_CXX_FLAGS);
    j.field("build_type", SECPB_PERF_BUILD_TYPE);
    j.field("rounds", std::uint64_t{rounds.size()});
    j.field("traced_rounds", std::uint64_t{traced.size()});
    j.field("points_per_round", std::uint64_t{w.points.size()});
    j.field("attempted", attempted);
    j.field("failed", failed);
    j.key("failures");
    j.beginArray();
    for (const std::string &f : failures)
        j.value(f);
    j.endArray();
    j.key("labels");
    j.beginArray();
    for (const Point &p : w.points)
        j.value(p.label);
    j.endArray();
    j.key("digests");
    j.beginArray();
    for (const PointOutcome &o : rounds.front().outs) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(o.digest));
        j.value(hex);
    }
    j.endArray();
    writeMetrics(j, "metrics", e2e);
    writeMetrics(j, "layers", layers);
    writeMap(j, "info", info);
    writeMap(j, "decomposition", decomposition);
    j.endObject();
    std::cout << std::endl;
    return 0;
}

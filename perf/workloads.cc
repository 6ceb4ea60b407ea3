/**
 * @file
 * The five benchmark workloads, built from the simulator's public API.
 *
 * Each workload is a fixed list of points; a round runs all of them. The
 * sizes below make one round take about a second on a 4-CPU host, so a
 * 12 s run measures ten or more rounds and keeps each point's fastest
 * (see perf/README.md).
 */

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "bench.hh"
#include "core/simulation.hh"
#include "fault/injector.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"
#include "workload/synthetic.hh"

namespace perf
{

using namespace secpb;

namespace
{

/** @name Round sizes. */
/** @{ */
constexpr std::uint64_t kPaperInstr = 10'000'000;
constexpr std::uint64_t kSweepInstr = 1'000'000;
constexpr std::uint64_t kBatteryInstr = 125'000;
constexpr std::uint64_t kSoakTrials = 5'000;
constexpr std::uint64_t kShareInstrPerCore = 2'500'000;
/** @} */

/** The paper's six schemes with their Table IV slowdowns (%). */
struct PaperRow
{
    Scheme scheme;
    double slowdownPct;
};
constexpr PaperRow kPaperRows[] = {
    {Scheme::Cobcm, 1.3}, {Scheme::Obcm, 1.5}, {Scheme::Bcm, 14.8},
    {Scheme::Cm, 71.3},   {Scheme::M, 73.8},   {Scheme::NoGap, 118.4},
};

/** Stat paths, relative to a machine's stat root, summed per round. */
struct StatPath
{
    const char *metric;
    const char *path;
};

constexpr StatPath kScalarStats[] = {
    {"cpu.sb_stalls", "cpu.sb_stalls"},
    {"cpu.sb_full_stalls", "store_buffer.full_stalls"},
    {"secpb.persists", "secpb.persists"},
    {"secpb.allocs", "secpb.allocs"},
    {"secpb.coalesced", "secpb.coalesced_hits"},
    {"secpb.full_rejects", "secpb.full_rejects"},
    {"secpb.drained", "secpb.drained_entries"},
    {"secpb.page_reencrypts", "secpb.page_reencrypts"},
    {"pb.battery_stalls", "secpb.battery_stalls"},
    {"pb.mdc_shed_writes", "secpb.mdc_shed_writes"},
    {"crypto.otp", "crypto.otp_generated"},
    {"crypto.mac", "crypto.mac_generated"},
    {"metadata.root_updates", "bmt.root_updates"},
    {"metadata.merged_updates", "bmt.merged_updates"},
    {"metadata.full_walks", "bmt.full_walks"},
    {"metadata.ctr_hits", "ctr_cache.hits"},
    {"metadata.ctr_misses", "ctr_cache.misses"},
    {"metadata.bmt_hits", "bmt_cache.hits"},
    {"metadata.bmt_misses", "bmt_cache.misses"},
    {"metadata.mac_hits", "mac_cache.hits"},
    {"metadata.mac_misses", "mac_cache.misses"},
    {"metadata.writebacks", "ctr_cache.writebacks"},
    {"metadata.writebacks", "bmt_cache.writebacks"},
    {"metadata.writebacks", "mac_cache.writebacks"},
    {"mem.pcm_reads", "pcm.reads"},
    {"mem.pcm_writes", "pcm.writes"},
    {"mem.wpq_pushes", "wpq.pushes"},
    {"mem.wpq_coalesced", "wpq.coalesced"},
    {"mem.wpq_full_rejects", "wpq.full_rejects"},
};

/** Means kept as (sum, count) so they combine across points. */
constexpr StatPath kAverageStats[] = {
    {"secpb.unblock_latency", "secpb.unblock_latency"},
    {"metadata.update_latency", "bmt.update_latency"},
    {"mem.pcm_write_delay", "pcm.write_delay"},
};

double
scalarStat(const StatGroup &root, const char *path)
{
    const auto *s = dynamic_cast<const Scalar *>(root.findByPath(path));
    fatal_if(!s, "secpb_perf: no scalar stat '%s'", path);
    return s->value();
}

void
addMachineCounts(SecPbSystem &sys, Counts &c)
{
    const StatGroup &root = sys.stats();
    for (const StatPath &s : kScalarStats)
        c[s.metric] += scalarStat(root, s.path);
    for (const StatPath &s : kAverageStats) {
        const auto *a =
            dynamic_cast<const Average *>(root.findByPath(s.path));
        fatal_if(!a, "secpb_perf: no average stat '%s'", s.path);
        c[std::string(s.metric) + ".sum"] += a->sum();
        c[std::string(s.metric) + ".n"] += static_cast<double>(a->count());
    }
    c["sim.events"] += static_cast<double>(sys.eventQueue().numExecuted());
}

void
digestResult(OutputDigest &d, const SimulationResult &r)
{
    r.visitFields([&d](const char *name, auto v) { d.add(name, v); });
}

/** Times every next() call of the wrapped generator (traced rounds). */
class TimedGenerator final : public WorkloadGenerator
{
  public:
    explicit TimedGenerator(WorkloadGenerator &inner) : _inner(inner) {}

    bool
    next(TraceOp &op) override
    {
        const auto t0 = Clock::now();
        const bool more = _inner.next(op);
        _ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                   .count();
        _ops += more ? 1 : 0;
        return more;
    }

    const WorkloadCounters *
    counters() const override
    {
        return _inner.counters();
    }

    void
    addCounts(Counts &c) const
    {
        c["workload.ops"] += static_cast<double>(_ops);
        c["workload.next_ns"] += _ns;
    }

  private:
    WorkloadGenerator &_inner;
    std::uint64_t _ops = 0;
    double _ns = 0.0;
};

/** A generator, wrapped in a TimedGenerator on traced rounds. */
class GenSlot
{
  public:
    GenSlot(std::unique_ptr<WorkloadGenerator> gen, bool traced)
        : _gen(std::move(gen))
    {
        if (traced)
            _timed = std::make_unique<TimedGenerator>(*_gen);
    }

    WorkloadGenerator &
    use()
    {
        return _timed ? static_cast<WorkloadGenerator &>(*_timed) : *_gen;
    }

    void
    addCounts(Counts &c) const
    {
        if (_timed)
            _timed->addCounts(c);
    }

  private:
    std::unique_ptr<WorkloadGenerator> _gen;
    std::unique_ptr<TimedGenerator> _timed;
};

/**
 * One single-core run to completion: gamess in paper_point, every Table
 * IV cell in scheme_sweep and battery_adaptive.
 */
PointOutcome
runSingle(const PointCtx &ctx, const SimulationSpec &spec,
          const BenchmarkProfile &profile)
{
    PointOutcome out;
    SpanScope point("point", ctx);
    auto t0 = Clock::now();
    std::unique_ptr<Simulation> sim;
    std::unique_ptr<GenSlot> gen;
    {
        SpanScope s("setup", ctx);
        sim = std::make_unique<Simulation>(spec);
        gen = std::make_unique<GenSlot>(
            std::make_unique<SyntheticGenerator>(profile, spec.instructions,
                                                 spec.seed),
            ctx.traced);
    }
    out.setupS = secondsSince(t0);
    t0 = Clock::now();
    SimulationResult r;
    {
        SpanScope s("run", ctx);
        r = sim->run(gen->use());
    }
    out.runS = secondsSince(t0);

    SecPbSystem &sys = sim->system();
    OutputDigest d;
    digestResult(d, r);
    d.add("battery_stalls", scalarStat(sys.stats(), "secpb.battery_stalls"));
    d.add("mdc_shed_writes",
          scalarStat(sys.stats(), "secpb.mdc_shed_writes"));
    out.digest = d.value();
    out.instructions = r.instructions;
    out.execTicks = r.execTicks;
    if (r.instructions != spec.instructions || r.execTicks == 0)
        out.failure = "run retired " + std::to_string(r.instructions) +
                      " of " + std::to_string(spec.instructions) +
                      " instructions";
    if (ctx.traced) {
        addMachineCounts(sys, out.counts);
        gen->addCounts(out.counts);
        if (spec.base.battery.adaptive.enabled)
            out.counts["pb.adaptive_allocs"] +=
                scalarStat(sys.stats(), "secpb.allocs");
    }
    return out;
}

SimulationSpec
cellSpec(Scheme scheme, const BenchmarkProfile &profile,
         std::uint64_t instructions, std::uint64_t seed)
{
    SimulationSpec spec;
    spec.base = SecPbSystem::configFor(scheme, profile);
    spec.instructions = instructions;
    spec.seed = seed;
    return spec;
}

Workload
paperPoint(std::uint64_t seed)
{
    Workload w;
    w.name = "paper_point";
    const BenchmarkProfile &gamess = profileByName("gamess");
    const SimulationSpec spec =
        cellSpec(Scheme::Cobcm, gamess, kPaperInstr, seed);
    w.points.push_back({"gamess/cobcm", [spec, &gamess](const PointCtx &c) {
                            return runSingle(c, spec, gamess);
                        }});
    return w;
}

/** Eager schemes first: longest points lead the queue. */
constexpr Scheme kCostOrder[] = {Scheme::NoGap, Scheme::M,    Scheme::Cm,
                                 Scheme::Bcm,   Scheme::Obcm, Scheme::Cobcm,
                                 Scheme::Bbb};

/** Profiles by store intensity, highest first (host cost order). */
std::vector<const BenchmarkProfile *>
profilesByCost()
{
    std::vector<const BenchmarkProfile *> out;
    for (const BenchmarkProfile &p : spec2006Profiles())
        out.push_back(&p);
    std::stable_sort(out.begin(), out.end(),
                     [](const BenchmarkProfile *a, const BenchmarkProfile *b) {
                         return a->storesPerKiloInstr >
                                b->storesPerKiloInstr;
                     });
    return out;
}

Workload
schemeSweep(std::uint64_t seed)
{
    Workload w;
    w.name = "scheme_sweep";
    // (scheme, profile) of every point, for the Table IV summary.
    using Cell = std::pair<Scheme, std::string>;
    auto cells = std::make_shared<std::vector<Cell>>();
    for (const BenchmarkProfile *p : profilesByCost()) {
        for (Scheme s : kCostOrder) {
            const SimulationSpec spec = cellSpec(s, *p, kSweepInstr, seed);
            w.points.push_back({p->name + "/" + schemeName(s),
                                [spec, p](const PointCtx &c) {
                                    return runSingle(c, spec, *p);
                                }});
            cells->emplace_back(s, p->name);
        }
    }
    w.summarize = [cells](const std::vector<PointOutcome> &outs,
                          std::map<std::string, double> &info) {
        std::map<std::string, double> bbb;
        for (std::size_t i = 0; i < outs.size(); ++i)
            if ((*cells)[i].first == Scheme::Bbb)
                bbb[(*cells)[i].second] =
                    static_cast<double>(outs[i].execTicks);
        double abs_err = 0.0;
        for (const PaperRow &row : kPaperRows) {
            double log_sum = 0.0;
            std::size_t n = 0;
            for (std::size_t i = 0; i < outs.size(); ++i) {
                if ((*cells)[i].first != row.scheme)
                    continue;
                log_sum += std::log(static_cast<double>(outs[i].execTicks) /
                                    bbb.at((*cells)[i].second));
                ++n;
            }
            const double pct = (std::exp(log_sum / n) - 1.0) * 100.0;
            info[std::string("table4_geomean_pct.") +
                 schemeName(row.scheme)] = pct;
            abs_err += std::fabs(pct - row.slowdownPct);
        }
        info["table4_mae_pp"] = abs_err / std::size(kPaperRows);
    };
    return w;
}

Workload
batteryAdaptive(std::uint64_t seed)
{
    Workload w;
    w.name = "battery_adaptive";
    // The default cell, as table4_overheads' shed cells use it.
    const CapacitorParams cap = capacitorPresetFor("ideal");
    for (const BenchmarkProfile *p : profilesByCost()) {
        for (Scheme s : kCostOrder) {
            if (s == Scheme::Bbb)
                continue;
            SimulationSpec spec = cellSpec(s, *p, kBatteryInstr, seed);
            spec.base.battery.enabled = true;
            spec.base.battery.cap = cap;
            spec.base.battery.provisionFraction = 0.6;
            spec.base.battery.adaptive.enabled = true;
            w.points.push_back({p->name + "/" + schemeName(s) + "/shed",
                                [spec, p](const PointCtx &c) {
                                    return runSingle(c, spec, *p);
                                }});
        }
    }
    return w;
}

constexpr const char *kSoakProfiles[] = {
    "gamess", "omnetpp", "lbm", "mcf", "libquantum",
};
constexpr const char *kServerWorkloads[] = {
    "kv_wal", "fs_journal", "zipf_mix", "pstore",
};

/** One fault-injection trial, drawn from (seed, trial) only. */
struct Trial
{
    Scheme scheme;
    SchemeParams params;
    const char *profile;
    std::string workload;  ///< Registry workload; "" = the profile.
    std::uint64_t instructions;
    std::uint64_t wseed;
    FaultPlan plan;
};

Trial
drawTrial(std::uint64_t seed, std::uint64_t trial)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + trial);
    Trial t;
    t.scheme = SchemeZoo[trial % std::size(SchemeZoo)];
    if (t.scheme == Scheme::Triad)
        t.params.triadLevels = 1 + static_cast<unsigned>(trial % 4);
    t.profile = kSoakProfiles[rng.below(std::size(kSoakProfiles))];
    t.instructions = 8'000 + rng.below(8'000);
    t.wseed = rng.next();
    if (rng.chance(0.5))
        t.plan.crashAtPersist = 1 + rng.below(220);
    else
        t.plan.crashAtTick = 100 + rng.below(40'000);
    if (!rng.chance(1.0 / 3.0))
        t.plan.batteryFraction = rng.uniform();
    t.plan.tamperCount = static_cast<unsigned>(rng.below(4));
    t.plan.tamperSeed = rng.next();
    // Every fourth block of ten trials (one per zoo scheme) crashes a
    // server workload, so each scheme meets every generator.
    if ((trial / std::size(SchemeZoo)) % 4 == 3)
        t.workload =
            kServerWorkloads[(trial / (4 * std::size(SchemeZoo))) %
                             std::size(kServerWorkloads)];
    return t;
}

PointOutcome
runTrial(const PointCtx &ctx, const Trial &t)
{
    PointOutcome out;
    SpanScope point("point", ctx);
    auto t0 = Clock::now();
    std::unique_ptr<Simulation> sim;
    std::unique_ptr<GenSlot> gen;
    {
        SpanScope s("setup", ctx);
        SimulationSpec spec;
        spec.base.scheme = t.scheme;
        spec.base.secpb.params = t.params;
        spec.base.pmDataBytes = 1ULL << 30;
        spec.instructions = t.instructions;
        spec.seed = t.wseed;
        sim = std::make_unique<Simulation>(spec);
        gen = std::make_unique<GenSlot>(
            t.workload.empty()
                ? std::make_unique<SyntheticGenerator>(
                      profileByName(t.profile), t.instructions, t.wseed)
                : makeWorkload(t.workload, t.instructions, t.wseed),
            ctx.traced);
    }
    out.setupS = secondsSince(t0);

    SecPbSystem &sys = sim->system();
    // The injector owns the post-event hook of persist-count plans; on
    // tick plans the hook stamps the last simulated event, so the crash
    // span is everything after it: drain, tamper and verification.
    Clock::time_point last_event = Clock::now();
    const bool time_crash = ctx.traced && !t.plan.crashAtPersist;
    if (time_crash)
        sys.eventQueue().setPostEventHook(
            [&last_event] { last_event = Clock::now(); });
    t0 = Clock::now();
    FaultReport r;
    {
        SpanScope s("run", ctx);
        r = FaultInjector(sys, t.plan).run(gen->use());
    }
    const auto t_end = Clock::now();
    out.runS = std::chrono::duration<double>(t_end - t0).count();
    if (time_crash) {
        recordSpanUntil("crash", last_event, t_end, ctx.id, ctx.label);
        out.counts["recovery.crash_s"] +=
            std::chrono::duration<double>(t_end - last_event).count();
        out.counts["recovery.crash_n"] += 1;
    }

    const SimulationResult res = sim->result();
    const CrashWork &w = r.crash.work;
    OutputDigest d;
    digestResult(d, res);
    d.add("crashed_mid_run", r.crashedMidRun);
    d.add("crash_tick", std::uint64_t{r.crashTick});
    d.add("persists_at_crash", r.persistsAtCrash);
    d.add("recovered", r.crash.recovered);
    d.add("entries_drained", w.entriesDrained);
    d.add("counters_incremented", w.countersIncremented);
    d.add("counter_fetches", w.counterFetches);
    d.add("otps", w.otpsGenerated);
    d.add("bmt_root_updates", w.bmtRootUpdates);
    d.add("bmt_levels", w.bmtLevelsWalked);
    d.add("macs", w.macsComputed);
    d.add("ciphertexts", w.ciphertexts);
    d.add("pm_block_writes", w.pmBlockWrites);
    d.add("mdc_block_flushes", w.mdcBlockFlushes);
    d.add("cache_lines_flushed", w.cacheLinesFlushed);
    d.add("bmt_nodes_rebuilt", w.bmtNodesRebuilt);
    d.add("battery_exhausted", w.batteryExhausted);
    d.add("energy_spent_j", w.energySpentJ);
    d.add("drained_blocks", std::uint64_t{w.drainedBlocks.size()});
    d.add("abandoned", std::uint64_t{w.abandoned.size()});
    d.add("absorbed_applied", w.absorbedApplied);
    d.add("absorbed_lost", w.absorbedLost);
    d.add("torn_detected", r.crash.recovery.tornDetected);
    d.add("stale_consistent", r.crash.recovery.staleConsistent);
    d.add("tampers", std::uint64_t{r.tampers.size()});
    d.add("tampers_all_detected", r.tampersAllDetected);
    d.add("post_tamper_ok", r.postTamper.ok());
    out.digest = d.value();
    out.instructions = res.instructions;
    out.execTicks = res.execTicks;
    if (!r.crash.recovered)
        out.failure = "inconsistent recovery (" + t.plan.describe() + ")";
    else if (!r.tampersAllDetected)
        out.failure = "undetected tamper (" + t.plan.describe() + ")";

    if (ctx.traced) {
        addMachineCounts(sys, out.counts);
        gen->addCounts(out.counts);
        double detected = 0;
        for (const TamperRecord &rec : r.tampers)
            detected += TamperInjector::detected(rec, r.postTamper,
                                                 sys.layout(), sys.tree());
        out.counts["recovery.mid_run_crashes"] += r.crashedMidRun;
        out.counts["recovery.exhausted"] += w.batteryExhausted;
        out.counts["recovery.abandoned_entries"] +=
            static_cast<double>(w.abandoned.size());
        out.counts["recovery.torn_detected"] +=
            static_cast<double>(r.crash.recovery.tornDetected);
        out.counts["recovery.tampers_detected"] += detected;
    }
    return out;
}

Workload
crashSoak(std::uint64_t seed)
{
    Workload w;
    w.name = "crash_soak";
    for (std::uint64_t trial = 0; trial < kSoakTrials; ++trial) {
        const Trial t = drawTrial(seed, trial);
        w.points.push_back(
            {"trial=" + std::to_string(trial),
             [t](const PointCtx &c) { return runTrial(c, t); }});
    }
    return w;
}

/**
 * Private-region writer whose stores hit a 16-block pool shared by all
 * cores with probability @p share; the private pool has the same size,
 * so only cross-core sharing varies between points.
 */
class SharedPoolGenerator final : public WorkloadGenerator
{
  public:
    SharedPoolGenerator(std::uint64_t instructions, double share,
                        Addr private_base, std::uint64_t seed)
        : _budget(instructions), _share(share), _privateBase(private_base),
          _rng(seed)
    {}

    bool
    next(TraceOp &op) override
    {
        if (_emitted >= _budget)
            return false;
        if (_rng.chance(0.08)) {
            ++_emitted;
            op.kind = TraceOp::Kind::Store;
            const Addr base = _rng.chance(_share) ? 0x0 : _privateBase;
            op.addr = base + blockAlign(_rng.below(16) * BlockSize) +
                      8 * _rng.below(8);
            op.value = _rng.next();
            return true;
        }
        const auto count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(16, _budget - _emitted));
        _emitted += count;
        op.kind = TraceOp::Kind::Instr;
        op.count = count;
        return true;
    }

  private:
    std::uint64_t _budget;
    std::uint64_t _emitted = 0;
    double _share;
    Addr _privateBase;
    Rng _rng;
};

PointOutcome
runSharing(const PointCtx &ctx, Scheme scheme, double share,
           std::uint64_t seed)
{
    PointOutcome out;
    SpanScope point("point", ctx);
    auto t0 = Clock::now();
    std::unique_ptr<Simulation> sim;
    std::vector<std::unique_ptr<GenSlot>> gens;
    std::vector<WorkloadGenerator *> raw;
    {
        SpanScope s("setup", ctx);
        SimulationSpec spec;
        spec.base.scheme = scheme;
        spec.cores = 4;
        sim = std::make_unique<Simulation>(spec);
        for (unsigned c = 0; c < spec.cores; ++c) {
            gens.push_back(std::make_unique<GenSlot>(
                std::make_unique<SharedPoolGenerator>(
                    kShareInstrPerCore, share, 0x1000000ULL * (c + 1),
                    seed + c),
                ctx.traced));
            raw.push_back(&gens.back()->use());
        }
    }
    out.setupS = secondsSince(t0);
    t0 = Clock::now();
    MultiCoreResult mr;
    {
        SpanScope s("run", ctx);
        mr = sim->run(raw);
    }
    out.runS = secondsSince(t0);

    MultiCoreSystem &mc = sim->multi();
    OutputDigest d;
    d.add("exec_ticks", std::uint64_t{mr.execTicks});
    d.add("total_instructions", mr.totalInstructions);
    d.add("migrations", mr.migrations);
    d.add("remote_read_flushes", mr.remoteReadFlushes);
    d.add("first_touches", mr.firstTouches);
    for (const SimulationResult &r : mr.perCore)
        digestResult(d, r);
    out.digest = d.value();
    out.instructions = mr.totalInstructions;
    out.execTicks = mr.execTicks;
    if (mr.totalInstructions != kShareInstrPerCore * mc.numCores())
        out.failure = "retired " + std::to_string(mr.totalInstructions) +
                      " instructions";
    else if (!mc.invariantNoReplication())
        out.failure = "a block is resident in two persist buffers";

    if (ctx.traced) {
        for (unsigned c = 0; c < mc.numCores(); ++c)
            addMachineCounts(mc.slice(c), out.counts);
        for (const auto &g : gens)
            g->addCounts(out.counts);
        out.counts["core.epochs"] +=
            static_cast<double>(mr.execTicks / mc.epochTicks());
        out.counts["core.migrations"] += static_cast<double>(mr.migrations);
    }
    return out;
}

Workload
multicoreShare(std::uint64_t seed)
{
    Workload w;
    w.name = "multicore_share";
    for (Scheme s : {Scheme::Cobcm, Scheme::NoGap}) {
        for (double share : {0.0, 0.05, 0.25, 1.0}) {
            char label[64];
            std::snprintf(label, sizeof(label), "%s/share=%.2f",
                          schemeName(s), share);
            w.points.push_back({label, [s, share, seed](const PointCtx &c) {
                                    return runSharing(c, s, share, seed);
                                }});
        }
    }
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_point", "scheme_sweep", "battery_adaptive", "crash_soak",
        "multicore_share",
    };
    return names;
}

Workload
makeBenchWorkload(const std::string &name, std::uint64_t seed,
                  unsigned jobs)
{
    Workload w;
    if (name == "paper_point")
        w = paperPoint(seed);
    else if (name == "scheme_sweep")
        w = schemeSweep(seed);
    else if (name == "battery_adaptive")
        w = batteryAdaptive(seed);
    else if (name == "crash_soak")
        w = crashSoak(seed);
    else if (name == "multicore_share")
        w = multicoreShare(seed);
    else
        fatal("secpb_perf: unknown workload '%s'", name.c_str());
    // Sweeps fan out; the single long run and the multi-core points run
    // one at a time, so host parallelism there is the program's own.
    const bool sweep = name == "scheme_sweep" ||
                       name == "battery_adaptive" || name == "crash_soak";
    w.jobs = sweep ? jobs : 1;
    return w;
}

} // namespace perf

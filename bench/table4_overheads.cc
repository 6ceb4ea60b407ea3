/**
 * @file
 * Reproduces Table IV: average performance overhead of each SecPB scheme
 * with a 32-entry SecPB, relative to the insecure BBB baseline, across the
 * 18 SPEC2006-like workloads.
 *
 * The paper reports a single average slowdown percentage per scheme; we
 * print both the geometric and arithmetic means of the per-benchmark
 * normalized execution times (the geometric mean is the standard summary
 * for normalized times and is the one that reproduces the paper's bands)
 * next to the paper's reported numbers.
 *
 * A second point set re-runs every cell on an undersized battery with
 * the adaptive drain policy on, and reports the degraded-mode cost the
 * paper's table leaves implicit: mdc_shed_writes -- metadata-cache
 * writebacks forced early to keep the crash obligation affordable --
 * as a per-kilo-instruction overhead column (plus the allocations the
 * battery gate stalled). The shedding is extra PCM write traffic, i.e.
 * a write-through-shaped endurance/bandwidth overhead that only shows
 * up when the cell is smaller than the worst case.
 */

#include "bench_common.hh"

using namespace secpb;
using namespace secpb::bench;

int
main(int argc, char **argv)
{
    const BenchCli cli = BenchCli::parse(
        argc, argv, "table4",
        flag::Grid | flag::Schemes | flag::Profiles | flag::BatteryTech |
        flag::BatteryDerate);
    const std::uint64_t instr = cli.spec.instructions;

    struct Row
    {
        Scheme scheme;
        double paperPct;  ///< Table IV "Slowdown(%)".
    };
    const std::vector<Row> rows = cli.pick<Row>({
        {Scheme::Cobcm, 1.3},  {Scheme::Obcm, 1.5}, {Scheme::Bcm, 14.8},
        {Scheme::Cm, 71.3},    {Scheme::M, 73.8},   {Scheme::NoGap, 118.4},
    });
    const std::vector<BenchmarkProfile> profiles = cli.profilesToRun();

    // Scheme-major: every profile's baseline, then one block per scheme.
    Sweep sweep(cli);
    std::vector<std::size_t> base_idx;
    std::vector<std::vector<std::size_t>> cell_idx(rows.size());
    for (const BenchmarkProfile &p : profiles)
        base_idx.push_back(sweep.add(cli.point(Scheme::Bbb, p.name)));
    for (std::size_t ri = 0; ri < rows.size(); ++ri)
        for (const BenchmarkProfile &p : profiles)
            cell_idx[ri].push_back(
                sweep.add(cli.point(rows[ri].scheme, p.name)));

    // Degraded-mode cells: same (scheme, profile) grid on a battery
    // provisioned for only a fraction of the worst case, adaptive drain
    // policy on. The policy sheds dirty metadata early to keep the
    // crash prediction affordable -- that extra PCM write traffic is
    // the overhead this table surfaces.
    const CapacitorParams &cap = cli.spec.base.battery.cap;
    auto shed_point = [&](Scheme s, const std::string &profile) {
        ExperimentPoint p = cli.point(s, profile);
        p.label += "/shed";
        p.tag("battery", "provision=0.6,adaptive=on");
        p.spec.base.battery.enabled = true;
        p.spec.base.battery.cap = cap;
        p.spec.base.battery.provisionFraction = 0.6;
        p.spec.base.battery.adaptive.enabled = true;
        p.custom = [](const ExperimentPoint &pt) {
            Simulation sim(pt.spec);
            SecPbSystem &sys = sim.system();
            const auto gen = pointWorkload(pt);
            ExperimentResult res;
            res.sim = sim.run(*gen);
            res.extra = {
                {"mdc_shed_writes",
                 sys.secpb().statMdcShedWrites.value()},
                {"battery_stalls",
                 sys.secpb().statBatteryStalls.value()},
            };
            return res;
        };
        return sweep.add(std::move(p));
    };
    std::vector<std::vector<std::size_t>> shed_idx(rows.size());
    for (std::size_t ri = 0; ri < rows.size(); ++ri)
        for (const BenchmarkProfile &p : profiles)
            shed_idx[ri].push_back(shed_point(rows[ri].scheme, p.name));

    sweep.run();

    std::printf("Table IV: performance overheads, 32-entry SecPB "
                "(%llu instructions/run, %zu benchmarks)\n\n",
                static_cast<unsigned long long>(instr), profiles.size());
    std::printf("%-8s %18s %18s %14s %12s %12s\n", "Model",
                "geomean slowdown", "arith slowdown", "paper",
                "shed wr/Ki", "gate stalls");
    for (std::size_t ri = 0; ri < rows.size(); ++ri) {
        std::vector<double> ratios;
        double shed = 0.0, stalls = 0.0;
        for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
            ratios.push_back(
                sweep.execRatio(cell_idx[ri][pi], base_idx[pi]));
            shed += sweep.at(shed_idx[ri][pi])
                        .extraValue("mdc_shed_writes");
            stalls += sweep.at(shed_idx[ri][pi])
                          .extraValue("battery_stalls");
        }
        const double geo_pct = (geomean(ratios) - 1.0) * 100.0;
        const double arith_pct = (mean(ratios) - 1.0) * 100.0;
        // Shed writebacks per kilo-instruction, averaged over profiles:
        // directly comparable to PPTI (each shed is one extra PCM-bound
        // block write the eager schemes would have paid up front).
        const double shed_per_ki =
            shed / (static_cast<double>(instr) / 1000.0 *
                    static_cast<double>(profiles.size()));
        sweep.derive("geomean_slowdown_pct", schemeName(rows[ri].scheme),
                     geo_pct);
        sweep.derive("arith_slowdown_pct", schemeName(rows[ri].scheme),
                     arith_pct);
        sweep.derive("mdc_shed_writes_per_ki",
                     schemeName(rows[ri].scheme), shed_per_ki);
        sweep.derive("battery_gate_stalls", schemeName(rows[ri].scheme),
                     stalls);
        std::printf("%-8s %17.1f%% %17.1f%% %13.1f%% %12.2f %12.0f\n",
                    schemeName(rows[ri].scheme), geo_pct, arith_pct,
                    rows[ri].paperPct, shed_per_ki, stalls);
    }

    sweep.writeJson();
    return 0;
}

/**
 * @file
 * Reproduces Figure 6: per-benchmark execution time of every SecPB scheme
 * with a 32-entry SecPB, normalized to the insecure BBB baseline.
 *
 * Also prints the PPTI / NWPE characterization of Section VI-B (including
 * the gamess IPC sanity estimate the paper derives) so the workload
 * calibration is visible next to the results.
 *
 * Declares one point per (profile, scheme) cell plus the BBB baseline per
 * profile, runs them through the experiment engine (see --jobs), and
 * prints the table from the aggregated results.
 */

#include "bench_common.hh"

using namespace secpb;
using namespace secpb::bench;

int
main(int argc, char **argv)
{
    const BenchCli cli = BenchCli::parse(
        argc, argv, "fig6", flag::Grid | flag::Schemes | flag::Profiles);
    const std::vector<Scheme> schemes = cli.pick(
        {Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm, Scheme::Cm, Scheme::M,
         Scheme::NoGap, Scheme::Secpm, Scheme::Triad, Scheme::Eadr,
         Scheme::Stream});
    const std::vector<BenchmarkProfile> profiles = cli.profilesToRun();

    // Per profile: the BBB baseline plus every scheme column.
    Sweep sweep(cli);
    std::vector<std::size_t> base_idx;
    std::vector<std::vector<std::size_t>> cell_idx;
    for (const BenchmarkProfile &p : profiles) {
        base_idx.push_back(sweep.add(cli.point(Scheme::Bbb, p.name)));
        cell_idx.emplace_back();
        for (Scheme s : schemes)
            cell_idx.back().push_back(sweep.add(cli.point(s, p.name)));
    }

    // Section VI-B sanity point: gamess under NoGap.
    std::size_t gamess_idx = 0;
    const bool want_gamess =
        cli.wantProfile("gamess") && cli.wantScheme(Scheme::NoGap);
    if (want_gamess)
        gamess_idx = sweep.add(cli.point(Scheme::NoGap, "gamess"));

    sweep.run();

    std::printf("Figure 6: execution time of 32-entry SecPB normalized "
                "to BBB (%llu instructions/run)\n\n",
                static_cast<unsigned long long>(cli.spec.instructions));
    std::printf("%-12s %6s %6s |", "benchmark", "PPTI", "NWPE");
    std::vector<std::string> names;
    for (Scheme s : schemes) {
        names.push_back(schemeName(s));
        std::printf(" %7s", schemeName(s));
    }
    std::printf("\n");

    Table table(sweep, names, " %7.3f", 26);
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        const SimulationResult &base = sweep.at(base_idx[pi]).sim;
        std::vector<double> ratios;
        for (std::size_t cell : cell_idx[pi])
            ratios.push_back(sweep.execRatio(cell, base_idx[pi]));
        char label[64];
        std::snprintf(label, sizeof(label), "%-12s %6.1f %6.2f",
                      profiles[pi].name.c_str(), base.ppti, base.nwpe);
        table.row(label, ratios);
    }
    std::printf("\n");
    table.summary("geomean", "geomean_exec_ratio", geomean);
    table.summary("arithmetic mean", "mean_exec_ratio", mean);

    // The paper estimates gamess IPC under NoGap as
    // 1000 / (320*(PPTI/NWPE) + 40*PPTI) ~= 0.11 (actual 0.13).
    if (want_gamess) {
        const SimulationResult &g = sweep.at(gamess_idx).sim;
        const double est =
            1000.0 / (320.0 * (g.ppti / g.nwpe) + 40.0 * g.ppti);
        std::printf("\ngamess NoGap IPC: measured %.3f, paper-style "
                    "estimate %.3f (paper: actual 0.13, estimate 0.11)\n",
                    g.ipc, est);
        sweep.derive("gamess_nogap_ipc", "measured", g.ipc);
        sweep.derive("gamess_nogap_ipc", "estimate", est);
    }

    sweep.writeJson();
    return 0;
}

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
    setQuietLogging(true);
    const BenchCli cli = BenchCli::parse(argc, argv, "fig6");
    const std::uint64_t instr = cli.spec.instructions;

    const Scheme all_schemes[] = {Scheme::Cobcm, Scheme::Obcm,
                                  Scheme::Bcm,   Scheme::Cm,
                                  Scheme::M,     Scheme::NoGap,
                                  Scheme::Secpm, Scheme::Triad,
                                  Scheme::Eadr,  Scheme::Stream};
    std::vector<Scheme> schemes;
    for (Scheme s : all_schemes)
        if (cli.wantScheme(s))
            schemes.push_back(s);
    const std::vector<BenchmarkProfile> profiles = cli.profilesToRun();

    Sweep sweep(cli);
    auto point = [&](Scheme s, const std::string &profile) {
        ExperimentPoint p;
        p.label = profile + "/" + schemeName(s);
        p.scheme = s;
        p.schemeParams = cli.schemeParams;
        p.profile = profile;
        p.instructions = instr;
        p.seed = cli.spec.seed;
        return sweep.add(std::move(p));
    };

    // Per profile: the BBB baseline plus every scheme column.
    std::vector<std::size_t> base_idx;
    std::vector<std::vector<std::size_t>> cell_idx;
    for (const BenchmarkProfile &p : profiles) {
        base_idx.push_back(point(Scheme::Bbb, p.name));
        cell_idx.emplace_back();
        for (Scheme s : schemes)
            cell_idx.back().push_back(point(s, p.name));
    }

    // Section VI-B sanity point: gamess under NoGap.
    std::size_t gamess_idx = 0;
    const bool want_gamess =
        cli.wantProfile("gamess") && cli.wantScheme(Scheme::NoGap);
    if (want_gamess)
        gamess_idx = point(Scheme::NoGap, "gamess");

    sweep.run();

    std::printf("Figure 6: execution time of 32-entry SecPB normalized "
                "to BBB (%llu instructions/run)\n\n",
                static_cast<unsigned long long>(instr));
    std::printf("%-12s %6s %6s |", "benchmark", "PPTI", "NWPE");
    for (Scheme s : schemes)
        std::printf(" %7s", schemeName(s));
    std::printf("\n");

    std::vector<std::vector<double>> ratios(schemes.size());
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        const SimulationResult &base = sweep.at(base_idx[pi]).sim;
        std::printf("%-12s %6.1f %6.2f |", profiles[pi].name.c_str(),
                    base.ppti, base.nwpe);
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            const SimulationResult &r = sweep.at(cell_idx[pi][si]).sim;
            const double ratio =
                static_cast<double>(r.execTicks) / base.execTicks;
            ratios[si].push_back(ratio);
            std::printf(" %7.3f", ratio);
        }
        std::printf("\n");
    }

    std::printf("\n%-26s |", "geomean");
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        const double g = geomean(ratios[si]);
        sweep.derive("geomean_exec_ratio", schemeName(schemes[si]), g);
        std::printf(" %7.3f", g);
    }
    std::printf("\n%-26s |", "arithmetic mean");
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        const double m = mean(ratios[si]);
        sweep.derive("mean_exec_ratio", schemeName(schemes[si]), m);
        std::printf(" %7.3f", m);
    }
    std::printf("\n");

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

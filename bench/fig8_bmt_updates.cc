/**
 * @file
 * Reproduces Figure 8: total BMT root updates performed by each SecPB
 * scheme, normalized to sec_wt (write-through security, which performs
 * one leaf-to-root update per store). Also prints the SecPB-size sweep of
 * root updates for the CM model referenced in Section VI-D ("a 8-entry
 * SecPB reduces BMT updates to 12.7% ... 512-entry to 1.8%").
 */

#include "bench_common.hh"

using namespace secpb;
using namespace secpb::bench;

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    const BenchCli cli = BenchCli::parse(argc, argv, "fig8");
    const std::uint64_t instr = cli.spec.instructions;

    const Scheme all_schemes[] = {Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm,
                                  Scheme::Cm, Scheme::M, Scheme::NoGap};
    std::vector<Scheme> schemes;
    for (Scheme s : all_schemes)
        if (cli.wantScheme(s))
            schemes.push_back(s);
    const std::vector<BenchmarkProfile> profiles = cli.profilesToRun();
    const unsigned sizes[] = {8, 16, 32, 64, 128, 512};

    Sweep sweep(cli);
    auto point = [&](Scheme s, const std::string &profile,
                     unsigned size = 32) {
        ExperimentPoint p;
        p.label = profile + "/" + schemeName(s) + "/entries=" +
                  std::to_string(size);
        p.scheme = s;
        p.profile = profile;
        p.instructions = instr;
        p.secpbEntries = size;
        p.seed = cli.spec.seed;
        return sweep.add(std::move(p));
    };

    std::vector<std::size_t> wt_idx;
    std::vector<std::vector<std::size_t>> cell_idx;
    for (const BenchmarkProfile &p : profiles) {
        wt_idx.push_back(point(Scheme::SecWt, p.name));
        cell_idx.emplace_back();
        for (Scheme s : schemes)
            cell_idx.back().push_back(point(s, p.name));
    }

    // Size sweep (CM), Section VI-D.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> size_idx;
    for (unsigned s : sizes) {
        size_idx.emplace_back();
        for (const BenchmarkProfile &p : profiles)
            size_idx.back().emplace_back(point(Scheme::SecWt, p.name, s),
                                         point(Scheme::Cm, p.name, s));
    }

    sweep.run();

    std::printf("Figure 8: BMT root updates normalized to sec_wt "
                "(%llu instructions/run)\n\n",
                static_cast<unsigned long long>(instr));
    std::printf("%-12s |", "benchmark");
    for (Scheme s : schemes)
        std::printf(" %7s", schemeName(s));
    std::printf("\n");

    std::vector<std::vector<double>> fracs(schemes.size());
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        const SimulationResult &wt = sweep.at(wt_idx[pi]).sim;
        const double wt_updates =
            std::max<std::uint64_t>(1, wt.bmtRootUpdates);
        std::printf("%-12s |", profiles[pi].name.c_str());
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            const SimulationResult &r = sweep.at(cell_idx[pi][si]).sim;
            const double frac = r.bmtRootUpdates / wt_updates;
            fracs[si].push_back(frac);
            std::printf(" %6.1f%%", frac * 100.0);
        }
        std::printf("\n");
    }
    std::printf("\n%-12s |", "mean");
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        const double m = mean(fracs[si]);
        sweep.derive("mean_bmt_update_frac", schemeName(schemes[si]), m);
        std::printf(" %6.1f%%", m * 100.0);
    }
    std::printf("\n");

    std::printf("\nCM BMT root updates vs SecPB size "
                "(normalized to sec_wt; paper: 8 -> 12.7%%, "
                "512 -> 1.8%%)\n\n%-12s |", "size");
    for (unsigned s : sizes)
        std::printf(" %7u", s);
    std::printf("\n%-12s |", "mean frac");
    for (std::size_t si = 0; si < std::size(sizes); ++si) {
        std::vector<double> f;
        for (const auto &[wt_i, cm_i] : size_idx[si]) {
            const SimulationResult &wt = sweep.at(wt_i).sim;
            const SimulationResult &r = sweep.at(cm_i).sim;
            f.push_back(r.bmtRootUpdates /
                        std::max<double>(1.0, wt.bmtRootUpdates));
        }
        const double m = mean(f);
        sweep.derive("mean_bmt_update_frac_cm",
                     "entries=" + std::to_string(sizes[si]), m);
        std::printf(" %6.1f%%", m * 100.0);
    }
    std::printf("\n");

    sweep.writeJson();
    return 0;
}

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
    const BenchCli cli = BenchCli::parse(
        argc, argv, "fig8", flag::Grid | flag::Schemes | flag::Profiles);

    const std::vector<Scheme> schemes =
        cli.pick({Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm, Scheme::Cm,
                  Scheme::M, Scheme::NoGap});
    const std::vector<BenchmarkProfile> profiles = cli.profilesToRun();
    const unsigned sizes[] = {8, 16, 32, 64, 128, 512};

    Sweep sweep(cli);
    auto point = [&](Scheme s, const std::string &profile,
                     unsigned size = 32) {
        ExperimentPoint p = cli.point(s, profile);
        p.label += "/entries=" + std::to_string(size);
        p.spec.base.secpb.numEntries = size;
        return sweep.add(std::move(p));
    };
    // Root updates of a point as a fraction of its sec_wt baseline.
    auto frac = [&](std::size_t cell, std::size_t wt) {
        return sweep.at(cell).sim.bmtRootUpdates /
               std::max<double>(1.0, sweep.at(wt).sim.bmtRootUpdates);
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
                static_cast<unsigned long long>(cli.spec.instructions));
    std::printf("%-12s |", "benchmark");
    std::vector<std::string> names;
    for (Scheme s : schemes) {
        names.push_back(schemeName(s));
        std::printf(" %7s", schemeName(s));
    }
    std::printf("\n");

    Table table(sweep, names, " %6.1f%%", 12, 100.0);
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        std::vector<double> fracs;
        for (std::size_t cell : cell_idx[pi])
            fracs.push_back(frac(cell, wt_idx[pi]));
        table.row(profiles[pi].name, fracs);
    }
    std::printf("\n");
    table.summary("mean", "mean_bmt_update_frac", mean);

    std::printf("\nCM BMT root updates vs SecPB size "
                "(normalized to sec_wt; paper: 8 -> 12.7%%, "
                "512 -> 1.8%%)\n\n%-12s |", "size");
    std::vector<std::string> groups;
    for (unsigned s : sizes) {
        groups.push_back("entries=" + std::to_string(s));
        std::printf(" %7u", s);
    }
    std::printf("\n");
    Table by_size(sweep, groups, " %6.1f%%", 12, 100.0);
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        std::vector<double> fracs;
        for (const auto &pairs : size_idx)
            fracs.push_back(frac(pairs[pi].second, pairs[pi].first));
        by_size.add(fracs);
    }
    by_size.summary("mean frac", "mean_bmt_update_frac_cm", mean);

    sweep.writeJson();
    return 0;
}

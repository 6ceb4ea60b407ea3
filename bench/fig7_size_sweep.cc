/**
 * @file
 * Reproduces Figure 7: execution time of the CM model for SecPB sizes
 * 8..512 entries, normalized to the BBB baseline at the same size.
 *
 * Expected shape (paper Section VI-D): overhead falls as the SecPB grows
 * (more coalescing of BMT root updates), with diminishing returns at
 * 32-64 entries; streaming workloads like bwaves are insensitive because
 * their NWPE does not change with capacity, while gobmk keeps improving
 * because its reuse distances straddle the buffer capacity.
 */

#include "bench_common.hh"

using namespace secpb;
using namespace secpb::bench;

int
main(int argc, char **argv)
{
    const BenchCli cli = BenchCli::parse(
        argc, argv, "fig7", flag::Grid | flag::Profiles);
    const unsigned sizes[] = {8, 16, 32, 64, 128, 512};
    const std::vector<BenchmarkProfile> profiles = cli.profilesToRun();

    Sweep sweep(cli);
    auto point = [&](Scheme s, const std::string &profile, unsigned size) {
        ExperimentPoint p = cli.point(s, profile);
        p.label += "/entries=" + std::to_string(size);
        p.spec.base.secpb.numEntries = size;
        return sweep.add(std::move(p));
    };

    // Per (profile, size): a same-size BBB baseline and the CM point.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> idx;
    for (const BenchmarkProfile &p : profiles) {
        idx.emplace_back();
        for (unsigned s : sizes)
            idx.back().emplace_back(point(Scheme::Bbb, p.name, s),
                                    point(Scheme::Cm, p.name, s));
    }

    sweep.run();

    std::printf("Figure 7: CM execution time vs SecPB size, normalized "
                "to same-size BBB (%llu instructions/run)\n\n",
                static_cast<unsigned long long>(cli.spec.instructions));
    std::printf("%-12s |", "benchmark");
    std::vector<std::string> groups;
    for (unsigned s : sizes) {
        groups.push_back("entries=" + std::to_string(s));
        std::printf(" %7u", s);
    }
    std::printf("\n");

    Table ratios(sweep, groups, " %7.3f");
    Table nwpes(sweep, groups, " %7.2f");
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        std::vector<double> ratio, nwpe;
        for (const auto &[base, cm] : idx[pi]) {
            ratio.push_back(sweep.execRatio(cm, base));
            nwpe.push_back(sweep.at(cm).sim.nwpe);
        }
        ratios.row(profiles[pi].name, ratio);
        nwpes.add(nwpe);
    }
    std::printf("\n");
    ratios.summary("geomean", "geomean_exec_ratio", geomean);
    nwpes.summary("mean NWPE", "mean_nwpe", mean);
    std::printf("\npaper: 8-entry overhead 112.3%%, 512-entry 24%%; "
                "diminishing returns at 32-64 entries\n");

    sweep.writeJson();
    return 0;
}

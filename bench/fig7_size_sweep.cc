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
    setQuietLogging(true);
    const BenchCli cli = BenchCli::parse(argc, argv, "fig7");
    const std::uint64_t instr = cli.spec.instructions;
    const unsigned sizes[] = {8, 16, 32, 64, 128, 512};
    const std::vector<BenchmarkProfile> profiles = cli.profilesToRun();

    Sweep sweep(cli);
    auto point = [&](Scheme s, const std::string &profile, unsigned size) {
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
                static_cast<unsigned long long>(instr));
    std::printf("%-12s |", "benchmark");
    for (unsigned s : sizes)
        std::printf(" %7u", s);
    std::printf("\n");

    std::vector<std::vector<double>> ratios(std::size(sizes));
    std::vector<std::vector<double>> nwpes(std::size(sizes));
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        std::printf("%-12s |", profiles[pi].name.c_str());
        for (std::size_t si = 0; si < std::size(sizes); ++si) {
            const SimulationResult &base = sweep.at(idx[pi][si].first).sim;
            const SimulationResult &r = sweep.at(idx[pi][si].second).sim;
            const double ratio =
                static_cast<double>(r.execTicks) / base.execTicks;
            ratios[si].push_back(ratio);
            nwpes[si].push_back(r.nwpe);
            std::printf(" %7.3f", ratio);
        }
        std::printf("\n");
    }

    std::printf("\n%-12s |", "geomean");
    for (std::size_t si = 0; si < std::size(sizes); ++si) {
        const double g = geomean(ratios[si]);
        sweep.derive("geomean_exec_ratio",
                     "entries=" + std::to_string(sizes[si]), g);
        std::printf(" %7.3f", g);
    }
    std::printf("\n%-12s |", "mean NWPE");
    for (std::size_t si = 0; si < std::size(sizes); ++si) {
        const double m = mean(nwpes[si]);
        sweep.derive("mean_nwpe", "entries=" + std::to_string(sizes[si]),
                     m);
        std::printf(" %7.2f", m);
    }
    std::printf("\n\npaper: 8-entry overhead 112.3%%, 512-entry 24%%; "
                "diminishing returns at 32-64 entries\n");

    sweep.writeJson();
    return 0;
}

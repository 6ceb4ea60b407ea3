/**
 * @file
 * Reproduces Figure 9: combining SecPB's CM scheme with Bonsai Merkle
 * Forest height reduction (DBMF: 2 levels, SBMF: 5 levels), compared with
 * applying DBMF/SBMF to the strict-persistency (SP) baseline with a 4 KB
 * root cache. All normalized to insecure BBB.
 *
 * Expected shape (paper Section VI-E): cm_dbmf < sp_dbmf, cm_sbmf <
 * sp_sbmf, and cm_sbmf even beats sp_dbmf -- coalescing in the SecPB
 * compounds with height reduction. Paper numbers: sp_dbmf 88.9%,
 * cm_dbmf 33.3%, sp_sbmf 3.43x, cm_sbmf 56.6%.
 */

#include "bench_common.hh"

using namespace secpb;
using namespace secpb::bench;

int
main(int argc, char **argv)
{
    const BenchCli cli = BenchCli::parse(
        argc, argv, "fig9", flag::Grid | flag::Schemes | flag::Profiles);

    struct Variant
    {
        const char *name;
        Scheme scheme;
        BmfMode bmf;
    };
    const std::vector<Variant> variants = cli.pick<Variant>({
        {"cm", Scheme::Cm, BmfMode::None},
        {"sp_dbmf", Scheme::Sp, BmfMode::Dbmf},
        {"cm_dbmf", Scheme::Cm, BmfMode::Dbmf},
        {"sp_sbmf", Scheme::Sp, BmfMode::Sbmf},
        {"cm_sbmf", Scheme::Cm, BmfMode::Sbmf},
    });
    const std::vector<BenchmarkProfile> profiles = cli.profilesToRun();

    Sweep sweep(cli);
    std::vector<std::size_t> base_idx;
    std::vector<std::vector<std::size_t>> cell_idx;
    for (const BenchmarkProfile &p : profiles) {
        base_idx.push_back(sweep.add(cli.point(Scheme::Bbb, p.name)));
        cell_idx.emplace_back();
        for (const Variant &v : variants) {
            ExperimentPoint pt = cli.point(v.scheme, p.name);
            pt.label = p.name + "/" + v.name;
            pt.spec.base.walker.bmfMode = v.bmf;
            pt.tag("variant", v.name);
            cell_idx.back().push_back(sweep.add(std::move(pt)));
        }
    }

    sweep.run();

    std::printf("Figure 9: CM with BMT height reduction (DBMF/SBMF) vs "
                "SP with the same, normalized to BBB "
                "(%llu instructions/run)\n\n",
                static_cast<unsigned long long>(cli.spec.instructions));
    std::printf("%-12s |", "benchmark");
    std::vector<std::string> names;
    for (const Variant &v : variants) {
        names.push_back(v.name);
        std::printf(" %8s", v.name);
    }
    std::printf("\n");

    Table table(sweep, names, " %8.3f");
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        std::vector<double> ratios;
        for (std::size_t cell : cell_idx[pi])
            ratios.push_back(sweep.execRatio(cell, base_idx[pi]));
        table.row(profiles[pi].name, ratios);
    }
    std::printf("\n");
    table.summary("geomean", "geomean_exec_ratio", geomean);
    std::printf("\npaper: sp_dbmf 1.889, cm_dbmf 1.333, sp_sbmf 3.43x "
                "total, cm_sbmf 1.566\n");

    sweep.writeJson();
    return 0;
}

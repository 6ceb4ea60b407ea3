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
    setQuietLogging(true);
    const BenchCli cli = BenchCli::parse(argc, argv, "fig9");
    const std::uint64_t instr = cli.spec.instructions;

    struct Variant
    {
        const char *name;
        Scheme scheme;
        BmfMode bmf;
    };
    const Variant all_variants[] = {
        {"cm", Scheme::Cm, BmfMode::None},
        {"sp_dbmf", Scheme::Sp, BmfMode::Dbmf},
        {"cm_dbmf", Scheme::Cm, BmfMode::Dbmf},
        {"sp_sbmf", Scheme::Sp, BmfMode::Sbmf},
        {"cm_sbmf", Scheme::Cm, BmfMode::Sbmf},
    };
    std::vector<Variant> variants;
    for (const Variant &v : all_variants)
        if (cli.wantScheme(v.scheme))
            variants.push_back(v);
    const std::vector<BenchmarkProfile> profiles = cli.profilesToRun();

    Sweep sweep(cli);
    std::vector<std::size_t> base_idx;
    std::vector<std::vector<std::size_t>> cell_idx;
    for (const BenchmarkProfile &p : profiles) {
        ExperimentPoint base;
        base.label = p.name + "/bbb";
        base.scheme = Scheme::Bbb;
        base.profile = p.name;
        base.instructions = instr;
        base.seed = cli.spec.seed;
        base_idx.push_back(sweep.add(std::move(base)));

        cell_idx.emplace_back();
        for (const Variant &v : variants) {
            ExperimentPoint pt;
            pt.label = p.name + "/" + v.name;
            pt.scheme = v.scheme;
            pt.profile = p.name;
            pt.instructions = instr;
            pt.bmf = v.bmf;
            pt.seed = cli.spec.seed;
            pt.tag("variant", v.name);
            cell_idx.back().push_back(sweep.add(std::move(pt)));
        }
    }

    sweep.run();

    std::printf("Figure 9: CM with BMT height reduction (DBMF/SBMF) vs "
                "SP with the same, normalized to BBB "
                "(%llu instructions/run)\n\n",
                static_cast<unsigned long long>(instr));
    std::printf("%-12s |", "benchmark");
    for (const Variant &v : variants)
        std::printf(" %8s", v.name);
    std::printf("\n");

    std::vector<std::vector<double>> ratios(variants.size());
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        const double base =
            static_cast<double>(sweep.at(base_idx[pi]).sim.execTicks);
        std::printf("%-12s |", profiles[pi].name.c_str());
        for (std::size_t vi = 0; vi < variants.size(); ++vi) {
            const SimulationResult &r = sweep.at(cell_idx[pi][vi]).sim;
            const double ratio = r.execTicks / base;
            ratios[vi].push_back(ratio);
            std::printf(" %8.3f", ratio);
        }
        std::printf("\n");
    }

    std::printf("\n%-12s |", "geomean");
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const double g = geomean(ratios[vi]);
        sweep.derive("geomean_exec_ratio", variants[vi].name, g);
        std::printf(" %8.3f", g);
    }
    std::printf("\n\npaper: sp_dbmf 1.889, cm_dbmf 1.333, sp_sbmf 3.43x "
                "total, cm_sbmf 1.566\n");

    sweep.writeJson();
    return 0;
}

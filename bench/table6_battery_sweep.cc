/**
 * @file
 * Reproduces Table VI: estimated supercapacitor / battery capacity for
 * varying SecPB sizes (8..512 entries) under the COBCM (largest) and
 * NoGap (smallest) models. Energy-model-only points run through the
 * experiment engine so --json captures the sweep.
 */

#include "bench_common.hh"
#include "energy/energy_model.hh"

using namespace secpb;
using namespace secpb::bench;

int
main(int argc, char **argv)
{
    const BenchCli cli = BenchCli::parse(
        argc, argv, "table6", flag::SweepOut | flag::BatteryDerate);
    const double derate = cli.spec.base.battery.cap.capacitanceDerate;
    const unsigned sizes[] = {8, 16, 32, 64, 128, 256, 512};
    const Scheme schemes[] = {Scheme::Cobcm, Scheme::NoGap};

    Sweep sweep(cli);
    std::vector<std::vector<std::size_t>> idx(std::size(schemes));
    for (std::size_t si = 0; si < std::size(schemes); ++si) {
        for (unsigned entries : sizes) {
            const Scheme scheme = schemes[si];
            ExperimentPoint p;
            p.label = std::string(schemeName(scheme)) + "/entries=" +
                      std::to_string(entries);
            p.spec.base.scheme = scheme;
            p.spec.base.secpb.numEntries = entries;
            p.spec.instructions = 0;
            p.tag("kind", "battery_sizing");
            p.custom = [scheme, entries, derate](const ExperimentPoint &) {
                const EnergyModel em(/*bmt_levels=*/8);
                const double e = em.secPbBatteryEnergy(scheme, entries);
                const CapacitorParams sc =
                    capacitorPresetFor("supercap", derate);
                const CapacitorParams li =
                    capacitorPresetFor("li-thin", derate);
                ExperimentResult r;
                r.extra = {
                    {"energy_j", e},
                    {"supercap_mm3", em.size(e, sc).volumeMm3},
                    {"lithin_mm3", em.size(e, li).volumeMm3},
                    {"supercap_real_mm3",
                     em.sizeWithPhysics(e, sc).volumeMm3},
                    {"lithin_real_mm3",
                     em.sizeWithPhysics(e, li).volumeMm3},
                };
                return r;
            };
            idx[si].push_back(sweep.add(std::move(p)));
        }
    }

    sweep.run();

    std::printf("Table VI: battery capacity (mm^3) vs SecPB size\n\n");
    std::printf("%8s | %12s %12s | %12s %12s\n", "entries",
                "COBCM SC", "COBCM Li", "NoGap SC", "NoGap Li");

    // Paper values for reference (SuperCap / Li-Thin):
    //   COBCM: 8->1.33/0.013 ... 512->76.10/0.761
    //   NoGap: 8->0.08/0.001 ... 512->4.35/0.044
    const double paper_cobcm_sc[] = {1.33, 2.52, 4.89, 9.63,
                                     19.12, 38.11, 76.10};
    const double paper_nogap_sc[] = {0.08, 0.14, 0.28, 0.55,
                                     1.10, 2.18, 4.35};

    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const ExperimentResult &cobcm = sweep.at(idx[0][i]);
        const ExperimentResult &nogap = sweep.at(idx[1][i]);
        std::printf("%8u | %12.2f %12.4f | %12.3f %12.5f   "
                    "(paper SC: %5.2f / %4.2f)\n",
                    sizes[i], cobcm.extraValue("supercap_mm3"),
                    cobcm.extraValue("lithin_mm3"),
                    nogap.extraValue("supercap_mm3"),
                    nogap.extraValue("lithin_mm3"),
                    paper_cobcm_sc[i], paper_nogap_sc[i]);
    }

    std::printf("\nRealistic physics (voltage window + derate %.2f):\n\n",
                derate);
    std::printf("%8s | %12s %12s | %12s %12s\n", "entries",
                "COBCM SC", "COBCM Li", "NoGap SC", "NoGap Li");
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const ExperimentResult &cobcm = sweep.at(idx[0][i]);
        const ExperimentResult &nogap = sweep.at(idx[1][i]);
        std::printf("%8u | %12.2f %12.4f | %12.3f %12.5f\n",
                    sizes[i], cobcm.extraValue("supercap_real_mm3"),
                    cobcm.extraValue("lithin_real_mm3"),
                    nogap.extraValue("supercap_real_mm3"),
                    nogap.extraValue("lithin_real_mm3"));
    }

    sweep.writeJson();
    return 0;
}

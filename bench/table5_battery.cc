/**
 * @file
 * Reproduces Table V: the size of the energy source (supercapacitor or
 * Li-thin-film battery) required to support each SecPB scheme with a
 * 32-entry SecPB, compared with BBB, eADR, and secure eADR, and the
 * footprint ratio of that energy source to a 5.37 mm^2 client-class core.
 *
 * No simulation runs here -- each point evaluates the energy model -- but
 * the rows still go through the experiment engine so --json captures them
 * in the same sweep schema as every other bench.
 */

#include "bench_common.hh"
#include "energy/energy_model.hh"

using namespace secpb;
using namespace secpb::bench;

namespace
{

/**
 * Battery-sizing point: @p energy_j on each Table V cell, the paper's
 * flat sizing and the physical one. A real part only delivers the
 * energy above its regulator cutoff, and a worn part less still, so the
 * physical columns inflate each cell's volume by its own voltage window
 * and the CLI's derate.
 */
ExperimentResult
sizePoint(double energy_j, double derate)
{
    const EnergyModel em(/*bmt_levels=*/8);
    const CapacitorParams sc = capacitorPresetFor("supercap", derate);
    const CapacitorParams li = capacitorPresetFor("li-thin", derate);
    const BatteryEstimate scf = em.size(energy_j, sc);
    const BatteryEstimate lif = em.size(energy_j, li);
    const BatteryEstimate scr = em.sizeWithPhysics(energy_j, sc);
    const BatteryEstimate lir = em.sizeWithPhysics(energy_j, li);

    ExperimentResult r;
    r.extra = {
        {"energy_j", energy_j},
        {"supercap_mm3", scf.volumeMm3},
        {"lithin_mm3", lif.volumeMm3},
        {"supercap_core_ratio", scf.areaRatioToCore},
        {"lithin_core_ratio", lif.areaRatioToCore},
        {"supercap_real_mm3", scr.volumeMm3},
        {"lithin_real_mm3", lir.volumeMm3},
        {"supercap_real_core_ratio", scr.areaRatioToCore},
        {"lithin_real_core_ratio", lir.areaRatioToCore},
    };
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchCli cli = BenchCli::parse(
        argc, argv, "table5", flag::SweepOut | flag::BatteryDerate);
    const double derate = cli.spec.base.battery.cap.capacitanceDerate;
    const EnergyModel em(/*bmt_levels=*/8);
    constexpr unsigned entries = 32;

    struct Row
    {
        const char *name;
        double energyJ;
        double paperSc;
        double paperLi;
    };
    const Row rows[] = {
        {"COBCM", em.secPbBatteryEnergy(Scheme::Cobcm, entries), 4.89, 0.049},
        {"OBCM", em.secPbBatteryEnergy(Scheme::Obcm, entries), 4.82, 0.048},
        {"BCM", em.secPbBatteryEnergy(Scheme::Bcm, entries), 4.72, 0.047},
        {"CM", em.secPbBatteryEnergy(Scheme::Cm, entries), 0.73, 0.007},
        {"M", em.secPbBatteryEnergy(Scheme::M, entries), 0.67, 0.006},
        {"NoGap", em.secPbBatteryEnergy(Scheme::NoGap, entries), 0.28, 0.003},
        {"s_eADR", em.sEadrBatteryEnergy(), 3706.00, 37.060},
        {"BBB", em.bbbBatteryEnergy(entries), 0.07, 0.001},
        {"eADR", em.eadrBatteryEnergy(), 149.32, 1.490},
    };

    Sweep sweep(cli);
    std::vector<std::size_t> idx;
    for (const Row &r : rows) {
        ExperimentPoint p;
        p.label = r.name;
        p.spec.base.scheme = Scheme::Bbb;
        p.spec.base.secpb.numEntries = entries;
        p.spec.instructions = 0;
        p.tag("kind", "battery_sizing");
        const double energy = r.energyJ;
        p.custom = [energy, derate](const ExperimentPoint &) {
            return sizePoint(energy, derate);
        };
        idx.push_back(sweep.add(std::move(p)));
    }

    sweep.run();

    std::printf("Table V: energy-source size for a %u-entry SecPB "
                "(volume mm^3 and footprint ratio to a 5.37 mm^2 core)\n\n",
                entries);
    std::printf("%-8s %12s %12s %11s %10s | %s\n", "System",
                "SuperCap mm3", "Li-Thin mm3", "SC/core", "Li/core",
                "paper volumes (SC, Li)");
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const ExperimentResult &r = sweep.at(idx[i]);
        std::printf("%-8s %12.3f %12.4f %10.1f%% %9.2f%% | "
                    "paper: %9.2f %9.3f\n",
                    rows[i].name, r.extraValue("supercap_mm3"),
                    r.extraValue("lithin_mm3"),
                    r.extraValue("supercap_core_ratio") * 100.0,
                    r.extraValue("lithin_core_ratio") * 100.0,
                    rows[i].paperSc, rows[i].paperLi);
    }

    std::printf("\nRealistic physics (voltage window + derate %.2f): "
                "each tech's own usable window inflates the volume\n\n",
                derate);
    std::printf("%-8s %12s %12s %11s %10s\n", "System",
                "SuperCap mm3", "Li-Thin mm3", "SC/core", "Li/core");
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const ExperimentResult &r = sweep.at(idx[i]);
        std::printf("%-8s %12.3f %12.4f %10.1f%% %9.2f%%\n",
                    rows[i].name, r.extraValue("supercap_real_mm3"),
                    r.extraValue("lithin_real_mm3"),
                    r.extraValue("supercap_real_core_ratio") * 100.0,
                    r.extraValue("lithin_real_core_ratio") * 100.0);
    }

    const double ratio = em.sEadrBatteryEnergy() /
                         em.secPbBatteryEnergy(Scheme::Cobcm, entries);
    std::printf("\ns_eADR / COBCM battery ratio: %.0fx "
                "(paper reports 753x)\n", ratio);
    sweep.derive("battery_ratio", "s_eADR/COBCM", ratio);
    const double eadr_bbb =
        em.eadrBatteryEnergy() / em.bbbBatteryEnergy(entries);
    std::printf("eADR / BBB battery ratio:     %.0fx "
                "(paper reports ~2500x)\n", eadr_bbb);
    sweep.derive("battery_ratio", "eADR/BBB", eadr_bbb);

    sweep.writeJson();
    return 0;
}

/**
 * @file
 * Battery planner: pick the best secure-persistency scheme for a given
 * supercapacitor/battery budget.
 *
 * The paper's conclusion (Section VI-C) frames SecPB as a trade-off
 * spectrum: lazier schemes are faster but need bigger batteries. This
 * tool makes that actionable: given a budget in mm^3 and a target
 * workload, it sweeps the spectrum, sizes each scheme's battery, measures
 * its slowdown on the workload, and recommends the fastest scheme that
 * fits -- optionally pairing eager schemes with BMF height reduction, the
 * paper's suggestion for budget-constrained designs.
 */

#include <cstdio>
#include <string>

#include "core/simulation.hh"
#include "energy/energy_model.hh"
#include "sim/logging.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

struct Candidate
{
    const char *name;
    Scheme scheme;
    BmfMode bmf;
};

/** Cycles @p scheme with @p bmf takes to run @p profile. */
double
ticksOn(const BenchmarkProfile &profile, Scheme scheme, BmfMode bmf,
        const SimulationSpec &run)
{
    SimulationSpec spec = run;
    spec.base = SecPbSystem::configFor(scheme, profile);
    spec.base.walker.bmfMode = bmf;
    Simulation sim(spec);
    SyntheticGenerator gen(profile, run.instructions, run.seed);
    return static_cast<double>(sim.run(gen).execTicks);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    double budget_mm3 = 2.0;      // default supercap budget
    std::string bench = "gcc";
    // This planner's defaults are a short run on seed 11.
    SimulationSpec run;
    run.instructions = 60'000;
    run.seed = 11;
    run.parseCli(argc, argv, "battery_planner", flag::Instr | flag::Seed,
                 {
                     {0, "--budget", "MM3",
                      "SuperCap budget, mm^3 (default 2)",
                      readNumber(budget_mm3)},
                     {0, "--bench", "NAME",
                      "profile to plan for (default gcc)", readText(bench)},
                 });
    fatal_if(run.instructions == 0, "battery_planner: --instr must be >= 1");

    const EnergyModel em(8);
    const CapacitorParams supercap = capacitorPresetFor("supercap");
    const BenchmarkProfile &profile = profileByName(bench);

    const Candidate candidates[] = {
        {"COBCM", Scheme::Cobcm, BmfMode::None},
        {"OBCM", Scheme::Obcm, BmfMode::None},
        {"BCM", Scheme::Bcm, BmfMode::None},
        {"CM", Scheme::Cm, BmfMode::None},
        {"CM+DBMF", Scheme::Cm, BmfMode::Dbmf},
        {"CM+SBMF", Scheme::Cm, BmfMode::Sbmf},
        {"M", Scheme::M, BmfMode::None},
        {"NoGap", Scheme::NoGap, BmfMode::None},
    };

    std::printf("Battery planner: workload '%s', SuperCap budget "
                "%.2f mm^3, 32-entry SecPB\n\n",
                bench.c_str(), budget_mm3);
    std::printf("%-10s %14s %10s %10s %8s\n", "scheme", "battery mm^3",
                "fits?", "slowdown", "pick");

    // The insecure baseline every slowdown divides by, run once.
    const double base_ticks =
        ticksOn(profile, Scheme::Bbb, BmfMode::None, run);
    const Candidate *best = nullptr;
    double best_slowdown = 1e99;
    for (const Candidate &c : candidates) {
        const double volume =
            em.size(em.secPbBatteryEnergy(c.scheme, 32), supercap).volumeMm3;
        const bool fits = volume <= budget_mm3;
        const double slow =
            ticksOn(profile, c.scheme, c.bmf, run) / base_ticks;
        if (fits && slow < best_slowdown) {
            best = &c;
            best_slowdown = slow;
        }
        std::printf("%-10s %14.3f %10s %9.3fx\n", c.name, volume,
                    fits ? "yes" : "no", slow);
    }

    if (best) {
        std::printf("\nrecommendation: %s (%.1f%% overhead) -- fastest "
                    "scheme within the %.2f mm^3 budget\n",
                    best->name, (best_slowdown - 1.0) * 100.0, budget_mm3);
    } else {
        std::printf("\nno SecPB scheme fits %.2f mm^3; NoGap needs the "
                    "least battery\n", budget_mm3);
    }
    return 0;
}

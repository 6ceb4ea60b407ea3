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
#include <vector>

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

double
slowdownOn(const BenchmarkProfile &profile, Scheme scheme, BmfMode bmf,
           const SimulationSpec &run)
{
    SimulationSpec base_spec = run;
    base_spec.base = SecPbSystem::configFor(Scheme::Bbb, profile);
    Simulation base(base_spec);
    SyntheticGenerator base_gen(profile, run.instructions, run.seed);
    const double base_ticks =
        static_cast<double>(base.run(base_gen).execTicks);

    SimulationSpec spec = run;
    spec.base = SecPbSystem::configFor(scheme, profile);
    spec.base.walker.bmfMode = bmf;
    Simulation sim(spec);
    SyntheticGenerator gen(profile, run.instructions, run.seed);
    return sim.run(gen).execTicks / base_ticks;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    double budget_mm3 = 2.0;      // default supercap budget
    std::string bench = "gcc";
    for (int i = 1; i < argc; i += 2) {
        const std::string a = argv[i];
        fatal_if(a != "--budget" && a != "--bench" && a != "--instr" &&
                     a != "--seed",
                 "battery_planner: unknown flag '%s' (flags: --budget, "
                 "--bench, --instr, --seed)",
                 a.c_str());
        fatal_if(i + 1 >= argc, "battery_planner: flag %s needs a value",
                 a.c_str());
        if (a == "--budget")
            budget_mm3 =
                parseDecimalNumber("battery_planner: --budget", argv[i + 1]);
        else if (a == "--bench")
            bench = argv[i + 1];
    }
    // --instr and --seed go through the shared spec parser; this
    // planner's defaults are a short run on seed 11.
    SimulationSpec defaults;
    defaults.instructions = 60'000;
    defaults.seed = 11;
    const SimulationSpec run =
        SimulationSpec::fromCli(argc, argv, "battery_planner", &defaults);
    fatal_if(run.instructions == 0, "battery_planner: --instr must be >= 1");

    const EnergyModel em(EnergyCosts{}, 8);
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

    const Candidate *best = nullptr;
    double best_slowdown = 1e99;
    std::vector<double> slowdowns;
    for (const Candidate &c : candidates) {
        const double volume =
            em.size(em.secPbBatteryEnergy(c.scheme, 32), superCapTech())
                .volumeMm3;
        const bool fits = volume <= budget_mm3;
        const double slow = slowdownOn(profile, c.scheme, c.bmf, run);
        slowdowns.push_back(slow);
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

/**
 * @file
 * Server-workload suite: every registry workload against every scheme.
 *
 * The SPEC-style benches answer "does the model reproduce the paper";
 * this one answers "what do the schemes cost under server write
 * patterns the paper never ran" -- WAL commits, journal trains, panic
 * dumps, multi-tenant Zipfian churn, and open-loop bursts. Per workload
 * it prints each scheme's slowdown against the insecure BBB baseline
 * plus the stall/overhead columns that explain it (store-buffer full
 * stalls, SecPB full rejects, persists per kilo-instruction).
 *
 * `--workload SPEC` narrows the suite to one selector (e.g. a replayed
 * trace via --trace-in); the default suite covers each registered
 * generator once plus a duty-cycled burst variant.
 */

#include "bench_common.hh"
#include "workload/registry.hh"

using namespace secpb;
using namespace secpb::bench;

int
main(int argc, char **argv)
{
    const BenchCli cli = BenchCli::parse(
        argc, argv, "workload_suite", flag::Grid | flag::Schemes);

    struct Entry
    {
        std::string label;
        std::string spec;
    };
    std::vector<Entry> workloads;
    if (!cli.spec.workload.empty()) {
        workloads.push_back(
            {KvSpec::parse(cli.spec.workload, "workload").name,
             cli.spec.workload});
    } else {
        workloads = {
            {"kv_wal", "kv_wal"},
            {"fs_journal", "fs_journal"},
            {"pstore", "pstore"},
            {"zipf_mix", "zipf_mix"},
            {"kv_wal_burst",
             "kv_wal:burst_period=2000,burst_duty=0.25"},
        };
    }

    const std::vector<Scheme> schemes = cli.pick(
        {Scheme::Sp, Scheme::NoGap, Scheme::M, Scheme::Cm, Scheme::Bcm,
         Scheme::Obcm, Scheme::Cobcm, Scheme::Secpm, Scheme::Triad,
         Scheme::Eadr, Scheme::Stream});

    Sweep sweep(cli);
    auto point = [&](Scheme s, const Entry &wl) {
        ExperimentPoint p = cli.point(s, "");
        p.label = wl.label + "/" + schemeName(s);
        p.spec.workload = wl.spec;
        return sweep.add(std::move(p));
    };

    std::vector<std::size_t> base_idx;
    std::vector<std::vector<std::size_t>> cell_idx(workloads.size());
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        base_idx.push_back(point(Scheme::Bbb, workloads[wi]));
        for (Scheme s : schemes)
            cell_idx[wi].push_back(point(s, workloads[wi]));
    }

    sweep.run();

    std::printf("Server workload suite (%llu instructions/point, "
                "machine model: %s)\n\n",
                static_cast<unsigned long long>(cli.spec.instructions),
                serverWorkloadProfile().name.c_str());
    std::printf("%-14s %-8s %10s %7s %7s %10s %10s\n", "workload",
                "scheme", "slowdown", "ipc", "ppti", "sb_stalls",
                "pb_rejects");
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const SimulationResult &base = sweep.at(base_idx[wi]).sim;
        std::printf("%-14s %-8s %9s%% %7.3f %7.1f %10llu %10llu\n",
                    workloads[wi].label.c_str(), schemeName(Scheme::Bbb),
                    "-", base.ipc, base.ppti,
                    static_cast<unsigned long long>(base.sbFullStalls),
                    static_cast<unsigned long long>(base.pbFullRejects));
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            const SimulationResult &sim =
                sweep.at(cell_idx[wi][si]).sim;
            const double slow =
                (sweep.execRatio(cell_idx[wi][si], base_idx[wi]) - 1.0) *
                100.0;
            sweep.derive("slowdown_pct",
                         workloads[wi].label + "/" +
                             schemeName(schemes[si]),
                         slow);
            std::printf("%-14s %-8s %9.1f%% %7.3f %7.1f %10llu %10llu\n",
                        workloads[wi].label.c_str(),
                        schemeName(schemes[si]), slow, sim.ipc, sim.ppti,
                        static_cast<unsigned long long>(sim.sbFullStalls),
                        static_cast<unsigned long long>(
                            sim.pbFullRejects));
        }
    }

    sweep.writeJson();
    return 0;
}

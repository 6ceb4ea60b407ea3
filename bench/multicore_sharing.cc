/**
 * @file
 * Multi-core SecPB sharing study (Section IV-C(c); not a paper figure --
 * the paper describes the migration protocol but evaluates single-core).
 *
 * Four cores run a write workload whose stores hit a shared block pool
 * with probability `share` and a private region otherwise. As sharing
 * grows, entries ping-pong between SecPBs; migration keeps the
 * no-replication invariant while forwarding value-independent metadata,
 * and the cost shows up as extra acceptance latency. Each (scheme, share)
 * cell is one custom experiment point building a 4-core machine through
 * the Simulation facade.
 */

#include <memory>

#include "bench_common.hh"
#include "core/multicore.hh"
#include "workload/shared_pool.hh"

using namespace secpb;
using namespace secpb::bench;

namespace
{

/** Simulated cores in every cell. */
constexpr unsigned NumCores = 4;

/**
 * One (scheme, share) cell: build, run, check the coherence invariants,
 * crash, account. @p invariants_held reports the check, which is not a
 * JSON field.
 */
ExperimentResult
runSharingPoint(const ExperimentPoint &pt, double share,
                char &invariants_held)
{
    const SimulationSpec &spec = pt.spec;
    Simulation sim(spec);
    std::vector<std::unique_ptr<SharedPoolGenerator>> gens;
    std::vector<WorkloadGenerator *> raw;
    for (unsigned c = 0; c < spec.cores; ++c) {
        gens.push_back(std::make_unique<SharedPoolGenerator>(
            spec.instructions, share, 0x1000000ULL * (c + 1),
            spec.seed + c));
        raw.push_back(gens.back().get());
    }
    const MultiCoreResult mr = sim.run(raw);
    invariants_held = sim.multi().invariantNoReplication() &&
                      sim.multi().directory().invariantSingleOwner();
    std::uint64_t stores = 0;
    for (const auto &pc : mr.perCore)
        stores += pc.persists;
    const CrashReport cr = sim.crashNow();

    ExperimentResult r;
    r.extra = {
        {"share", share},
        {"exec_ticks", static_cast<double>(mr.execTicks)},
        {"migrations", static_cast<double>(mr.migrations)},
        {"remote_read_flushes",
         static_cast<double>(mr.remoteReadFlushes)},
        {"migr_per_kstore",
         1000.0 * mr.migrations /
             std::max<std::uint64_t>(1, stores)},
        {"recovered", cr.verdict == CrashVerdict::Pass ? 1.0 : 0.0},
    };
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchCli cli = BenchCli::parse(
        argc, argv, "multicore_sharing",
        flag::SweepOut | flag::Instr | flag::Seed | flag::Schemes |
        flag::TraceOut);
    const std::uint64_t instr = cli.spec.instructions / NumCores;
    const double shares[] = {0.0, 0.05, 0.10, 0.25, 0.50, 1.0};

    const std::vector<Scheme> schemes =
        cli.pick({Scheme::Cobcm, Scheme::NoGap});

    Sweep sweep(cli);
    std::vector<std::vector<std::size_t>> idx(schemes.size());
    // One slot per cell, indexed like the sweep's points and sized up
    // front: sweep workers write their own.
    std::vector<char> invariants(schemes.size() * std::size(shares), 0);
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        for (double share : shares) {
            // The default machine, not a profile's: no configFor.
            ExperimentPoint p;
            p.label = std::string(schemeName(schemes[si])) + "/share=" +
                      std::to_string(share);
            p.spec.base.scheme = schemes[si];
            p.spec.cores = NumCores;
            p.spec.instructions = instr;
            p.spec.seed = cli.spec.seed;
            p.tag("cores", std::to_string(NumCores));
            char *held = &invariants[sweep.points().size()];
            p.custom = [share, held](const ExperimentPoint &pt) {
                return runSharingPoint(pt, share, *held);
            };
            idx[si].push_back(sweep.add(std::move(p)));
        }
    }

    sweep.run();

    std::printf("Multi-core SecPB sharing sweep (%u cores, "
                "%llu instructions/core)\n",
                NumCores, static_cast<unsigned long long>(instr));
    int status = 0;
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        std::printf("\n[%s]\n%8s %14s %14s %16s %10s\n",
                    schemeName(schemes[si]), "share", "exec cycles",
                    "migrations", "migr/1k stores", "recovery");
        for (std::size_t ci = 0; ci < std::size(shares); ++ci) {
            const std::size_t k = idx[si][ci];
            const ExperimentResult &r = sweep.at(k);
            const bool recovered = r.extraValue("recovered") != 0.0;
            std::printf("%7.0f%% %14.0f %14.0f %16.2f %10s\n",
                        shares[ci] * 100.0, r.extraValue("exec_ticks"),
                        r.extraValue("migrations"),
                        r.extraValue("migr_per_kstore"),
                        recovered ? "OK" : "FAILED");
            const bool held = invariants[k];
            if (!recovered || !held) {
                std::fprintf(stderr,
                             "multicore_sharing: cell %s failed:%s%s\n",
                             sweep.points()[k].label.c_str(),
                             recovered ? "" : " recovery",
                             held ? "" : " coherence invariants");
                status = 1;
            }
        }
    }

    std::printf("\nmigrations scale with sharing and recovery verifies at "
                "every point (no-replication\ninvariant). For lazy schemes "
                "the store buffer absorbs the migration latency; eager\n"
                "schemes expose it on the acceptance path.\n");

    sweep.writeJson();
    return status;
}

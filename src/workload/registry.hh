/**
 * @file
 * Workload registry: name -> generator factory, with inline parameters.
 *
 * Every front end (the 13 benches, fault_soak, workload_suite, tests)
 * selects workloads through one grammar:
 *
 *     name[:key=value[,key=value...]]
 *
 * e.g. "kv_wal:puts=0.8,ckpt_every=256" or "replay:file=run.trc" -- the
 * shared key=value grammar of sim/kv_spec.hh. The registry owns the name
 * space, reads each workload's parameters (unknown keys and malformed
 * values are fatal, never ignored), and applies the cross-cutting burst
 * wrapper: every workload accepts burst_period / burst_duty to
 * duty-cycle its arrivals through BurstyArrivalGenerator.
 *
 * Registered names: kv_wal, fs_journal, pstore, zipf_mix, replay, and
 * spec (the synthetic SPEC profiles, so one flag reaches everything).
 */

#ifndef SECPB_WORKLOAD_REGISTRY_HH
#define SECPB_WORKLOAD_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/trace_op.hh"
#include "workload/profile.hh"

namespace secpb
{

/** All registered workload names, in display order. */
const std::vector<std::string> &registeredWorkloadNames();

/** Whether @p name (bare, no params) is a registered workload. */
bool isRegisteredWorkload(const std::string &name);

/**
 * Parse a selector and build the generator it describes.
 *
 * @param text "name[:k=v,...]" (sim/kv_spec.hh); unknown names and keys
 *        and malformed values are fatal.
 * @param instructions emission budget (ignored by replay: the trace's
 *        own length governs).
 * @param seed RNG seed; identical (text, instructions, seed) triples
 *        yield bit-identical op streams.
 */
std::unique_ptr<WorkloadGenerator> makeWorkload(
    const std::string &text, std::uint64_t instructions,
    std::uint64_t seed);

/**
 * Machine-model profile for registry-driven experiment points. The
 * generators own their locality, so only the profile's core-side
 * parameters (memory-level parallelism, PCM-miss overlap) matter; this
 * is a server-tuned profile used uniformly so results across workloads
 * are comparable.
 */
const BenchmarkProfile &serverWorkloadProfile();

} // namespace secpb

#endif // SECPB_WORKLOAD_REGISTRY_HH

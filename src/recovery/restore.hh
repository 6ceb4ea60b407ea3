/**
 * @file
 * Power-cycle restore: bring a rebooted machine back to a verified state.
 *
 * A crash on a bounded battery leaves three durable artifacts: the PM
 * image (ciphertext, counter blocks, MACs), the BMT (PM-resident nodes
 * plus the battery-backed root register), and -- in this simulator --
 * the persist oracle recording what *should* have survived. Everything
 * else (counter working copy, metadata caches, persist buffers) reboots
 * cold. RestoreManager rebuilds the volatile state and reconciles the
 * oracle with what the battery actually managed to drain:
 *
 *  1. reload the counter working copy from the PM image's counter blocks;
 *  2. triage every abandoned residency: roll the oracle back to the
 *     durable version (stale-consistent), forget blocks that never
 *     reached PM, and quarantine detectably torn tuples (erase the
 *     ciphertext+MAC and drop the block -- the loss is *recorded*, never
 *     silently served); each one's oracle residency closes;
 *  3. rebuild the BMT leaves from the persisted counter blocks (undoing
 *     eager root updates whose counter increment died with the battery);
 *  4. re-verify the full image against the reconciled oracle.
 *
 * Step 3 is the expensive walk, and RestoreOptions::maxLeafRepairs can
 * cut the power mid-way through it: the run returns complete=false and a
 * later restore() call re-runs convergently (steps 1-2 are idempotent,
 * step 3 picks the same deterministic order back up).
 */

#ifndef SECPB_RECOVERY_RESTORE_HH
#define SECPB_RECOVERY_RESTORE_HH

#include <cstdint>
#include <vector>

#include "recovery/oracle.hh"
#include "recovery/verifier.hh"

namespace secpb
{

class SecPbSystem;

/** Knobs for one restore pass. */
struct RestoreOptions
{
    /**
     * Power budget for the BMT rebuild, in leaf repairs; the default
     * never interrupts. An interrupted restore returns complete=false
     * and must be re-run before the machine resumes.
     */
    std::uint64_t maxLeafRepairs = UINT64_MAX;
};

/** Outcome of one restore pass. */
struct RestoreReport
{
    std::uint64_t counterPagesReloaded = 0;
    std::uint64_t leavesRebuilt = 0;

    /** Abandoned blocks rolled back to their durable pre-version. */
    std::uint64_t blocksRolledBack = 0;

    /** Abandoned blocks whose final version had in fact persisted. */
    std::uint64_t blocksRetained = 0;

    /** Abandoned blocks that never reached PM (dropped, nothing lost
     *  that was ever durable). */
    std::uint64_t blocksForgotten = 0;

    /** Detected-torn tuples quarantined: data erased, block dropped.
     *  Recorded data loss -- the opposite of silent acceptance. */
    std::uint64_t blocksQuarantined = 0;

    /** Oracle residencies left open after the triage (0 when every
     *  abandoned residency was reconciled). */
    std::uint64_t openResidencies = 0;

    /** False when power died mid-rebuild (re-run restore()). */
    bool complete = false;

    /** Post-restore verification verdict (only when complete). */
    bool verified = false;

    /** The full post-restore verification evidence. */
    RecoveryReport verify;
};

/** Rebuilds one rebooted SecPbSystem; see file comment for the steps. */
class RestoreManager
{
  public:
    explicit RestoreManager(SecPbSystem &sys) : _sys(sys) {}

    /**
     * Run one restore pass over the (adopted) persistent state.
     * @param abandoned the crash report's abandoned suffix.
     */
    RestoreReport restore(const std::vector<AbandonedResidency> &abandoned,
                          const RestoreOptions &opts = {});

  private:
    SecPbSystem &_sys;
};

} // namespace secpb

#endif // SECPB_RECOVERY_RESTORE_HH

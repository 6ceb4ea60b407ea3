/**
 * @file
 * Post-crash recovery and integrity verification.
 *
 * After a crash plus battery drain, the recovery observer walks the PM
 * image: for every block the workload ever persisted to, it fetches the
 * tuple (ciphertext, counter, MAC), verifies the MAC, verifies the counter
 * block against the BMT and its root register, decrypts, and -- in tests --
 * compares the plaintext against the persist oracle. This checks both PLP
 * invariants end to end:
 *
 *  - tuple atomicity: a mismatch in any component shows up as a MAC or
 *    BMT failure or a plaintext mismatch;
 *  - persist order: the oracle applies stores in acceptance order, so a
 *    recovered state missing an older store but containing a newer one
 *    diverges from the oracle.
 *
 * Every check reads a block through one reader (readBlock). BBB, the
 * insecure row, keeps plaintext in PM and no integrity metadata: its
 * reader hands back the PM data with both integrity checks passing, so
 * BBB recovery is the same classification reduced to plaintext
 * comparisons.
 *
 * Two additional scan modes exist for fault-injection experiments:
 *
 *  - the spurious-block scan flags PM blocks that the oracle never saw
 *    persisted (an attacker-planted or wild write must be reported, not
 *    silently ignored);
 *  - verifyPartial() checks a *bounded-battery* drain: a battery that
 *    exhausted its energy budget abandons an in-order suffix of SecPB
 *    entries, so each abandoned block must either be flagged by the
 *    integrity checks (a detected torn residency) or decrypt exactly to
 *    its pre-residency version -- anything else is silent corruption.
 */

#ifndef SECPB_RECOVERY_VERIFIER_HH
#define SECPB_RECOVERY_VERIFIER_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/cipher.hh"
#include "mem/pm_image.hh"
#include "metadata/bmt.hh"
#include "metadata/layout.hh"
#include "recovery/oracle.hh"
#include "secpb/secpb.hh"

namespace secpb
{

/** Classification of a per-block recovery anomaly. */
enum class BlockFaultKind
{
    MacMismatch,        ///< Stored MAC does not match (ct, addr, ctr).
    BmtMismatch,        ///< Counter block fails the BMT root check.
    PlaintextMismatch,  ///< Decrypts, but not to the oracle plaintext.
    SpuriousBlock,      ///< Present in PM yet never persisted per oracle.
    MissingBlock,       ///< Persisted per oracle yet absent from PM.
    TornResidency,      ///< Abandoned entry flagged by integrity checks
                        ///< (detected data loss -- expected when the
                        ///< battery budget ran out mid-drain).
    PrefixViolation,    ///< Abandoned entry passes integrity but holds
                        ///< content that is no valid version of the
                        ///< block: silent corruption.
};

/** One classified per-block anomaly. */
struct BlockFault
{
    Addr addr = InvalidAddr;
    BlockFaultKind kind = BlockFaultKind::MacMismatch;
};

/** One block as recovery reads it back from PM. */
struct BlockReadback
{
    bool macOk = true;    ///< Stored MAC matches (ct, addr, ctr).
    bool bmtOk = true;    ///< Counter block chains to the BMT root.
    BlockData plaintext;  ///< Decrypted data (BBB: the PM data itself).
};

/** Result of a recovery pass. */
struct RecoveryReport
{
    std::uint64_t blocksChecked = 0;
    std::uint64_t macFailures = 0;
    std::uint64_t bmtFailures = 0;
    std::uint64_t plaintextMismatches = 0;
    std::uint64_t spuriousBlocks = 0;
    std::uint64_t missingBlocks = 0;
    std::uint64_t prefixViolations = 0;

    /** Abandoned residencies the integrity checks flagged (detected). */
    std::uint64_t tornDetected = 0;
    /** Abandoned residencies intact at their pre-residency version. */
    std::uint64_t staleConsistent = 0;

    /** Every anomaly, classified per block (includes detected torn
     *  residencies, which do not fail ok()). */
    std::vector<BlockFault> faults;

    bool
    ok() const
    {
        return macFailures == 0 && bmtFailures == 0 &&
               plaintextMismatches == 0 && spuriousBlocks == 0 &&
               missingBlocks == 0 && prefixViolations == 0;
    }

    /** Sum @p r into this report: every count and the fault list. */
    RecoveryReport &
    operator+=(const RecoveryReport &r)
    {
        blocksChecked += r.blocksChecked;
        macFailures += r.macFailures;
        bmtFailures += r.bmtFailures;
        plaintextMismatches += r.plaintextMismatches;
        spuriousBlocks += r.spuriousBlocks;
        missingBlocks += r.missingBlocks;
        prefixViolations += r.prefixViolations;
        tornDetected += r.tornDetected;
        staleConsistent += r.staleConsistent;
        faults.insert(faults.end(), r.faults.begin(), r.faults.end());
        return *this;
    }
};

/** The recovery observer. */
class RecoveryVerifier
{
  public:
    /** @p secure is the scheme row's `secure` column (false: BBB). */
    RecoveryVerifier(const MetadataLayout &layout, const SecurityKeys &keys,
                     bool secure = true)
        : _layout(layout), _keys(keys), _secure(secure)
    {}

    /** Read back @p addr: both integrity checks and the plaintext. */
    BlockReadback
    readBlock(const PmImage &pm, const BonsaiMerkleTree &tree,
              Addr addr) const
    {
        BlockReadback b;
        if (!_secure) {
            b.plaintext = pm.readData(addr);
            return b;
        }
        const std::uint64_t page = _layout.pageIndex(addr);
        const CounterBlock cb = pm.readCounterBlock(page);
        const BlockCounter ctr = cb.counterFor(_layout.blockInPage(addr));
        const BlockData ct = pm.readData(addr);
        // The counter's leaf digest must chain to the root, and the
        // stored MAC must match (ct, addr, ctr).
        b.bmtOk = tree.verifyLeaf(page, tree.leafDigest(cb));
        b.macOk = computeMac(_keys, addr, ct, ctr) == pm.readMac(addr);
        b.plaintext = decryptBlock(ct, generatePad(_keys, addr, ctr));
        return b;
    }

    /**
     * Verify and decrypt one block from the PM image.
     * @param expected if non-null, the plaintext the block must decrypt to.
     */
    void
    verifyBlock(const PmImage &pm, const BonsaiMerkleTree &tree,
                Addr block_addr, const BlockData *expected,
                RecoveryReport &report) const
    {
        ++report.blocksChecked;
        tally(block_addr, readBlock(pm, tree, block_addr), expected,
              report);
    }

    /**
     * Full recovery scan: verify every block the oracle saw persisted and
     * compare the decrypted plaintext against the oracle state. Blocks
     * present in the PM image but absent from the oracle are reported as
     * spurious -- an extra write must never be silently accepted.
     */
    RecoveryReport
    verifyAll(const PmImage &pm, const BonsaiMerkleTree &tree,
              const PersistOracle &oracle) const
    {
        RecoveryReport report;
        for (Addr addr : oracle.touchedBlocks()) {
            const BlockData expected = oracle.blockContent(addr);
            verifyBlock(pm, tree, addr, &expected, report);
        }
        scanSpurious(pm, oracle, report);
        return report;
    }

    /**
     * Recovery scan after a *bounded-battery* crash drain. Entries the
     * battery abandoned (an in-order suffix of the persist order) may
     * legitimately be recovered at their pre-residency version; every
     * other block must verify exactly as in verifyAll(). For each
     * abandoned block, one of three outcomes is acceptable:
     *
     *  - never persisted before the abandoned residency and still absent
     *    from PM (nothing to recover, nothing fabricated);
     *  - flagged by the MAC/BMT integrity checks (torn residency --
     *    counted in tornDetected, not an error: the loss is *detected*);
     *  - intact and decrypting to its pre-residency version, or to its
     *    final version (the entry's drain had already reached PM when
     *    the budget died).
     *
     * Intact content matching neither version is silent corruption and
     * is reported as a prefix violation.
     */
    RecoveryReport
    verifyPartial(const PmImage &pm, const BonsaiMerkleTree &tree,
                  const PersistOracle &oracle,
                  const std::vector<AbandonedResidency> &abandoned) const
    {
        RecoveryReport report;
        std::unordered_map<Addr, std::uint64_t> pending;
        std::unordered_set<std::uint64_t> abandonedPages;
        for (const AbandonedResidency &a : abandoned) {
            pending[blockAlign(a.addr)] = a.pendingWrites;
            abandonedPages.insert(_layout.pageIndex(a.addr));
        }

        for (Addr addr : oracle.touchedBlocks()) {
            auto it = pending.find(addr);
            if (it == pending.end()) {
                const BlockData expected = oracle.blockContent(addr);
                if (!pm.hasData(addr)) {
                    ++report.blocksChecked;
                    ++report.missingBlocks;
                    report.faults.push_back(
                        {addr, BlockFaultKind::MissingBlock});
                    continue;
                }
                if (abandonedPages.count(_layout.pageIndex(addr))) {
                    // An abandoned residency can leave its whole page's
                    // counter block and the durable BMT root covering
                    // different counter versions (the abandoned minor
                    // increment made it into one but not the other).
                    // Sibling blocks then fail the BMT check even though
                    // their own MAC and plaintext are exact -- detected
                    // collateral of the dead battery, not corruption.
                    verifyCollateral(pm, tree, addr, expected, report);
                    continue;
                }
                verifyBlock(pm, tree, addr, &expected, report);
                continue;
            }
            verifyAbandoned(pm, tree, oracle, addr, it->second, report);
        }
        scanSpurious(pm, oracle, report);
        return report;
    }

    /**
     * The scan a crash drain calls for: verifyPartial() when the battery
     * ran out or abandoned entries, verifyAll() otherwise.
     */
    RecoveryReport
    verifyCrash(const PmImage &pm, const BonsaiMerkleTree &tree,
                const PersistOracle &oracle, const CrashWork &work) const
    {
        return work.batteryExhausted || !work.abandoned.empty()
                   ? verifyPartial(pm, tree, oracle, work.abandoned)
                   : verifyAll(pm, tree, oracle);
    }

    /** Integrity-only scan (no plaintext oracle), as a real system would. */
    RecoveryReport
    verifyIntegrity(const PmImage &pm, const BonsaiMerkleTree &tree) const
    {
        RecoveryReport report;
        for (Addr addr : pm.dataBlockAddrs())
            verifyBlock(pm, tree, addr, nullptr, report);
        return report;
    }

  private:
    /** Flag PM data blocks the oracle never saw persisted. */
    void
    scanSpurious(const PmImage &pm, const PersistOracle &oracle,
                 RecoveryReport &report) const
    {
        for (Addr addr : pm.dataBlockAddrs()) {
            if (!oracle.touched(addr)) {
                ++report.spuriousBlocks;
                report.faults.push_back(
                    {addr, BlockFaultKind::SpuriousBlock});
            }
        }
    }

    /** Record every failed check of @p b (see BlockFaultKind). */
    static void
    tally(Addr addr, const BlockReadback &b, const BlockData *expected,
          RecoveryReport &report)
    {
        if (!b.bmtOk) {
            ++report.bmtFailures;
            report.faults.push_back({addr, BlockFaultKind::BmtMismatch});
        }
        if (!b.macOk) {
            ++report.macFailures;
            report.faults.push_back({addr, BlockFaultKind::MacMismatch});
        }
        if (expected && b.plaintext != *expected) {
            ++report.plaintextMismatches;
            report.faults.push_back(
                {addr, BlockFaultKind::PlaintextMismatch});
        }
    }

    /**
     * Verify a drained block that shares its page with an abandoned
     * residency: a BMT-only failure with MAC and plaintext intact is
     * counted as detected torn collateral, everything else verifies
     * exactly as usual (tampering must still surface as hard faults).
     */
    void
    verifyCollateral(const PmImage &pm, const BonsaiMerkleTree &tree,
                     Addr addr, const BlockData &expected,
                     RecoveryReport &report) const
    {
        ++report.blocksChecked;
        const BlockReadback b = readBlock(pm, tree, addr);
        if (!b.bmtOk && b.macOk && b.plaintext == expected) {
            ++report.tornDetected;
            report.faults.push_back({addr, BlockFaultKind::TornResidency});
            return;
        }
        tally(addr, b, &expected, report);
    }

    /** Classify one abandoned-residency block (see verifyPartial). */
    void
    verifyAbandoned(const PmImage &pm, const BonsaiMerkleTree &tree,
                    const PersistOracle &oracle, Addr addr,
                    std::uint64_t pending_writes,
                    RecoveryReport &report) const
    {
        ++report.blocksChecked;
        const std::uint64_t pre_version =
            oracle.abandonedVersion(addr, pending_writes);

        if (!pm.hasData(addr)) {
            if (pre_version == 0) {
                // First-ever residency abandoned: the block never
                // reached PM, and recovery has nothing to hand out.
                ++report.staleConsistent;
            } else {
                ++report.missingBlocks;
                report.faults.push_back(
                    {addr, BlockFaultKind::MissingBlock});
            }
            return;
        }

        const BlockReadback b = readBlock(pm, tree, addr);
        if (!b.bmtOk || !b.macOk) {
            // The abandoned residency left a detectably inconsistent
            // tuple (e.g. an eager scheme's durable BMT root already
            // covers the lost counter update). Loss is flagged, not
            // silently served -- exactly what the threat model requires.
            ++report.tornDetected;
            report.faults.push_back(
                {addr, BlockFaultKind::TornResidency});
            return;
        }

        if (b.plaintext == oracle.blockVersion(addr, pre_version) ||
            b.plaintext == oracle.blockContent(addr)) {
            ++report.staleConsistent;
        } else {
            ++report.prefixViolations;
            report.faults.push_back(
                {addr, BlockFaultKind::PrefixViolation});
        }
    }

    const MetadataLayout &_layout;
    SecurityKeys _keys;
    bool _secure;
};

} // namespace secpb

#endif // SECPB_RECOVERY_VERIFIER_HH

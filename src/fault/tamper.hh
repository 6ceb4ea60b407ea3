/**
 * @file
 * Post-crash tamper injection: a physical attacker flipping bits in the
 * NVDIMM between power loss and recovery.
 *
 * The injector targets the four persistent regions of the secure-PM
 * address map -- data ciphertexts, split-counter blocks, MAC slots, and
 * stored BMT nodes -- and records every mutation it makes. The matching
 * detector then checks a RecoveryReport against the records: every
 * injected tamper must surface as at least one classified fault at the
 * right location (zero silent acceptances). This exercises the paper's
 * threat model end to end: MACs bind ciphertexts to counters, the BMT
 * root register (battery-backed, on-chip, out of the attacker's reach)
 * anchors counter freshness, and interior-node forgeries break the
 * digest chain one level up.
 */

#ifndef SECPB_FAULT_TAMPER_HH
#define SECPB_FAULT_TAMPER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/pm_image.hh"
#include "metadata/bmt.hh"
#include "metadata/layout.hh"
#include "recovery/verifier.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace secpb
{

/** Which persistent region a tamper hit. */
enum class TamperRegion
{
    Data,     ///< Ciphertext byte flipped in a data block.
    Counter,  ///< Minor counter flipped in a split-counter block.
    Mac,      ///< Stored MAC word flipped.
    BmtNode,  ///< Child digest flipped inside a stored BMT node.
};

/** One recorded mutation. */
struct TamperRecord
{
    TamperRegion region = TamperRegion::Data;
    Addr blockAddr = InvalidAddr;   ///< Data block the tamper targets.
    std::uint64_t page = 0;         ///< Page index (Counter/BmtNode).
    unsigned level = 0;             ///< BMT level (BmtNode only).
    std::uint64_t nodeIndex = 0;    ///< BMT node index (BmtNode only).
    std::uint64_t mask = 0;         ///< Nonzero xor mask applied.

    /** One-line description for reproducer output. */
    std::string describe() const;
};

/**
 * Seeded tamper injector. Deterministic: the same seed over the same
 * candidate list produces the same mutations.
 */
class TamperInjector
{
  public:
    explicit TamperInjector(std::uint64_t seed) : _rng(seed) {}

    /**
     * Apply @p count random tampers to @p pm / @p tree, choosing victim
     * blocks from @p candidates (blocks known to be persisted and fully
     * drained -- tampering an abandoned block would conflate attacker
     * damage with battery loss). Returns the records, in order.
     */
    std::vector<TamperRecord> inject(PmImage &pm, BonsaiMerkleTree &tree,
                                     const MetadataLayout &layout,
                                     const std::vector<Addr> &candidates,
                                     unsigned count);

    /**
     * True if @p report contains a fault attributable to @p rec:
     *  - Data/Mac tampers must flag the tampered block itself;
     *  - Counter tampers must flag some block of the tampered page;
     *  - BmtNode tampers must flag a BMT failure on a path through the
     *    forged node.
     */
    static bool detected(const TamperRecord &rec,
                         const RecoveryReport &report,
                         const MetadataLayout &layout,
                         const BonsaiMerkleTree &tree);

    /** All-records conjunction of detected(). */
    static bool allDetected(const std::vector<TamperRecord> &recs,
                            const RecoveryReport &report,
                            const MetadataLayout &layout,
                            const BonsaiMerkleTree &tree);

  private:
    Rng _rng;
};

} // namespace secpb

#endif // SECPB_FAULT_TAMPER_HH

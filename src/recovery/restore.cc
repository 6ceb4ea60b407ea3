#include "recovery/restore.hh"

#include <algorithm>
#include <unordered_set>

#include "core/system.hh"
#include "obs/trace.hh"

namespace secpb
{

RestoreReport
RestoreManager::restore(const std::vector<AbandonedResidency> &abandoned,
                        const RestoreOptions &opts)
{
    RestoreReport report;
    PmImage &pm = _sys.pm();
    PersistOracle &oracle = _sys.oracle();
    const MetadataLayout &layout = _sys.layout();
    const SchemeTraits traits = schemeTraits(_sys.config().scheme);
    const RecoveryVerifier verifier(layout, _sys.config().keys,
                                    traits.secure);

    // -- Step 1: reload the volatile counter working copy from PM.
    // Deterministic order; idempotent (plain overwrites).
    std::vector<std::uint64_t> pages = pm.counterPages();
    std::sort(pages.begin(), pages.end());
    if (traits.secure) {
        for (std::uint64_t page : pages) {
            _sys.counters().setBlock(page, pm.readCounterBlock(page));
            ++report.counterPagesReloaded;
        }
    }

    // -- Step 2: triage the abandoned suffix through the verifier's
    // block reader, and act on it: the oracle -- the reference the
    // *next* power cycle persists on top of -- is reconciled with the
    // durable truth.
    std::vector<AbandonedResidency> triage = abandoned;
    std::sort(triage.begin(), triage.end(),
              [](const AbandonedResidency &a, const AbandonedResidency &b)
              { return a.addr < b.addr; });
    std::unordered_set<std::uint64_t> abandonedPages;
    for (const AbandonedResidency &a : triage) {
        const Addr addr = blockAlign(a.addr);
        abandonedPages.insert(layout.pageIndex(addr));
        // A block an interrupted earlier pass already reconciled
        // (retained, rolled back or dropped) has no open residency left:
        // its current version is the durable one.
        const std::uint64_t pre =
            oracle.residencyOpen(addr)
                ? oracle.abandonedVersion(addr, a.pendingWrites)
                : oracle.storeCount(addr);

        if (!pm.hasData(addr)) {
            if (pre == 0) {
                // Never durable: the first-ever residency died in the
                // buffer. Nothing to recover; drop the expectation.
                oracle.forgetBlock(addr);
                ++report.blocksForgotten;
            } else {
                // Data vanished below an older version -- detected loss.
                oracle.forgetBlock(addr);
                ++report.blocksQuarantined;
            }
            continue;
        }

        // A MAC-intact block is trusted: a BMT-only failure is the
        // stale leaf step 3 rebuilds.
        const BlockReadback b = verifier.readBlock(pm, _sys.tree(), addr);
        if (b.macOk && b.plaintext == oracle.blockContent(addr)) {
            // The drain had in fact finished before the budget died.
            oracle.closeResidency(addr);
            ++report.blocksRetained;
        } else if (b.macOk && b.plaintext == oracle.blockVersion(addr, pre)) {
            oracle.rollbackBlock(addr, pre);
            ++report.blocksRolledBack;
        } else {
            // Torn tuple (e.g. a sibling drain persisted the page's
            // counter block with this block's eager minor bump, so the
            // old ciphertext no longer decrypts). The pre-image is
            // cryptographically unrecoverable: quarantine it. Recorded
            // loss, never silent acceptance.
            pm.eraseDataBlock(addr);
            oracle.forgetBlock(addr);
            ++report.blocksQuarantined;
        }
    }

    report.openResidencies = oracle.numOpenResidencies();

    // -- Step 3: rebuild the BMT leaves from the persisted counter
    // blocks. Pages of abandoned residencies are included even without a
    // PM counter block: an eager scheme's root may cover a counter
    // increment that never became durable, and resetting the leaf to the
    // (default) PM view is exactly the repair. This is the expensive
    // walk that a second power loss can interrupt.
    if (traits.secure) {
        std::vector<std::uint64_t> rebuild = pages;
        for (std::uint64_t page : abandonedPages)
            if (!std::binary_search(pages.begin(), pages.end(), page))
                rebuild.push_back(page);
        std::sort(rebuild.begin(), rebuild.end());

        BonsaiMerkleTree &tree = _sys.tree();
        for (std::uint64_t page : rebuild) {
            if (report.leavesRebuilt >= opts.maxLeafRepairs) {
                // Power died mid-recovery. Durable state is further
                // along than before (the repairs so far persisted), but
                // the machine must not resume: re-run restore().
                TRACE_INSTANT("fault", "restore_interrupted",
                              _sys.eventQueue().curTick());
                return report;
            }
            tree.updateLeaf(page,
                            tree.leafDigest(pm.readCounterBlock(page)));
            ++report.leavesRebuilt;
        }
    }
    report.complete = true;

    // -- Step 4: verify the reconciled image. Zero tolerance: a restore
    // that cannot prove prefix consistency is a failed restore.
    report.verify = verifier.verifyAll(pm, _sys.tree(), oracle);
    report.verified = report.verify.ok();
    return report;
}

} // namespace secpb

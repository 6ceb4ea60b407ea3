/**
 * @file
 * Persist-buffer entry layout (paper Figure 5).
 *
 * Each SecPB entry tracks the data plaintext (Dp, 64 B) plus -- depending
 * on the scheme -- the pre-computed one-time pad (O, 64 B), data ciphertext
 * (Dc, 64 B), counter snapshot (C), a BMT-root-updated acknowledgement bit
 * (B), and the MAC (M). Every field carries a valid bit; an entry is
 * *drainable* once the scheme's early subset is valid, and *complete* once
 * all six are.
 */

#ifndef SECPB_PB_ENTRY_HH
#define SECPB_PB_ENTRY_HH

#include <cstdint>

#include "crypto/cipher.hh"
#include "crypto/counters.hh"
#include "mem/block_data.hh"
#include "sim/types.hh"

namespace secpb
{

/** One persist-buffer entry. */
struct PbEntry
{
    bool valid = false;
    Addr addr = InvalidAddr;       ///< Block-aligned data address.

    /**
     * Address-space identifier of the owning process. Only used by the
     * drain-process application-crash policy (paper Section III-B); the
     * default drain-all policy ignores it (and hardware then doesn't
     * need the tag bits).
     */
    std::uint32_t asid = 0;

    BlockData plaintext{};         ///< Dp: the persisted plaintext.
    BlockData otp{};               ///< O: pre-computed one-time pad.
    BlockData ciphertext{};        ///< Dc: pre-computed ciphertext.
    BlockCounter counter{};        ///< C: the counter this residency uses.
    MacValue mac = 0;              ///< M: pre-computed MAC.

    /** @name Per-field valid bits (vB acknowledges the BMT root update). */
    /** @{ */
    bool vData = false;
    bool vCtr = false;
    bool vOtp = false;
    bool vCt = false;
    bool vMac = false;
    bool vBmt = false;
    /** @} */

    /**
     * Functional flag: the counter increment for this residency has been
     * applied to the counter store. Kept separate from the vCtr timing bit
     * so a crash mid-operation never double-increments (which would
     * desynchronize pads/MACs computed from the first increment).
     */
    bool ctrIncremented = false;

    /**
     * Tuple-pipeline operations still in flight: the early ops (buffer
     * write included) while resident, the late stages while draining.
     */
    unsigned pendingOps = 0;

    /** True once the entry has been handed to the drain engine. */
    bool draining = false;

    /** Tick the drain engine took the entry (trace span start). */
    Tick drainStart = 0;

    /** Stores coalesced into this entry during its residency (NWPE). */
    std::uint64_t numWrites = 0;

    /** Reset to the invalid state. */
    void
    clear()
    {
        *this = PbEntry{};
    }

    /** True once all tuple components are produced and persisted. */
    bool
    complete() const
    {
        return vData && vCtr && vOtp && vCt && vMac && vBmt;
    }
};

} // namespace secpb

#endif // SECPB_PB_ENTRY_HH

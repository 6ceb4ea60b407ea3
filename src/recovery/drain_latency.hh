/**
 * @file
 * Post-crash drain-latency model.
 *
 * Section III-B: while the battery closes the draining and sec-sync
 * gaps, the crash observer must be *blocked* (recovery unavailable) or
 * *warned* (state not yet consistent). How long that window lasts is a
 * direct function of how much tuple work the scheme deferred -- the other
 * axis of the early/late trade-off next to battery capacity.
 *
 * drainWindow() prices the CrashWork accounting that the SecPB reports
 * from an actual drain through the crash-work ledger's time columns
 * (CrashLedger, energy/energy_model.hh): each row's crypto latency runs
 * on the (pipeline-parallel) engine, its PM reads and writes on the
 * banked PCM, and the window is the slower of the two streams plus the
 * serial tail of the last tuple.
 */

#ifndef SECPB_RECOVERY_DRAIN_LATENCY_HH
#define SECPB_RECOVERY_DRAIN_LATENCY_HH

#include <algorithm>

#include "crypto/engine.hh"
#include "energy/energy_model.hh"
#include "mem/pcm.hh"

namespace secpb
{

/**
 * Cycles from crash detection until the PM image is consistent after
 * the crash work @p work, on crypto units of latencies @p lat and the
 * PCM @p pcm (the observer-blocked window).
 */
inline Cycles
drainWindow(const CrashWork &work, const CryptoLatencies &lat,
            const PcmConfig &pcm)
{
    /** Crypto units the drain's compute stream spreads over. */
    constexpr unsigned CryptoParallelism = 4;

    std::uint64_t compute = 0, reads = 0, writes = 0;
    for (const CrashLedgerRow &r : CrashLedger) {
        const std::uint64_t n = work.*r.count;
        if (r.crypto)
            compute += n * (lat.*r.crypto);
        reads += n * r.pmReads;
        writes += n * r.pmWrites;
    }
    const std::uint64_t pm_traffic =
        reads * pcm.readLatency + writes * pcm.writeLatency;

    const Cycles compute_window =
        static_cast<Cycles>(compute / CryptoParallelism);
    const Cycles pm_window =
        static_cast<Cycles>(pm_traffic / std::max(1u, pcm.numBanks));

    // Serial tail: the last entry's tuple cannot be parallelized away --
    // one counter fetch, one pad, one full BMT walk, one MAC, one write.
    const Cycles tail = pcm.readLatency + lat.aesPad + 8 * lat.bmtHash +
                        lat.macHash + pcm.writeLatency;

    return std::max(compute_window, pm_window) + tail;
}

} // namespace secpb

#endif // SECPB_RECOVERY_DRAIN_LATENCY_HH

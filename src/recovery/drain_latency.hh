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
 * The model prices the CrashWork accounting that the SecPB reports from
 * an actual drain: cryptographic work runs on the (pipeline-parallel)
 * engine, PM traffic runs on the banked PCM, and the window is the
 * slower of the two plus the serial tail of the last tuple.
 */

#ifndef SECPB_RECOVERY_DRAIN_LATENCY_HH
#define SECPB_RECOVERY_DRAIN_LATENCY_HH

#include <algorithm>

#include "crypto/engine.hh"
#include "mem/pcm.hh"
#include "secpb/secpb.hh"

namespace secpb
{

/** Analytical estimate of the battery-drain (observer-blocked) window. */
class DrainLatencyModel
{
  public:
    DrainLatencyModel(const CryptoLatencies &lat, const PcmConfig &pcm)
        : _lat(lat), _pcm(pcm)
    {}

    /** Cycles from crash detection until the PM image is consistent. */
    Cycles
    estimate(const CrashWork &work) const
    {
        // Crypto/compute stream: pads, MACs, and BMT node hashes, spread
        // over the engine's parallel units. Triad-NVM's recovery rebuild
        // is one hash per recomputed node -- it runs on mains power, but
        // it is inside the observer-blocked window all the same.
        const std::uint64_t compute =
            work.otpsGenerated * _lat.aesPad +
            work.macsComputed * _lat.macHash +
            (work.bmtLevelsWalked + work.bmtNodesRebuilt) * _lat.bmtHash;

        // PM stream: counter fetches + node fetches (one read per level
        // walked and per node rebuilt, worst case) + all block writes
        // (pmBlockWrites already holds the metadata-cache flush; plus
        // the eADR hierarchy flush), over the banks.
        const std::uint64_t reads =
            work.counterFetches + work.bmtLevelsWalked +
            work.bmtNodesRebuilt;
        const std::uint64_t writes =
            work.pmBlockWrites + work.cacheLinesFlushed;
        const std::uint64_t pm_traffic =
            reads * _pcm.readLatency + writes * _pcm.writeLatency;

        const Cycles compute_window =
            static_cast<Cycles>(compute / CryptoParallelism);
        const Cycles pm_window = static_cast<Cycles>(
            pm_traffic / std::max(1u, _pcm.numBanks));

        // Serial tail: the last entry's tuple cannot be parallelized
        // away -- one counter fetch, one pad, one full BMT walk, one MAC,
        // one write.
        const Cycles tail = _pcm.readLatency + _lat.aesPad +
                            8 * _lat.bmtHash + _lat.macHash +
                            _pcm.writeLatency;

        return std::max(compute_window, pm_window) + tail;
    }

    /** The same window in nanoseconds. */
    double
    estimateNs(const CrashWork &work) const
    {
        return cyclesToNs(static_cast<double>(estimate(work)));
    }

  private:
    /** Crypto units the drain's compute stream spreads over. */
    static constexpr unsigned CryptoParallelism = 4;

    CryptoLatencies _lat;
    PcmConfig _pcm;
};

} // namespace secpb

#endif // SECPB_RECOVERY_DRAIN_LATENCY_HH

/**
 * @file
 * The memory controller's cryptographic engine: occupancy models for the
 * AES pad-generation pipeline and the MAC hash unit.
 *
 * Per the paper's methodology (Section V-B), MAC and BMT updates are NOT
 * pipelined: each unit serves one operation at a time, so back-to-back
 * stores queue behind each other -- this is precisely the bottleneck the
 * lazy SecPB schemes remove. The BMT walker (one in-flight root update) is
 * a separate unit in metadata/walker.hh.
 */

#ifndef SECPB_CRYPTO_ENGINE_HH
#define SECPB_CRYPTO_ENGINE_HH

#include <algorithm>

#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace secpb
{

/** Crypto-engine latencies (processor cycles, Table I). */
struct CryptoLatencies
{
    Cycles aesPad = 40;      ///< One-time-pad generation (AES pipeline).
    Cycles macHash = 40;     ///< MAC computation over one block.
    Cycles bmtHash = 40;     ///< One BMT node hash (per tree level).
    Cycles xorCipher = 1;    ///< Ciphertext XOR (single logical op).
    Cycles counterInc = 1;   ///< Counter increment.
    Cycles aesInterval = 4;  ///< AES pipeline initiation interval.
    Cycles macInterval = 4;  ///< MAC pipeline initiation interval.
};

/**
 * A pipelined functional unit: full latency per operation, but
 * back-to-back independent operations issue one initiation interval
 * apart. Critical-path requesters (the eager schemes) still see the full
 * latency because they wait for their own operation's completion -- this
 * matches the paper's "we do not pipeline MAC or BMT root updates" for
 * NoGap/M/CM, whose store acceptance is serialized anyway, while giving
 * the drain engine of the lazy schemes realistic background throughput.
 */
class PipelinedUnit
{
  public:
    PipelinedUnit(EventQueue &eq, Cycles latency, Cycles interval)
        : _eq(eq), _latency(latency), _interval(interval)
    {}

    /** Issue one operation; fires @p done at completion. */
    Tick
    request(EventCallback done = nullptr)
    {
        const Tick issue = std::max(_eq.curTick(), _readyAt);
        _readyAt = issue + _interval;
        const Tick completion = issue + _latency;
        ++_requests;
        if (done)
            _eq.schedule(completion, std::move(done));
        return completion;
    }

    std::uint64_t requests() const { return _requests; }

    /**
     * @name Coalesced request trains
     * A burst of same-tick requests forms an arithmetic train: op i
     * issues at first_issue + i*interval and completes latency later,
     * exactly what sequential request() calls would produce. beginTrain()
     * snapshots the first issue tick; commitTrain() folds the whole train
     * into the unit's occupancy in one update. Callbacks are not
     * supported on trains -- burst users price completions, they don't
     * wait on them.
     * @{
     */
    Tick beginTrain() const { return std::max(_eq.curTick(), _readyAt); }

    void
    commitTrain(Tick first_issue, std::uint64_t count)
    {
        if (count == 0)
            return;
        _readyAt = first_issue + count * _interval;
        _requests += count;
    }

    Cycles latency() const { return _latency; }
    Cycles interval() const { return _interval; }
    /** @} */

  private:
    EventQueue &_eq;
    Cycles _latency;
    Cycles _interval;
    Tick _readyAt = 0;
    std::uint64_t _requests = 0;
};

/** Occupancy model of the AES and MAC units. */
class CryptoEngine
{
  public:
    CryptoEngine(EventQueue &eq, const CryptoLatencies &lat,
                 StatGroup &parent)
        : _lat(lat),
          _aesUnit(eq, lat.aesPad, lat.aesInterval),
          _macUnit(eq, lat.macHash, lat.macInterval),
          _stats("crypto", &parent),
          statOtpGenerated(_stats, "otp_generated",
                           "one-time pads generated"),
          statMacGenerated(_stats, "mac_generated", "MACs computed"),
          statCiphertexts(_stats, "ciphertexts", "ciphertext XORs")
    {}

    /** Issue one pad generation on the AES unit. @return finish tick. */
    Tick
    generateOtp(EventCallback done = nullptr)
    {
        ++statOtpGenerated;
        const Tick completion = _aesUnit.request(std::move(done));
        TRACE_SPAN("crypto", "otp", completion - _lat.aesPad, completion);
        return completion;
    }

    /** Issue one MAC computation. @return finish tick. */
    Tick
    generateMac(EventCallback done = nullptr)
    {
        ++statMacGenerated;
        const Tick completion = _macUnit.request(std::move(done));
        TRACE_SPAN("crypto", "mac", completion - _lat.macHash, completion);
        return completion;
    }

    /** Account a ciphertext XOR (1 cycle, no unit contention). */
    Cycles
    generateCiphertext()
    {
        ++statCiphertexts;
        return _lat.xorCipher;
    }

    const CryptoLatencies &latencies() const { return _lat; }
    PipelinedUnit &aesUnit() { return _aesUnit; }
    PipelinedUnit &macUnit() { return _macUnit; }

    /**
     * Batched drain crypto: prices a burst of OTP/MAC generations as one
     * coalesced request train per unit.
     *
     * Pricing contract: each otp()/mac() call charges the identical
     * completion tick, emits the identical trace span, and bumps the
     * identical stats as the equivalent generateOtp()/generateMac() call
     * sequence issued at the same tick -- op i of a unit's train issues
     * at first_issue + i*interval. The only difference is that the unit's
     * occupancy state is written once per unit at commit instead of once
     * per op, so a 64-block page regeneration touches each pipeline
     * twice, not 128 times. Callbacks are not supported (bursts price
     * work; waiters use the per-call path). No ops may be issued after
     * commit(); the destructor commits automatically.
     */
    class RegenBurst
    {
      public:
        explicit RegenBurst(CryptoEngine &eng)
            : _eng(eng),
              _otpBase(eng.aesUnit().beginTrain()),
              _macBase(eng.macUnit().beginTrain())
        {}

        RegenBurst(const RegenBurst &) = delete;
        RegenBurst &operator=(const RegenBurst &) = delete;

        ~RegenBurst() { commit(); }

        /** Price one pad generation. @return finish tick. */
        Tick
        otp()
        {
            ++_eng.statOtpGenerated;
            const CryptoLatencies &lat = _eng.latencies();
            const Tick completion =
                _otpBase + _otpCount * lat.aesInterval + lat.aesPad;
            ++_otpCount;
            TRACE_SPAN("crypto", "otp", completion - lat.aesPad, completion);
            return completion;
        }

        /** Price one MAC computation. @return finish tick. */
        Tick
        mac()
        {
            ++_eng.statMacGenerated;
            const CryptoLatencies &lat = _eng.latencies();
            const Tick completion =
                _macBase + _macCount * lat.macInterval + lat.macHash;
            ++_macCount;
            TRACE_SPAN("crypto", "mac", completion - lat.macHash,
                       completion);
            return completion;
        }

        /** Fold the burst into both units' occupancy. */
        void
        commit()
        {
            _eng.aesUnit().commitTrain(_otpBase, _otpCount);
            _eng.macUnit().commitTrain(_macBase, _macCount);
            _otpCount = 0;
            _macCount = 0;
        }

      private:
        CryptoEngine &_eng;
        Tick _otpBase;
        Tick _macBase;
        std::uint64_t _otpCount = 0;
        std::uint64_t _macCount = 0;
    };

  private:
    CryptoLatencies _lat;
    PipelinedUnit _aesUnit;
    PipelinedUnit _macUnit;
    StatGroup _stats;

  public:
    Scalar statOtpGenerated;
    Scalar statMacGenerated;
    Scalar statCiphertexts;
};

} // namespace secpb

#endif // SECPB_CRYPTO_ENGINE_HH

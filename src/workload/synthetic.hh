/**
 * @file
 * Synthetic trace generator driven by a BenchmarkProfile.
 *
 * Produces a deterministic (seeded) interleaving of instruction bundles,
 * loads (with hit levels drawn from the profile's mixture), and stores
 * whose addresses follow the profile's reuse-distance model. Store values
 * are pseudo-random, so the functional persistence path carries real data.
 */

#ifndef SECPB_WORKLOAD_SYNTHETIC_HH
#define SECPB_WORKLOAD_SYNTHETIC_HH

#include <array>
#include <cstddef>

#include "cpu/trace_op.hh"
#include "sim/rng.hh"
#include "workload/profile.hh"

namespace secpb
{

/** Profile-driven synthetic workload. */
class SyntheticGenerator : public WorkloadGenerator
{
  public:
    /**
     * @param profile the benchmark model to imitate.
     * @param total_instructions trace length (instructions incl. mem ops).
     * @param seed RNG seed; identical (profile, seed) pairs yield
     *        bit-identical traces.
     * @param region_base lowest data address the workload touches.
     */
    SyntheticGenerator(const BenchmarkProfile &profile,
                       std::uint64_t total_instructions,
                       std::uint64_t seed = 1,
                       Addr region_base = 0);

    bool next(TraceOp &op) override;

    std::uint64_t instructionsEmitted() const { return _emitted; }
    std::uint64_t storesEmitted() const { return _stores; }
    std::uint64_t loadsEmitted() const { return _loads; }

  private:
    Addr pickStoreAddr();
    void rememberBlock(Addr block);

    const BenchmarkProfile &_profile;
    std::uint64_t _budget;
    std::uint64_t _emitted = 0;
    std::uint64_t _stores = 0;
    std::uint64_t _loads = 0;
    Rng _rng;
    Addr _regionBase;

    /** log(1 - p) for p = P(an instruction slot is a memory op), the
     *  divisor of the geometric bundle-size draw. */
    double _logNoMemOp;
    /** P(load | memory op). */
    double _pLoad;

    /** The last Cap block addresses, newest first, in a fixed ring. */
    class RecentBlocks
    {
      public:
        static constexpr std::size_t Cap = 512;

        /** Make @p block the newest, dropping the oldest when full. */
        void
        push(Addr block)
        {
            _head = (_head + Cap - 1) % Cap;
            _slots[_head] = block;
            if (_size < Cap)
                ++_size;
        }

        /** The @p k-th newest block (0 = newest). */
        Addr
        operator[](std::size_t k) const
        {
            return _slots[(_head + k) % Cap];
        }

        std::size_t size() const { return _size; }
        bool empty() const { return _size == 0; }

      private:
        std::array<Addr, Cap> _slots{};
        std::size_t _head = 0;
        std::size_t _size = 0;
    };

    /** Recently written blocks (may contain duplicates; feeds the
     * hot/warm windows). */
    RecentBlocks _recent;

    /** Distinct block allocation history (fresh/stream blocks only),
     * feeding the long-tail reuse window. */
    RecentBlocks _history;

    /** Record a newly allocated (fresh or stream) block in the history. */
    void rememberAllocation(Addr block);

    /** Sequential-stream cursor (block address). */
    Addr _seqCursor;

    /** Current allocation page for clustered fresh blocks. */
    Addr _clusterPage = InvalidAddr;

    /**
     * Pick a load address whose locality matches the drawn hit level.
     * The core prices loads by op.level alone; the address survives only
     * in recorded trace files. The draw stays so the RNG stream -- and
     * with it every op stream, trace file and digest -- is unchanged.
     */
    Addr pickLoadAddr(MemLevel level);

    /** Alternation state: next emission is the memory op of the pair. */
    bool _inMemOp = false;
};

} // namespace secpb

#endif // SECPB_WORKLOAD_SYNTHETIC_HH

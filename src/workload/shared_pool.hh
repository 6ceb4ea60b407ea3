/**
 * @file
 * Shared-pool writer for multi-core sharing studies.
 *
 * One generator per core: each store hits a 16-block pool shared by all
 * cores (at address 0) with probability `share`, and the core's private
 * 16-block pool otherwise. The pools have the same size, so locality is
 * held constant and only cross-core sharing varies. Used by the
 * multicore_sharing bench and the barrier's allocation test.
 */

#ifndef SECPB_WORKLOAD_SHARED_POOL_HH
#define SECPB_WORKLOAD_SHARED_POOL_HH

#include <algorithm>
#include <cstdint>

#include "cpu/trace_op.hh"
#include "sim/rng.hh"

namespace secpb
{

/** Private-region writer with probabilistic shared-pool stores. */
class SharedPoolGenerator : public WorkloadGenerator
{
  public:
    SharedPoolGenerator(std::uint64_t instructions, double share,
                        Addr private_base, std::uint64_t seed)
        : _budget(instructions), _share(share), _privateBase(private_base),
          _rng(seed)
    {}

    bool
    next(TraceOp &op) override
    {
        if (_emitted >= _budget)
            return false;
        // ~80 stores per kilo-instruction, rest plain instructions.
        if (_rng.chance(0.08)) {
            ++_emitted;
            op.kind = TraceOp::Kind::Store;
            const bool shared = _rng.chance(_share);
            const Addr base = shared ? 0x0 : _privateBase;
            const std::uint64_t pool_blocks = 16;
            op.addr = base + blockAlign(_rng.below(pool_blocks) * BlockSize)
                      + 8 * _rng.below(8);
            op.value = _rng.next();
            return true;
        }
        std::uint32_t count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(16, _budget - _emitted));
        _emitted += count;
        op.kind = TraceOp::Kind::Instr;
        op.count = count;
        return true;
    }

  private:
    std::uint64_t _budget;
    std::uint64_t _emitted = 0;
    double _share;
    Addr _privateBase;
    Rng _rng;
};

} // namespace secpb

#endif // SECPB_WORKLOAD_SHARED_POOL_HH

#include "workload/synthetic.hh"

#include <algorithm>
#include <cmath>

#include "crypto/counters.hh"
#include "crypto/hash.hh"
#include "sim/logging.hh"

namespace secpb
{

SyntheticGenerator::SyntheticGenerator(const BenchmarkProfile &profile,
                                       std::uint64_t total_instructions,
                                       std::uint64_t seed, Addr region_base)
    : _profile(profile), _budget(total_instructions),
      _rng(seed ^ hashBytes(
               reinterpret_cast<const std::uint8_t *>(profile.name.data()),
               profile.name.size(), 0x5eed)),
      _regionBase(region_base)
{
    const double mem_pki =
        profile.loadsPerKiloInstr + profile.storesPerKiloInstr;
    fatal_if(mem_pki <= 0.0, "profile '%s' has no memory operations",
             profile.name.c_str());
    fatal_if(mem_pki > 1000.0, "profile '%s' has > 1000 mem ops per ki",
             profile.name.c_str());
    const double mean_gap = 1000.0 / mem_pki - 1.0;
    _logNoMemOp = std::log1p(-(1.0 / (mean_gap + 1.0)));
    _pLoad = profile.loadsPerKiloInstr / mem_pki;
    _seqCursor = region_base;
}

void
SyntheticGenerator::rememberBlock(Addr block)
{
    _recent.push(block);
}

void
SyntheticGenerator::rememberAllocation(Addr block)
{
    if (!_history.empty() && _history[0] == block)
        return;
    _history.push(block);
}

Addr
SyntheticGenerator::pickStoreAddr()
{
    const double r = _rng.uniform();
    const std::uint64_t ws_bytes = _profile.workingSetPages * PageSize;

    double acc = _profile.pRewriteHot;
    if (r < acc && !_recent.empty()) {
        const std::size_t w =
            std::min<std::size_t>(_profile.hotWindow, _recent.size());
        return _recent[_rng.below(w)] + 8 * _rng.below(WordsPerBlock);
    }
    acc += _profile.pRewriteWarm;
    if (r < acc && !_recent.empty()) {
        const std::size_t w =
            std::min<std::size_t>(_profile.warmWindow, _recent.size());
        return _recent[_rng.below(w)] + 8 * _rng.below(WordsPerBlock);
    }
    // Long-tail reuse skips the most recent allocations (those are still
    // buffer-resident and would coalesce); it targets blocks that have
    // long drained, so only large SecPBs capture the reuse.
    acc += _profile.pRewriteLong;
    constexpr std::size_t long_skip = 64;
    if (r < acc && _history.size() > long_skip) {
        const std::size_t w = std::min<std::size_t>(
            _profile.longWindow, _history.size() - long_skip);
        return _history[long_skip + _rng.below(w)] +
               8 * _rng.below(WordsPerBlock);
    }
    acc += _profile.pSequential;
    if (r < acc) {
        // Streaming: consecutive 8-byte words, flowing naturally from
        // block to block (so a pure stream writes each block 8 times)
        // and from page to page (so BMT leaf updates cluster).
        const Addr addr = _seqCursor;
        _seqCursor += 8;
        if (_seqCursor >= _regionBase + ws_bytes)
            _seqCursor = _regionBase;
        rememberAllocation(blockAlign(addr));
        return addr;
    }
    // Fresh block: stay within the current allocation page with
    // probability pPageCluster, else jump to a new random page. The
    // stream cursor follows so sequential stores continue from here.
    Addr block;
    if (_clusterPage != InvalidAddr && _rng.chance(_profile.pPageCluster)) {
        block = _clusterPage + BlockSize * _rng.below(BlocksPerPage);
    } else {
        _clusterPage = _regionBase +
            (_rng.below(ws_bytes) / PageSize) * PageSize;
        block = _clusterPage + BlockSize * _rng.below(BlocksPerPage);
    }
    _seqCursor = block + 8;
    rememberAllocation(block);
    return block + 8 * _rng.below(WordsPerBlock);
}

Addr
SyntheticGenerator::pickLoadAddr(MemLevel level)
{
    // Region-based locality: regions sized so that, against Table I's
    // cache capacities, a load drawn for level X would predominantly hit
    // level X after warm-up. Read regions sit above the store working
    // set.
    const std::uint64_t ws_bytes = _profile.workingSetPages * PageSize;
    const Addr read_base = _regionBase + ws_bytes;
    switch (level) {
      case MemLevel::L1:
        return read_base + blockAlign(_rng.below(32 * 1024));
      case MemLevel::L2:
        return read_base + blockAlign(_rng.below(384 * 1024));
      case MemLevel::L3:
        return read_base + blockAlign(_rng.below(3 * 1024 * 1024));
      case MemLevel::Mem:
      default:
        return read_base + blockAlign(_rng.below(256ULL << 20));
    }
}

bool
SyntheticGenerator::next(TraceOp &op)
{
    if (_emitted >= _budget)
        return false;

    // Alternate instruction bundles and memory operations. Each
    // instruction slot is a memory op with probability 1/(meanGap+1), so
    // bundle sizes are geometric -- drawn by inversion to keep the mem-op
    // density exact.
    if (!_inMemOp) {
        const double u = std::max(_rng.uniform(), 1e-300);
        std::uint64_t count =
            static_cast<std::uint64_t>(std::log(u) / _logNoMemOp);
        count = std::min<std::uint64_t>(count, _budget - _emitted);
        _inMemOp = true;
        if (count > 0) {
            op.kind = TraceOp::Kind::Instr;
            op.count = static_cast<std::uint32_t>(count);
            _emitted += count;
            return true;
        }
        // Zero-length bundle: fall through to the memory op.
    }
    _inMemOp = false;

    ++_emitted;
    if (_rng.uniform() < _pLoad) {
        ++_loads;
        op.kind = TraceOp::Kind::Load;
        const double r = _rng.uniform();
        if (r < _profile.pLoadMem)
            op.level = MemLevel::Mem;
        else if (r < _profile.pLoadMem + _profile.pLoadL3)
            op.level = MemLevel::L3;
        else if (r < _profile.pLoadMem + _profile.pLoadL3 +
                         _profile.pLoadL2)
            op.level = MemLevel::L2;
        else
            op.level = MemLevel::L1;
        op.addr = pickLoadAddr(op.level);
        return true;
    }

    ++_stores;
    const Addr addr = pickStoreAddr();
    rememberBlock(blockAlign(addr));
    op.kind = TraceOp::Kind::Store;
    op.addr = addr;
    op.value = _rng.next();
    return true;
}

} // namespace secpb

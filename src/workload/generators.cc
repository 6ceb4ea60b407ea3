#include "workload/generators.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace secpb
{

namespace
{

/** Pad region carve-outs to a page multiple so layouts stay readable. */
constexpr Addr
regionBytes(std::uint64_t blocks)
{
    const Addr bytes = blocks * BlockSize;
    return (bytes + 0xfff) & ~static_cast<Addr>(0xfff);
}

} // namespace

// ---------------------------------------------------------------------
// KvWalGenerator
// ---------------------------------------------------------------------

KvWalGenerator::KvWalGenerator(const KvWalParams &params,
                               std::uint64_t total_instructions,
                               std::uint64_t seed)
    : QueueGenerator(total_instructions, seed),
      _p(params),
      _zipf(params.keys, params.zipf)
{
    fatal_if(_p.puts < 0.0 || _p.scans < 0.0 || _p.puts + _p.scans > 1.0,
             "kv_wal: puts (%f) + scans (%f) must stay within [0, 1]",
             _p.puts, _p.scans);
    fatal_if(_p.valueWords == 0 || _p.valueWords > BlockSize / 8,
             "kv_wal: valueWords %u out of range [1, %u]",
             _p.valueWords, BlockSize / 8);
    fatal_if(_p.walWords == 0, "kv_wal: walWords must be nonzero");

    // The table starts at address 0; the WAL and checkpoint regions
    // follow it.
    _walBase = regionBytes(_p.keys);
    // Size the WAL ring so checkpoints, not wrap-around, bound the
    // recovery window: 4 checkpoint intervals of records.
    const std::uint64_t interval =
        _p.checkpointEvery ? _p.checkpointEvery : 1024;
    _walBlocks =
        std::max<std::uint64_t>(
            64, 4 * interval * _p.walWords / (BlockSize / 8) + 1);
    _ckptBase = _walBase + regionBytes(_walBlocks);
}

void
KvWalGenerator::refill()
{
    emitInstr(static_cast<std::uint32_t>(
        _rng.geometric(1.0 / std::max(1u, _p.thinkInstrs))));

    const double u = _rng.uniform();
    const std::uint64_t key = _zipf.sample(_rng);
    const Addr keyBlock = key * BlockSize;

    if (u < _p.puts) {
        // Put: append a WAL record, commit it, update the table row.
        for (unsigned w = 0; w < _p.walWords; ++w) {
            const std::uint64_t word = _walCursor++;
            const Addr addr =
                _walBase + 8 * (word % (_walBlocks * (BlockSize / 8)));
            emitStore(blockAlign(addr), blockOffset(addr) / 8);
        }
        emitBarrier();
        for (unsigned w = 0; w < _p.valueWords; ++w)
            emitStore(keyBlock, w);
        ++_puts;

        if (_p.checkpointEvery && _puts % _p.checkpointEvery == 0) {
            // Checkpoint storm: rewrite a sequential region, fence, and
            // logically truncate the log (cursor keeps advancing; the
            // ring addresses wrap by construction).
            for (unsigned b = 0; b < _p.checkpointBlocks; ++b) {
                const Addr block = _ckptBase + b * BlockSize;
                emitStore(block, 0);
                emitStore(block, 1);
            }
            emitBarrier();
            ++_checkpoints;
        }
    } else if (u < _p.puts + _p.scans) {
        // Scan: a sequential run of key reads from a random start.
        const std::uint64_t start = _rng.below(_p.keys);
        for (unsigned i = 0; i < _p.scanLength; ++i) {
            const std::uint64_t k = (start + i) % _p.keys;
            emitLoad(drawLevel(0.25, 0.20, 0.30), k * BlockSize);
        }
    } else {
        // Get: point read of a popular key -- mostly cache resident.
        emitLoad(drawLevel(0.30, 0.10, 0.05), keyBlock);
    }
}

// ---------------------------------------------------------------------
// JournalGenerator
// ---------------------------------------------------------------------

JournalGenerator::JournalGenerator(const JournalParams &params,
                                   std::uint64_t total_instructions,
                                   std::uint64_t seed)
    : QueueGenerator(total_instructions, seed), _p(params)
{
    fatal_if(_p.txnStores == 0, "journal: txnStores must be nonzero");
    fatal_if(_p.metaBlocks == 0, "journal: metaBlocks must be nonzero");
    fatal_if(_p.commitEvery == 0, "journal: commitEvery must be nonzero");
    fatal_if(_p.journalBlocks == 0,
             "journal: journalBlocks must be nonzero");

    // Metadata starts at address 0; the journal ring and the dump
    // region follow it.
    _journalBase = regionBytes(_p.metaBlocks);
    // Journal ring: a few commit trains deep, like a small jbd2 area.
    _journalRing = std::max<std::uint64_t>(64, 8 * _p.journalBlocks);
    _dumpBase = _journalBase + regionBytes(_journalRing);
}

void
JournalGenerator::refill()
{
    emitInstr(static_cast<std::uint32_t>(
        _rng.geometric(1.0 / std::max(1u, _p.thinkInstrs))));

    // One transaction: scattered metadata updates, interleaved with the
    // reads that found them.
    for (unsigned s = 0; s < _p.txnStores; ++s) {
        const Addr block = _rng.below(_p.metaBlocks) * BlockSize;
        if (_rng.chance(0.5))
            emitLoad(drawLevel(0.30, 0.25, 0.15), block);
        emitStore(block, static_cast<unsigned>(_rng.below(BlockSize / 8)));
    }
    ++_txns;

    if (++_txnsSinceCommit >= _p.commitEvery) {
        _txnsSinceCommit = 0;
        // Commit train: descriptor + data blocks back to back, then the
        // commit record, then the fence that makes it durable.
        for (unsigned b = 0; b < _p.journalBlocks; ++b) {
            const Addr block =
                _journalBase +
                ((_journalCursor + b) % _journalRing) * BlockSize;
            for (unsigned w = 0; w < 2; ++w)
                emitStore(block, w);
        }
        _journalCursor += _p.journalBlocks;
        emitBarrier();
        emitStore(_journalBase +
                      (_journalCursor % _journalRing) * BlockSize,
                  0);  // commit record
        ++_journalCursor;
        emitBarrier();
        ++_commits;
    }

    if (_p.dumpEvery && _txns % _p.dumpEvery == 0) {
        // Panic dump (pstore): long uninterrupted sequential burst.
        for (unsigned b = 0; b < _p.dumpBlocks; ++b) {
            const Addr block = _dumpBase + b * BlockSize;
            emitStore(block, 0);
            emitStore(block, 1);
        }
        emitBarrier();
        ++_dumps;
    }
}

// ---------------------------------------------------------------------
// ZipfMixGenerator
// ---------------------------------------------------------------------

ZipfMixGenerator::ZipfMixGenerator(const ZipfMixParams &params,
                                   std::uint64_t total_instructions,
                                   std::uint64_t seed)
    : QueueGenerator(total_instructions, seed),
      _p(params),
      _tenantZipf(params.tenants, params.tenantZipf),
      _keyZipf(params.keysPerTenant, params.keyZipf),
      _putsSinceCommit(params.tenants, 0)
{
    fatal_if(_p.tenants == 0, "zipf_mix: tenants must be nonzero");
    fatal_if(_p.puts < 0.0 || _p.puts > 1.0,
             "zipf_mix: puts %f must be in [0, 1]", _p.puts);
    fatal_if(_p.commitEvery == 0, "zipf_mix: commitEvery must be nonzero");
}

void
ZipfMixGenerator::refill()
{
    emitInstr(static_cast<std::uint32_t>(
        _rng.geometric(1.0 / std::max(1u, _p.thinkInstrs))));

    const auto tenant =
        static_cast<std::uint32_t>(_tenantZipf.sample(_rng));
    const std::uint64_t key = _keyZipf.sample(_rng);
    const Addr block =
        (static_cast<Addr>(tenant) * _p.keysPerTenant + key) * BlockSize;

    if (_rng.chance(_p.puts)) {
        emitStore(block, static_cast<unsigned>(_rng.below(2)), tenant);
        if (++_putsSinceCommit[tenant] >= _p.commitEvery) {
            _putsSinceCommit[tenant] = 0;
            emitBarrier(tenant);
        }
    } else {
        // Hot tenants are cache resident, the long tail is not.
        const bool hot = tenant < _p.tenants / 16 + 1;
        emitLoad(hot ? drawLevel(0.25, 0.10, 0.05)
                     : drawLevel(0.20, 0.30, 0.45),
                 block, tenant);
    }
}

// ---------------------------------------------------------------------
// BurstyArrivalGenerator
// ---------------------------------------------------------------------

BurstyArrivalGenerator::BurstyArrivalGenerator(
    std::unique_ptr<WorkloadGenerator> inner, const BurstParams &params)
    : _inner(std::move(inner)), _p(params)
{
    fatal_if(!_inner, "bursty wrapper needs an inner generator");
    fatal_if(_p.onOps == 0, "burst: onOps must be nonzero");
    fatal_if(!(_p.duty > 0.0) || _p.duty > 1.0,
             "burst: duty %f must be in (0, 1]", _p.duty);
    fatal_if(_p.idleBundle == 0, "burst: idleBundle must be nonzero");
}

bool
BurstyArrivalGenerator::next(TraceOp &op)
{
    // Pay off the idle gap first: emit plain-instruction bundles that
    // model the server spinning between arrival bursts.
    if (_idleLeft > 0) {
        op = TraceOp{};
        op.kind = TraceOp::Kind::Instr;
        op.count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(_idleLeft, _p.idleBundle));
        _idleLeft -= op.count;
        countOp(_ctr, op);
        return true;
    }

    if (_innerDone)
        return false;

    while (_inner->next(op)) {
        if (op.kind == TraceOp::Kind::Instr)
            continue;  // line-rate arrivals: drop inner think time
        countOp(_ctr, op);
        if (++_opsThisBurst >= _p.onOps) {
            // Size the off period so this burst occupies `duty` of the
            // wall-clock instruction budget: idle = on * (1 - d) / d,
            // where the burst's onOps memory ops are one instruction
            // each.
            _idleLeft = static_cast<std::uint64_t>(
                static_cast<double>(_p.onOps) * (1.0 - _p.duty) / _p.duty);
            _opsThisBurst = 0;
        }
        return true;
    }
    _innerDone = true;
    return false;
}

} // namespace secpb

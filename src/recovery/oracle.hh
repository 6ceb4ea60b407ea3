/**
 * @file
 * The crash-recovery observer's reference state.
 *
 * A store reaches its point of persistency (PoP) the moment it is accepted
 * by the persist buffer (paper Section III). The oracle applies every
 * accepted store, in acceptance order, to a plaintext shadow of the
 * persistent address space. After a crash plus battery-powered drain,
 * recovery must reproduce exactly this state -- the oracle is what the
 * crash-recovery tests compare decrypted PM content against.
 */

#ifndef SECPB_RECOVERY_ORACLE_HH
#define SECPB_RECOVERY_ORACLE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "mem/block_data.hh"
#include "mem/flat_map.hh"
#include "sim/types.hh"

namespace secpb
{

/**
 * A SecPB residency the battery abandoned when its energy budget ran
 * out: the block's recovered content must be its pre-residency version
 * (the @p pendingWrites coalesced stores of the final residency are
 * lost together, never torn apart).
 */
struct AbandonedResidency
{
    Addr addr = InvalidAddr;          ///< Block-aligned data address.
    std::uint64_t pendingWrites = 0;  ///< Stores coalesced in the entry.
};

/**
 * Plaintext shadow of all persisted stores, in persist order.
 *
 * Every accepted store lands here, so a persist costs one FlatMap probe
 * and one log append. Each touched block owns one record (content plus
 * store log) in a deque, which keeps references stable and never copies
 * records when it grows; a forgotten block's record is reused.
 */
class PersistOracle
{
  public:
    /**
     * Apply an accepted 64-bit store to the shadow state.
     * @return The block's content after the store.
     */
    const BlockData &
    applyStore(Addr addr, std::uint64_t value)
    {
        BlockRecord &r = recordFor(blockAlign(addr));
        const unsigned word = blockOffset(addr) / 8;
        setBlockWord(r.content, word, value);
        r.log.push_back(
            StoreRecord{static_cast<std::uint8_t>(word), value});
        ++_numPersists;
        return r.content;
    }

    /** Last-persisted plaintext of the block containing @p addr. */
    BlockData
    blockContent(Addr addr) const
    {
        const BlockRecord *r = find(addr);
        return r ? r->content : zeroBlock();
    }

    /** True if any store to this block has persisted. */
    bool
    touched(Addr addr) const
    {
        return _index.contains(blockAlign(addr));
    }

    /**
     * All block addresses ever persisted to, in the index's slot order
     * (deterministic for a deterministic history, unsorted).
     */
    std::vector<Addr>
    touchedBlocks() const
    {
        std::vector<Addr> out;
        out.reserve(_index.size());
        _index.forEach([&](const Addr &block, const std::uint32_t &)
                       { out.push_back(block); });
        return out;
    }

    std::uint64_t numPersists() const { return _numPersists; }
    std::size_t numBlocks() const { return _index.size(); }

    /**
     * @name Per-block version history
     * Bounded-battery crash drains can legitimately recover a block at an
     * *older* version (its content before the abandoned final residency).
     * The per-block store log lets the verifier reconstruct any
     * historical version and decide whether a recovered image is a
     * persist-order-consistent prefix or silent corruption.
     * @{
     */

    /** Number of stores ever persisted to the block containing @p addr. */
    std::uint64_t
    storeCount(Addr addr) const
    {
        const BlockRecord *r = find(addr);
        return r ? r->log.size() : 0;
    }

    /**
     * Plaintext of the block containing @p addr after its first
     * @p version stores (version 0 = the pristine zero block).
     */
    BlockData
    blockVersion(Addr addr, std::uint64_t version) const
    {
        const BlockRecord *r = find(addr);
        return r ? replay(r->log, version) : zeroBlock();
    }
    /** @} */

    /**
     * @name Power-cycle recovery (restore.hh)
     * A crash on a bounded battery abandons the newest stores of some
     * blocks. When the machine reboots and keeps *running* (crash-
     * recover-crash), the reference state must match what actually
     * survived: RestoreManager rolls the shadow back to the recovered
     * version so subsequent persists build on durable state only.
     * _numPersists stays monotone -- it counts stores that reached the
     * PoP, a fact a later power loss cannot unmake.
     * @{
     */

    /**
     * Roll the block containing @p addr back to its first @p version
     * stores. Version 0 means the block reverts to pristine (untouched).
     */
    void
    rollbackBlock(Addr addr, std::uint64_t version)
    {
        if (version == 0) {
            forgetBlock(addr);
            return;
        }
        const std::uint32_t *i = _index.find(blockAlign(addr));
        if (!i)
            return;
        BlockRecord &r = _records[*i];
        if (version < r.log.size())
            r.log.resize(version);
        r.content = replay(r.log, version);
    }

    /** Drop the block entirely (it was never durable). */
    void
    forgetBlock(Addr addr)
    {
        const Addr block = blockAlign(addr);
        const std::uint32_t *i = _index.find(block);
        if (!i)
            return;
        const std::uint32_t idx = *i;
        _index.erase(block);
        _records[idx] = BlockRecord{};
        _freeRecords.push_back(idx);
    }
    /** @} */

    /**
     * Page migration (multi-core): move the shadow content and store log
     * of every block in [page_base, page_base + page_bytes) into @p dst.
     * _numPersists stays put on both sides -- each core's oracle counts
     * the stores *it* accepted, so per-core persist sums stay correct.
     */
    void
    movePageTo(PersistOracle &dst, Addr page_base, std::uint64_t page_bytes)
    {
        for (Addr a = page_base; a < page_base + page_bytes;
             a += BlockSize) {
            const std::uint32_t *i = _index.find(a);
            if (!i)
                continue;
            BlockRecord &src = _records[*i];
            BlockRecord &to = dst.recordFor(a);
            to.content = src.content;
            to.log = std::move(src.log);
            forgetBlock(a);
        }
    }

  private:
    struct StoreRecord
    {
        std::uint8_t word;    ///< Word index within the block.
        std::uint64_t value;
    };

    struct BlockRecord
    {
        BlockData content{};          ///< Last-persisted plaintext.
        std::vector<StoreRecord> log; ///< Every store, in persist order.
    };

    const BlockRecord *
    find(Addr addr) const
    {
        const std::uint32_t *i = _index.find(blockAlign(addr));
        return i ? &_records[*i] : nullptr;
    }

    /** The record of @p block, made (pristine) on first touch. */
    BlockRecord &
    recordFor(Addr block)
    {
        if (const std::uint32_t *i = _index.find(block))
            return _records[*i];
        std::uint32_t idx;
        if (_freeRecords.empty()) {
            idx = static_cast<std::uint32_t>(_records.size());
            _records.emplace_back();
        } else {
            idx = _freeRecords.back();
            _freeRecords.pop_back();
        }
        _index.insert(block, idx);
        return _records[idx];
    }

    /** The block after the first @p version stores of @p log. */
    static BlockData
    replay(const std::vector<StoreRecord> &log, std::uint64_t version)
    {
        BlockData b = zeroBlock();
        const std::uint64_t n = std::min<std::uint64_t>(version, log.size());
        for (std::uint64_t i = 0; i < n; ++i)
            setBlockWord(b, log[i].word, log[i].value);
        return b;
    }

    FlatMap<Addr, std::uint32_t> _index;  ///< block -> record index.
    std::deque<BlockRecord> _records;
    std::vector<std::uint32_t> _freeRecords;
    std::uint64_t _numPersists = 0;
};

} // namespace secpb

#endif // SECPB_RECOVERY_ORACLE_HH

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
#include <unordered_map>
#include <vector>

#include "mem/block_data.hh"
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

/** Plaintext shadow of all persisted stores, in persist order. */
class PersistOracle
{
  public:
    /** Apply an accepted 64-bit store to the shadow state. */
    void
    applyStore(Addr addr, std::uint64_t value)
    {
        const Addr block = blockAlign(addr);
        BlockData &b = _blocks[block];
        const unsigned word = blockOffset(addr) / 8;
        setBlockWord(b, word, value);
        _log[block].push_back(
            StoreRecord{static_cast<std::uint8_t>(word), value});
        ++_numPersists;
    }

    /** Last-persisted plaintext of the block containing @p addr. */
    BlockData
    blockContent(Addr addr) const
    {
        auto it = _blocks.find(blockAlign(addr));
        return it != _blocks.end() ? it->second : zeroBlock();
    }

    /** True if any store to this block has persisted. */
    bool
    touched(Addr addr) const
    {
        return _blocks.count(blockAlign(addr)) != 0;
    }

    /** All block addresses ever persisted to. */
    std::vector<Addr>
    touchedBlocks() const
    {
        std::vector<Addr> out;
        out.reserve(_blocks.size());
        for (const auto &kv : _blocks)
            out.push_back(kv.first);
        return out;
    }

    std::uint64_t numPersists() const { return _numPersists; }
    std::size_t numBlocks() const { return _blocks.size(); }

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
        auto it = _log.find(blockAlign(addr));
        return it != _log.end() ? it->second.size() : 0;
    }

    /**
     * Plaintext of the block containing @p addr after its first
     * @p version stores (version 0 = the pristine zero block).
     */
    BlockData
    blockVersion(Addr addr, std::uint64_t version) const
    {
        BlockData b = zeroBlock();
        auto it = _log.find(blockAlign(addr));
        if (it == _log.end())
            return b;
        const auto &records = it->second;
        const std::uint64_t n =
            std::min<std::uint64_t>(version, records.size());
        for (std::uint64_t i = 0; i < n; ++i)
            setBlockWord(b, records[i].word, records[i].value);
        return b;
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
        const Addr block = blockAlign(addr);
        if (version == 0) {
            forgetBlock(block);
            return;
        }
        auto it = _log.find(block);
        if (it == _log.end())
            return;
        if (version < it->second.size())
            it->second.resize(version);
        _blocks[block] = blockVersion(block, version);
    }

    /** Drop the block entirely (it was never durable). */
    void
    forgetBlock(Addr addr)
    {
        const Addr block = blockAlign(addr);
        _blocks.erase(block);
        _log.erase(block);
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
            auto it = _blocks.find(a);
            if (it == _blocks.end())
                continue;
            dst._blocks[a] = it->second;
            dst._log[a] = std::move(_log[a]);
            _blocks.erase(it);
            _log.erase(a);
        }
    }

  private:
    struct StoreRecord
    {
        std::uint8_t word;    ///< Word index within the block.
        std::uint64_t value;
    };

    std::unordered_map<Addr, BlockData> _blocks;
    std::unordered_map<Addr, std::vector<StoreRecord>> _log;
    std::uint64_t _numPersists = 0;
};

} // namespace secpb

#endif // SECPB_RECOVERY_ORACLE_HH

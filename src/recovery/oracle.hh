/**
 * @file
 * The crash-recovery observer's reference state.
 *
 * A store reaches its point of persistency (PoP) the moment it is accepted
 * by the persist buffer (paper Section III). The oracle applies every
 * accepted store, in acceptance order, to a plaintext shadow of the
 * persistent address space. After a crash plus battery-powered drain,
 * recovery must reproduce exactly this state -- the oracle is what the
 * crash-recovery tests compare decrypted PM content against. A bounded
 * battery may instead leave a block at its version from before its open
 * residency, so the oracle also keeps that version, for open residencies
 * only.
 */

#ifndef SECPB_RECOVERY_ORACLE_HH
#define SECPB_RECOVERY_ORACLE_HH

#include <cstdint>
#include <vector>

#include "mem/block_data.hh"
#include "mem/flat_map.hh"
#include "mem/page_table.hh"
#include "sim/logging.hh"
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
 * Every accepted store lands here, so a persist costs one probe of a
 * page table (mem/page_table.hh) and no allocation once the block is
 * known. Each touched block owns one 72-byte record: its content and
 * store count. A bounded-battery crash can lose only a block's *open*
 * SecPB residency (paper Section III), so the one old version recovery
 * ever needs is the record as it stood when that residency opened. Those
 * snapshots live in a side table with one row per open residency: a row
 * opens with the residency's allocating store and closes when its
 * content becomes durable (the SecPB drains it, or recovery reconciles
 * an abandoned one). The side table holds at most a buffer's worth of
 * rows, and memory grows with blocks, not with persists.
 */
class PersistOracle
{
  public:
    /**
     * Apply an accepted 64-bit store to the shadow state.
     * @param opens_residency the store allocates a SecPB entry: open (or
     *        replace) the block's snapshot row first, as the version an
     *        abandoned residency falls back to.
     * @return The block's content after the store.
     */
    const BlockData &
    applyStore(Addr addr, std::uint64_t value, bool opens_residency = false)
    {
        BlockRecord &r = _blocks[addr];
        if (opens_residency)
            openResidency(blockAlign(addr), r);
        setBlockWord(r.content, blockOffset(addr) / 8, value);
        ++r.stores;
        ++_numPersists;
        return r.content;
    }

    /** Last-persisted plaintext of the block containing @p addr. */
    BlockData
    blockContent(Addr addr) const
    {
        const BlockRecord *r = _blocks.find(addr);
        return r ? r->content : zeroBlock();
    }

    /** True if any store to this block has persisted. */
    bool
    touched(Addr addr) const
    {
        return _blocks.contains(addr);
    }

    /**
     * All block addresses ever persisted to, in the page table's row
     * order (deterministic for a deterministic history, unsorted).
     */
    std::vector<Addr>
    touchedBlocks() const
    {
        std::vector<Addr> out;
        out.reserve(_blocks.size());
        _blocks.forEach([&](Addr block, const BlockRecord &)
                        { out.push_back(block); });
        return out;
    }

    std::uint64_t numPersists() const { return _numPersists; }
    std::size_t numBlocks() const { return _blocks.size(); }

    /**
     * @name Open residencies
     * SecPb closes a row when it drains the residency (normally, on an
     * application crash, or in the crash drain's prefix), and
     * RestoreManager when it reconciles an abandoned one. A residency
     * that migrates with its page stays open: movePageTo carries its row.
     * @{
     */

    /** The residency holding @p addr's block drained or was reconciled. */
    void
    closeResidency(Addr addr)
    {
        std::uint32_t i = 0;
        if (!_openRow.take(blockAlign(addr), i))
            return;
        _open[i].block = InvalidAddr;
        _freeRows.push_back(i);
    }

    /** True while the block containing @p addr has an open residency. */
    bool
    residencyOpen(Addr addr) const
    {
        return _openRow.contains(blockAlign(addr));
    }

    /** Snapshot rows held: one per open residency. */
    std::size_t numOpenResidencies() const { return _openRow.size(); }
    /** @} */

    /**
     * @name Block versions
     * Bounded-battery crash drains can legitimately recover a block at an
     * *older* version: its content before the abandoned final residency.
     * Version v is the block after its first v stores. The oracle keeps
     * three: 0 (pristine), the current one, and, while a residency is
     * open, its pre-residency snapshot, which is all the verifier needs
     * to decide whether a recovered image is a persist-order-consistent
     * prefix or silent corruption.
     * @{
     */

    /** Number of stores ever persisted to the block containing @p addr. */
    std::uint64_t
    storeCount(Addr addr) const
    {
        const BlockRecord *r = _blocks.find(addr);
        return r ? r->stores : 0;
    }

    /**
     * Store count of the block when its open residency opened; with none
     * open, its current count (no store is pending).
     */
    std::uint64_t
    preResidencyCount(Addr addr) const
    {
        const BlockRecord *s = snapshotOf(addr);
        return s ? s->stores : storeCount(addr);
    }

    /**
     * The version an abandoned residency of @p pending_writes coalesced
     * stores falls back to. Panics unless the residency is the open one
     * the snapshot was taken for.
     */
    std::uint64_t
    abandonedVersion(Addr addr, std::uint64_t pending_writes) const
    {
        panic_if(!residencyOpen(addr),
                 "abandoned residency %#llx is not open in the oracle",
                 static_cast<unsigned long long>(blockAlign(addr)));
        const std::uint64_t total = storeCount(addr);
        const std::uint64_t pre = preResidencyCount(addr);
        panic_if(pre != total - pending_writes,
                 "abandoned residency %#llx: %llu of %llu stores pending, "
                 "but its residency opened after store %llu",
                 static_cast<unsigned long long>(blockAlign(addr)),
                 static_cast<unsigned long long>(pending_writes),
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(pre));
        return pre;
    }

    /**
     * Plaintext of the block containing @p addr after its first
     * @p version stores (version 0 = the pristine zero block). Only the
     * versions the oracle keeps can be asked for.
     */
    BlockData
    blockVersion(Addr addr, std::uint64_t version) const
    {
        if (version == 0)
            return zeroBlock();
        const BlockRecord *r = _blocks.find(addr);
        if (r && version == r->stores)
            return r->content;
        const BlockRecord *s = snapshotOf(addr);
        if (s && version == s->stores)
            return s->content;
        panic("oracle keeps no version %llu of block %#llx",
              static_cast<unsigned long long>(version),
              static_cast<unsigned long long>(blockAlign(addr)));
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
     * Roll the block containing @p addr back to a kept @p version (see
     * blockVersion) and close its residency. Version 0 means the block
     * reverts to pristine (untouched).
     */
    void
    rollbackBlock(Addr addr, std::uint64_t version)
    {
        if (version == 0) {
            forgetBlock(addr);
            return;
        }
        BlockRecord *r = _blocks.find(addr);
        if (!r)
            return;
        r->content = blockVersion(addr, version);
        r->stores = version;
        closeResidency(addr);
    }

    /** Drop the block and its residency entirely (never durable). */
    void
    forgetBlock(Addr addr)
    {
        _blocks.erase(addr);
        closeResidency(addr);
    }
    /** @} */

    /**
     * Page migration (multi-core): move the record (content and count)
     * of every block of page @p page_idx into @p dst, with one row probe
     * on each side, and the snapshot rows of the page's open residencies
     * with them: the residencies continue on @p dst's core. The side
     * table's rows are walked, not probed block by block.
     * _numPersists stays put on both sides -- each core's oracle counts
     * the stores *it* accepted, so per-core persist sums stay correct.
     */
    void
    movePageTo(PersistOracle &dst, std::uint64_t page_idx)
    {
        _blocks.movePageTo(dst._blocks, page_idx);
        for (const OpenRow &row : _open) {
            const Addr block = row.block;
            if (block != InvalidAddr && block / PageSize == page_idx) {
                dst.openResidency(block, row.snapshot);
                closeResidency(block);
            }
        }
    }

  private:
    struct BlockRecord
    {
        BlockData content{};           ///< Last-persisted plaintext.
        std::uint64_t stores = 0;      ///< Stores persisted so far.
    };
    static_assert(sizeof(BlockRecord) <= 72,
                  "a touched block's record is its content and count");

    /** An open residency: its block and the record when it opened. */
    struct OpenRow
    {
        Addr block = InvalidAddr;
        BlockRecord snapshot;
    };

    /** Open, or replace, the residency of @p block with @p snapshot. */
    void
    openResidency(Addr block, const BlockRecord &snapshot)
    {
        // Keep the index at most 1/8 full: drain-order erases walk long
        // probe clusters in a fuller one (x86-64: 60 ns an insert-erase
        // pair at 1/2 full, 18 ns at 1/8, with 32 rows open).
        if (8 * (_openRow.size() + 1) > _openRow.capacity())
            _openRow.reserve(6 * (_openRow.size() + 1));
        bool inserted = false;
        std::uint32_t &i = _openRow.findOrInsert(block, inserted);
        if (inserted) {
            if (_freeRows.empty()) {
                i = static_cast<std::uint32_t>(_open.size());
                _open.emplace_back();
            } else {
                i = _freeRows.back();
                _freeRows.pop_back();
            }
        }
        _open[i] = {block, snapshot};
    }

    /** The open residency's snapshot of @p addr's block, or nullptr. */
    const BlockRecord *
    snapshotOf(Addr addr) const
    {
        const std::uint32_t *i = _openRow.find(blockAlign(addr));
        return i ? &_open[*i].snapshot : nullptr;
    }

    PageTable<BlockRecord> _blocks;
    /**
     * The side table: a row per open residency and a block -> row index.
     * A closed row (block InvalidAddr) is reused first, so a page move
     * walks no more rows than were ever open at once.
     */
    std::vector<OpenRow> _open;
    std::vector<std::uint32_t> _freeRows;
    FlatMap<Addr, std::uint32_t> _openRow;
    std::uint64_t _numPersists = 0;
};

} // namespace secpb

#endif // SECPB_RECOVERY_ORACLE_HH

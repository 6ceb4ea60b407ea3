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

#include <cstdint>
#include <vector>

#include "mem/block_data.hh"
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
 * known. Each touched block owns one record: its content and store
 * count, plus a snapshot of both taken when the block's newest SecPB
 * residency opened. A bounded-battery crash can lose only that residency
 * (paper Section III), so the snapshot is the one old version recovery
 * ever needs, and memory grows with blocks, not with persists.
 */
class PersistOracle
{
  public:
    /**
     * Apply an accepted 64-bit store to the shadow state.
     * @param opens_residency the store allocates a SecPB entry: snapshot
     *        the block first, as the version an abandoned residency
     *        falls back to.
     * @return The block's content after the store.
     */
    const BlockData &
    applyStore(Addr addr, std::uint64_t value, bool opens_residency = false)
    {
        BlockRecord &r = _blocks[addr];
        if (opens_residency) {
            r.preContent = r.content;
            r.preStores = r.stores;
        }
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
     * @name Block versions
     * Bounded-battery crash drains can legitimately recover a block at an
     * *older* version: its content before the abandoned final residency.
     * Version v is the block after its first v stores. The oracle keeps
     * three: 0 (pristine), the current one, and the pre-residency
     * snapshot, which is all the verifier needs to decide whether a
     * recovered image is a persist-order-consistent prefix or silent
     * corruption.
     * @{
     */

    /** Number of stores ever persisted to the block containing @p addr. */
    std::uint64_t
    storeCount(Addr addr) const
    {
        const BlockRecord *r = _blocks.find(addr);
        return r ? r->stores : 0;
    }

    /** Store count of the block when its newest residency opened. */
    std::uint64_t
    preResidencyCount(Addr addr) const
    {
        const BlockRecord *r = _blocks.find(addr);
        return r ? r->preStores : 0;
    }

    /**
     * The version an abandoned residency of @p pending_writes coalesced
     * stores falls back to. Panics unless the residency is the one the
     * snapshot was taken for.
     */
    std::uint64_t
    abandonedVersion(Addr addr, std::uint64_t pending_writes) const
    {
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
        if (r && version == r->preStores)
            return r->preContent;
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
     * blockVersion). Version 0 means the block reverts to pristine
     * (untouched).
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
    }

    /** Drop the block entirely (it was never durable). */
    void
    forgetBlock(Addr addr)
    {
        _blocks.erase(addr);
    }
    /** @} */

    /**
     * Page migration (multi-core): move the record (content, count and
     * residency snapshot) of every block of page @p page_idx into
     * @p dst, with one row probe on each side. _numPersists stays put on
     * both sides -- each core's oracle counts the stores *it* accepted,
     * so per-core persist sums stay correct.
     */
    void
    movePageTo(PersistOracle &dst, std::uint64_t page_idx)
    {
        _blocks.movePageTo(dst._blocks, page_idx);
    }

  private:
    struct BlockRecord
    {
        BlockData content{};           ///< Last-persisted plaintext.
        std::uint64_t stores = 0;      ///< Stores persisted so far.
        BlockData preContent{};        ///< content when the residency opened.
        std::uint64_t preStores = 0;   ///< stores when the residency opened.
    };

    PageTable<BlockRecord> _blocks;
    std::uint64_t _numPersists = 0;
};

} // namespace secpb

#endif // SECPB_RECOVERY_ORACLE_HH

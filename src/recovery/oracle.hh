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

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "mem/block_data.hh"
#include "mem/flat_map.hh"
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
 * Every accepted store lands here, so a persist costs one FlatMap probe
 * and no allocation once the block is known. Each touched block owns one
 * record: its content and store count, plus a snapshot of both taken
 * when the block's newest SecPB residency opened. A bounded-battery
 * crash can lose only that residency (paper Section III), so the
 * snapshot is the one old version recovery ever needs, and memory grows
 * with blocks, not with persists. Records live in chunks that double up
 * to 1,024 records, so growth never copies the table and a long run
 * allocates rarely; a forgotten block's record is reused.
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
        BlockRecord &r = recordFor(blockAlign(addr));
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
        const BlockRecord *r = find(addr);
        return r ? r->stores : 0;
    }

    /** Store count of the block when its newest residency opened. */
    std::uint64_t
    preResidencyCount(Addr addr) const
    {
        const BlockRecord *r = find(addr);
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
        const BlockRecord *r = find(addr);
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
        const std::uint32_t *i = _index.find(blockAlign(addr));
        if (!i)
            return;
        BlockRecord &r = record(*i);
        r.content = blockVersion(addr, version);
        r.stores = version;
    }

    /** Drop the block entirely (it was never durable). */
    void
    forgetBlock(Addr addr)
    {
        std::uint32_t i;
        if (_index.take(blockAlign(addr), i))
            _freeRecords.push_back(i);
    }
    /** @} */

    /**
     * Page migration (multi-core): move the record (content, count and
     * residency snapshot) of every block in
     * [page_base, page_base + page_bytes) into @p dst, in ascending block
     * order, with one index probe per block on each side. _numPersists
     * stays put on both sides -- each core's oracle counts the stores
     * *it* accepted, so per-core persist sums stay correct.
     */
    void
    movePageTo(PersistOracle &dst, Addr page_base, std::uint64_t page_bytes)
    {
        panic_if(&dst == this, "oracle page moved onto itself");
        for (Addr a = page_base; a < page_base + page_bytes;
             a += BlockSize) {
            std::uint32_t i;
            if (!_index.take(a, i))
                continue;
            dst.recordFor(a) = record(i);
            _freeRecords.push_back(i);
        }
    }

  private:
    struct BlockRecord
    {
        BlockData content{};           ///< Last-persisted plaintext.
        std::uint64_t stores = 0;      ///< Stores persisted so far.
        BlockData preContent{};        ///< content when the residency opened.
        std::uint64_t preStores = 0;   ///< stores when the residency opened.
    };

    /**
     * Chunk c holds min(FirstChunk << c, MaxChunk) records and is
     * reserved whole when opened: a short run (a crash trial) reserves
     * at most twice the records it uses, and a long one adds MaxChunk
     * records at a time, so a reservation never wastes more than one
     * chunk.
     */
    static constexpr std::uint32_t FirstChunk = 64;
    static constexpr unsigned Doublings = 4;
    static constexpr std::uint32_t MaxChunk = FirstChunk << Doublings;
    /** Records in the chunks smaller than MaxChunk. */
    static constexpr std::uint32_t SmallRecords = MaxChunk - FirstChunk;

    static std::uint32_t
    chunkSize(std::size_t c)
    {
        return c < Doublings ? FirstChunk << c : MaxChunk;
    }

    const BlockRecord &
    record(std::uint32_t i) const
    {
        if (i < SmallRecords) {
            const unsigned c = std::bit_width(i / FirstChunk + 1) - 1;
            return _chunks[c][i - FirstChunk * ((1u << c) - 1)];
        }
        i -= SmallRecords;
        return _chunks[Doublings + i / MaxChunk][i % MaxChunk];
    }

    BlockRecord &
    record(std::uint32_t i)
    {
        return const_cast<BlockRecord &>(std::as_const(*this).record(i));
    }

    const BlockRecord *
    find(Addr addr) const
    {
        const std::uint32_t *i = _index.find(blockAlign(addr));
        return i ? &record(*i) : nullptr;
    }

    /** The record of @p block, made (pristine) on first touch. */
    BlockRecord &
    recordFor(Addr block)
    {
        bool fresh;
        std::uint32_t &idx = _index.findOrInsert(block, fresh);
        if (!fresh)
            return record(idx);
        if (_freeRecords.empty()) {
            const std::size_t n = _chunks.size();
            if (n == 0 || _chunks.back().size() == chunkSize(n - 1))
                _chunks.emplace_back().reserve(chunkSize(n));
            idx = _numRecords++;
            _chunks.back().emplace_back();
        } else {
            idx = _freeRecords.back();
            _freeRecords.pop_back();
            record(idx) = BlockRecord{};
        }
        return record(idx);
    }

    FlatMap<Addr, std::uint32_t> _index;  ///< block -> record index.
    std::vector<std::vector<BlockRecord>> _chunks;
    std::uint32_t _numRecords = 0;  ///< Records ever made (chunk fill).
    std::vector<std::uint32_t> _freeRecords;
    std::uint64_t _numPersists = 0;
};

} // namespace secpb

#endif // SECPB_RECOVERY_ORACLE_HH

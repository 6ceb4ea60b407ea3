/**
 * @file
 * Functional image of persistent memory.
 *
 * Everything that would survive power loss lives here: data ciphertext,
 * split-counter blocks, MACs. (BMT nodes are owned by BonsaiMerkleTree,
 * which is likewise treated as PM-resident; the root lives in an on-chip
 * battery-backed register.) A data block and its MAC persist together
 * (one tuple), so they share one record in a sparse page table
 * (mem/page_table.hh): a persist probes a table of pages, not one of
 * blocks, and a page migrates with one row probe per side. Counter
 * blocks, one per page, sit in their own small table. Tamper hooks let
 * integrity tests corrupt persisted state the way a physical attacker
 * would.
 */

#ifndef SECPB_MEM_PM_IMAGE_HH
#define SECPB_MEM_PM_IMAGE_HH

#include <cstdint>

#include "crypto/cipher.hh"
#include "crypto/counters.hh"
#include "mem/block_data.hh"
#include "mem/flat_map.hh"
#include "mem/page_table.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace secpb
{

/** Sparse functional state of the PM device. */
class PmImage
{
  public:
    /** Read the ciphertext of a data block (zero block if untouched). */
    BlockData
    readData(Addr block_addr) const
    {
        const Block *b = _blocks.find(block_addr);
        return b ? b->ciphertext : zeroBlock();
    }

    /** Persist the ciphertext of a data block. */
    void
    writeData(Addr block_addr, const BlockData &ciphertext)
    {
        _blocks[block_addr].ciphertext = ciphertext;
    }

    /** Persist a data block's ciphertext and MAC together (one probe). */
    void
    writeBlock(Addr block_addr, const BlockData &ciphertext, MacValue mac)
    {
        Block &b = _blocks[block_addr];
        b.ciphertext = ciphertext;
        b.mac = mac;
    }

    /** True if a data block has ever been persisted. */
    bool
    hasData(Addr block_addr) const
    {
        return _blocks.contains(block_addr);
    }

    /** Read the counter block for page @p page_idx (default if untouched). */
    CounterBlock
    readCounterBlock(std::uint64_t page_idx) const
    {
        const CounterBlock *cb = _counters.find(page_idx);
        return cb ? *cb : CounterBlock{};
    }

    /** Persist a counter block. */
    void
    writeCounterBlock(std::uint64_t page_idx, const CounterBlock &cb)
    {
        _counters[page_idx] = cb;
    }

    /** Read the stored MAC for a data block (0 if untouched). */
    MacValue
    readMac(Addr block_addr) const
    {
        const Block *b = _blocks.find(block_addr);
        return b ? b->mac : 0;
    }

    /** Number of distinct data blocks ever persisted. */
    std::size_t numDataBlocks() const { return _blocks.size(); }

    /**
     * All persisted data block addresses, sorted (recovery scans). The
     * sorted dump is the canonical order: recovery work is identical
     * regardless of the table's probe history.
     */
    std::vector<Addr>
    dataBlockAddrs() const
    {
        return _blocks.sortedBlocks();
    }

    /** All page indices with a persisted counter block, sorted. */
    std::vector<std::uint64_t>
    counterPages() const
    {
        return _counters.sortedKeys();
    }

    /**
     * Quarantine a data block (restore.hh): drop its ciphertext and MAC
     * so a detected-torn block reads as never-persisted instead of
     * lingering as corrupt state a later power cycle would trip over.
     */
    void
    eraseDataBlock(Addr block_addr)
    {
        _blocks.erase(block_addr);
    }

    /**
     * Page migration (multi-core): move page @p page_idx's data blocks,
     * each with its MAC (0 if it has none), and its counter block into
     * @p dst: one row probe per side.
     */
    void
    movePageTo(PmImage &dst, std::uint64_t page_idx)
    {
        panic_if(&dst == this, "PM page %llu moved onto itself",
                 static_cast<unsigned long long>(page_idx));
        _blocks.movePageTo(dst._blocks, page_idx);
        CounterBlock cb;
        if (_counters.take(page_idx, cb))
            dst._counters[page_idx] = cb;
    }

    /**
     * @name Tamper hooks (integrity tests)
     * These emulate a physical attacker flipping bits in the NVDIMM,
     * on blocks that have persisted (a MAC with no data is not state).
     * @{
     */
    void
    tamperData(Addr block_addr, unsigned byte, std::uint8_t xor_mask)
    {
        _blocks[block_addr].ciphertext[byte % BlockSize] ^= xor_mask;
    }

    void
    tamperCounter(std::uint64_t page_idx, unsigned minor_idx,
                  std::uint8_t xor_mask = 1)
    {
        CounterBlock cb = readCounterBlock(page_idx);
        cb.minors[minor_idx % BlocksPerPage] ^= xor_mask;
        _counters[page_idx] = cb;
    }

    void
    tamperMac(Addr block_addr, std::uint64_t xor_mask)
    {
        Block *b = _blocks.find(block_addr);
        panic_if(!b, "MAC tamper on block %#llx, which holds no data",
                 static_cast<unsigned long long>(blockAlign(block_addr)));
        b->mac ^= xor_mask;
    }
    /** @} */

  private:
    /** One persisted data block: its tuple's ciphertext and MAC. */
    struct Block
    {
        BlockData ciphertext{};
        MacValue mac = 0;  ///< 0 until a MAC persists (BBB writes none).
    };

    PageTable<Block> _blocks;
    FlatMap<std::uint64_t, CounterBlock> _counters;
};

} // namespace secpb

#endif // SECPB_MEM_PM_IMAGE_HH

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
 * integrity tests corrupt state the way a physical attacker would; the
 * only state they can make that a persist cannot, a MAC on a block with
 * no data, is kept aside.
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
        blockFor(block_addr).ciphertext = ciphertext;
    }

    /** Persist a data block's ciphertext and MAC together (one probe). */
    void
    writeBlock(Addr block_addr, const BlockData &ciphertext, MacValue mac)
    {
        Block &b = blockFor(block_addr);
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
        if (const Block *b = _blocks.find(block_addr))
            return b->mac;
        const MacValue *m = _loneMacs.find(blockAlign(block_addr));
        return m ? *m : 0;
    }

    /** Persist a MAC. */
    void
    writeMac(Addr block_addr, MacValue mac)
    {
        if (Block *b = _blocks.find(block_addr))
            b->mac = mac;
        else
            _loneMacs[blockAlign(block_addr)] = mac;
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
        _loneMacs.erase(blockAlign(block_addr));
    }

    /**
     * Page migration (multi-core): move page @p page_idx's data blocks,
     * each with its MAC (0 if it has none), and its counter block into
     * @p dst: one row probe per side. A MAC without a data block stays
     * behind.
     */
    void
    movePageTo(PmImage &dst, std::uint64_t page_idx)
    {
        panic_if(&dst == this, "PM page %llu moved onto itself",
                 static_cast<unsigned long long>(page_idx));
        if (!dst._loneMacs.empty()) {
            // A moved block's MAC replaces a lone one dst held for it.
            const Addr base = static_cast<Addr>(page_idx) * PageSize;
            for (Addr a = base; a < base + PageSize; a += BlockSize)
                if (_blocks.contains(a))
                    dst._loneMacs.erase(a);
        }
        _blocks.movePageTo(dst._blocks, page_idx);
        CounterBlock cb;
        if (_counters.take(page_idx, cb))
            dst._counters[page_idx] = cb;
    }

    /**
     * @name Tamper hooks (integrity tests)
     * These emulate a physical attacker flipping bits in the NVDIMM.
     * @{
     */
    void
    tamperData(Addr block_addr, unsigned byte, std::uint8_t xor_mask)
    {
        blockFor(block_addr).ciphertext[byte % BlockSize] ^= xor_mask;
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
        if (Block *b = _blocks.find(block_addr))
            b->mac ^= xor_mask;
        else
            _loneMacs[blockAlign(block_addr)] ^= xor_mask;
    }

    /**
     * Replay attack: roll a block's tuple (ciphertext, counter minor, MAC)
     * back to a previously captured version.
     */
    void
    replayTuple(Addr block_addr, const BlockData &old_ct,
                const CounterBlock &old_cb, MacValue old_mac,
                std::uint64_t page_idx)
    {
        writeData(block_addr, old_ct);
        writeCounterBlock(page_idx, old_cb);
        writeMac(block_addr, old_mac);
    }
    /** @} */

  private:
    /** One persisted data block: its tuple's ciphertext and MAC. */
    struct Block
    {
        BlockData ciphertext{};
        MacValue mac = 0;  ///< 0 until a MAC persists (BBB writes none).
    };

    /** @p block_addr's record, made on first touch; it adopts a lone MAC. */
    Block &
    blockFor(Addr block_addr)
    {
        bool fresh;
        Block &b = _blocks.findOrInsert(block_addr, fresh);
        if (fresh && !_loneMacs.empty())
            _loneMacs.take(blockAlign(block_addr), b.mac);
        return b;
    }

    PageTable<Block> _blocks;
    FlatMap<std::uint64_t, CounterBlock> _counters;
    /** MACs of blocks with no data: tests and tamper hooks make them, a
     *  persist never does (it writes the data first). */
    FlatMap<Addr, MacValue> _loneMacs;
};

} // namespace secpb

#endif // SECPB_MEM_PM_IMAGE_HH

/**
 * @file
 * Authoritative functional state of the split counters.
 *
 * This is the merged view of counters held anywhere on-chip (counter cache,
 * SecPB entries) plus PM: the value an increment operates on. Persistence
 * of a counter block into the PM image happens separately, when the block
 * is drained through the WPQ (or by battery after a crash).
 */

#ifndef SECPB_METADATA_COUNTER_STORE_HH
#define SECPB_METADATA_COUNTER_STORE_HH

#include <cstdint>

#include "crypto/counters.hh"
#include "mem/flat_map.hh"
#include "metadata/layout.hh"

namespace secpb
{

/** Result of a counter increment. */
struct CounterIncrement
{
    BlockCounter counter;    ///< The fresh (post-increment) counter.
    bool overflowed;         ///< Minor overflow: page re-encryption needed.
    CounterBlock oldBlock;   ///< Pre-increment block (for re-encryption).
};

/** Functional working copy of every touched counter block. */
class CounterStore
{
  public:
    explicit CounterStore(const MetadataLayout &layout) : _layout(layout) {}

    /**
     * Current counter block for page @p page_idx.
     *
     * The reference points into the open-addressing table: any mutation
     * of the store (increment of ANY page, setBlock) may grow or
     * back-shift the table and invalidate it. Copy the block before
     * calling back into anything that can touch counters.
     */
    const CounterBlock &
    block(std::uint64_t page_idx) const
    {
        static const CounterBlock zero{};
        const CounterBlock *cb = _blocks.find(page_idx);
        return cb ? *cb : zero;
    }

    /** Current (major, minor) counter for the block at @p data_addr. */
    BlockCounter
    counterFor(Addr data_addr) const
    {
        return block(_layout.pageIndex(data_addr))
            .counterFor(_layout.blockInPage(data_addr));
    }

    /**
     * Increment the minor counter for @p data_addr.
     * On minor overflow the block's major is bumped and all minors reset;
     * the caller must re-encrypt the page using the returned old block.
     */
    CounterIncrement
    increment(Addr data_addr)
    {
        const std::uint64_t page = _layout.pageIndex(data_addr);
        CounterBlock &cb = _blocks[page];
        CounterIncrement result;
        result.oldBlock = cb;
        result.overflowed = cb.increment(_layout.blockInPage(data_addr));
        result.counter = cb.counterFor(_layout.blockInPage(data_addr));
        return result;
    }

    /** Number of touched counter blocks. */
    std::size_t numTouched() const { return _blocks.size(); }

    /**
     * Install a counter block wholesale (power-cycle restore: the
     * working copy is volatile and reboots cold, so recovery reloads it
     * from the PM image's persisted counter blocks).
     */
    void
    setBlock(std::uint64_t page_idx, const CounterBlock &cb)
    {
        _blocks[page_idx] = cb;
    }

    /** True if the page's counter block was ever touched. */
    bool hasBlock(std::uint64_t page_idx) const
    {
        return _blocks.contains(page_idx);
    }

    /** Drop a page's working counter block (page migration: the block
     *  moves wholesale to the destination core's store). */
    void erase(std::uint64_t page_idx) { _blocks.erase(page_idx); }

  private:
    const MetadataLayout &_layout;
    FlatMap<std::uint64_t, CounterBlock> _blocks;
};

} // namespace secpb

#endif // SECPB_METADATA_COUNTER_STORE_HH

/**
 * @file
 * Sparse page-grained table of per-block records.
 *
 * Persistent state comes in pages: one counter block covers a 4 KB page
 * and each of the page's 64 blocks carries its own record (ciphertext
 * and MAC in the PM image, plaintext history in the persist oracle). A
 * table keyed by block scatters one page's blocks over a table 64 times
 * larger than one keyed by page, so PageTable keys rows by page: a row
 * is a presence mask plus the record index of each present block. A
 * block lookup probes the small page table, and a page moves to another
 * table with one row probe on each side.
 *
 * Pages stay sparse: stores cluster in some workloads (54 blocks a page
 * in a long gamess run) and scatter in others (1.4 in a short mcf run).
 * A row keeps up to Inline indices in itself, in block order, so a
 * sparse page costs a 40-byte row slot and its records; a denser page
 * moves its indices to a 64-entry index block, one slot per block.
 *
 * Records live in chunks that double from 64 to 1,024 records and are
 * reserved whole when opened, so growth never copies a record, a short
 * run reserves at most twice the records it uses, and a long run
 * allocates once per 1,024 new blocks. A dropped block's record is
 * reused. Nothing is allocated before the first insert.
 *
 * Like FlatMap's, a record reference is invalidated by any mutation of
 * the table: do not hold one across an insert or a drop.
 */

#ifndef SECPB_MEM_PAGE_TABLE_HH
#define SECPB_MEM_PAGE_TABLE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/counters.hh"
#include "mem/flat_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace secpb
{

/** Per-block records of type @p Record, grouped by page. */
template <typename Record>
class PageTable
{
  public:
    /** Number of blocks with a record. */
    std::size_t size() const { return _size; }

    /** Record of the block holding @p addr, or nullptr. */
    const Record *
    find(Addr addr) const
    {
        const Row *row = _rows.find(pageOf(addr));
        if (!row || !(row->mask & bitOf(addr)))
            return nullptr;
        return &record(indexOf(*row, slotOf(addr)));
    }

    Record *
    find(Addr addr)
    {
        return const_cast<Record *>(std::as_const(*this).find(addr));
    }

    bool contains(Addr addr) const { return find(addr) != nullptr; }

    /**
     * The record of the block holding @p addr, value-initialised and
     * inserted if absent; @p inserted says which. One row probe.
     */
    Record &
    findOrInsert(Addr addr, bool &inserted)
    {
        bool fresh_row;
        Row &row = _rows.findOrInsert(pageOf(addr), fresh_row);
        const unsigned slot = slotOf(addr);
        inserted = !(row.mask & bitOf(addr));
        if (inserted) {
            addIndex(row, slot, newRecord(Record{}));
            ++_size;
        }
        return record(indexOf(row, slot));
    }

    /** Insert-or-find, like FlatMap::operator[]. */
    Record &
    operator[](Addr addr)
    {
        bool inserted;
        return findOrInsert(addr, inserted);
    }

    /** Drop the block holding @p addr; false if it had no record. */
    bool
    erase(Addr addr)
    {
        Row *row = _rows.find(pageOf(addr));
        if (!row || !(row->mask & bitOf(addr)))
            return false;
        _free.push_back(dropIndex(*row, slotOf(addr)));
        --_size;
        if (row->mask == 0)
            _rows.erase(pageOf(addr));
        return true;
    }

    /**
     * Move every record of page @p page into @p dst (replacing any
     * record dst already holds for the same block): one row probe on
     * each side, then a walk of the page's mask in ascending block
     * order.
     */
    void
    movePageTo(PageTable &dst, std::uint64_t page)
    {
        panic_if(&dst == this, "page %llu moved onto its own table",
                 static_cast<unsigned long long>(page));
        Row from;
        if (!_rows.take(page, from))
            return;
        bool fresh_row;
        Row &to = dst._rows.findOrInsert(page, fresh_row);
        for (std::uint64_t m = from.mask; m != 0; m &= m - 1) {
            const unsigned slot = std::countr_zero(m);
            const std::uint32_t i = indexOf(from, slot);
            if (to.mask & (std::uint64_t{1} << slot)) {
                dst.record(dst.indexOf(to, slot)) = record(i);
            } else {
                dst.addIndex(to, slot, dst.newRecord(record(i)));
                ++dst._size;
            }
            _free.push_back(i);
        }
        if (wide(from))
            _freeWide.push_back(from.idx[0]);
        _size -= static_cast<std::size_t>(std::popcount(from.mask));
    }

    /**
     * Visit every block as f(block_addr, record) in row order: pages in
     * the row table's slot order (a pure function of the history, like
     * FlatMap::forEach), blocks ascending within a page. The table must
     * not be mutated from inside @p f.
     */
    template <typename F>
    void
    forEach(F &&f) const
    {
        _rows.forEach([&](const std::uint64_t &page, const Row &row) {
            const Addr base = static_cast<Addr>(page) * PageSize;
            for (std::uint64_t m = row.mask; m != 0; m &= m - 1) {
                const unsigned slot = std::countr_zero(m);
                f(base + slot * BlockSize, record(indexOf(row, slot)));
            }
        });
    }

    /** Every block address, sorted -- the canonical dump order. */
    std::vector<Addr>
    sortedBlocks() const
    {
        std::vector<Addr> out;
        out.reserve(_size);
        forEach([&](Addr block, const Record &) { out.push_back(block); });
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    static_assert(BlocksPerPage == 64, "one mask bit per block");

    /** Pages with more blocks than this keep an index block. */
    static constexpr unsigned Inline = 6;

    struct Row
    {
        std::uint64_t mask = 0;  ///< Blocks with a record.
        /**
         * Up to Inline blocks: their record indices, in block order.
         * More: idx[0] is the page's index block in _wide.
         */
        std::uint32_t idx[Inline] = {};
    };

    static bool
    wide(const Row &row)
    {
        return std::popcount(row.mask) > static_cast<int>(Inline);
    }

    /** Record index of present block @p slot of @p row. */
    std::uint32_t
    indexOf(const Row &row, unsigned slot) const
    {
        if (wide(row))
            return _wide[row.idx[0]][slot];
        const std::uint64_t below = (std::uint64_t{1} << slot) - 1;
        return row.idx[std::popcount(row.mask & below)];
    }

    /** Give absent block @p slot of @p row record index @p i. */
    void
    addIndex(Row &row, unsigned slot, std::uint32_t i)
    {
        const std::uint64_t bit = std::uint64_t{1} << slot;
        const unsigned n = static_cast<unsigned>(std::popcount(row.mask));
        if (n < Inline) {
            const unsigned k =
                static_cast<unsigned>(std::popcount(row.mask & (bit - 1)));
            std::copy_backward(row.idx + k, row.idx + n, row.idx + n + 1);
            row.idx[k] = i;
        } else {
            if (n == Inline) {
                // The page outgrows its row: scatter into an index block.
                std::uint32_t w;
                if (_freeWide.empty()) {
                    w = static_cast<std::uint32_t>(_wide.size());
                    _wide.emplace_back();
                } else {
                    w = _freeWide.back();
                    _freeWide.pop_back();
                }
                const std::uint32_t *in = row.idx;
                for (std::uint64_t m = row.mask; m != 0; m &= m - 1)
                    _wide[w][std::countr_zero(m)] = *in++;
                row.idx[0] = w;
            }
            _wide[row.idx[0]][slot] = i;
        }
        row.mask |= bit;
    }

    /** Drop present block @p slot from @p row; returns its index. */
    std::uint32_t
    dropIndex(Row &row, unsigned slot)
    {
        const std::uint64_t bit = std::uint64_t{1} << slot;
        const unsigned n = static_cast<unsigned>(std::popcount(row.mask));
        row.mask &= ~bit;
        if (n <= Inline) {
            const unsigned k =
                static_cast<unsigned>(std::popcount(row.mask & (bit - 1)));
            const std::uint32_t i = row.idx[k];
            std::copy(row.idx + k + 1, row.idx + n, row.idx + k);
            return i;
        }
        const std::uint32_t w = row.idx[0];
        const std::uint32_t i = _wide[w][slot];
        if (n - 1 == Inline) {
            // Back to fitting in the row.
            std::uint32_t *out = row.idx;
            for (std::uint64_t m = row.mask; m != 0; m &= m - 1)
                *out++ = _wide[w][std::countr_zero(m)];
            _freeWide.push_back(w);
        }
        return i;
    }

    static std::uint64_t pageOf(Addr addr) { return addr / PageSize; }
    static unsigned slotOf(Addr addr)
    {
        return static_cast<unsigned>(addr % PageSize / BlockSize);
    }
    static std::uint64_t bitOf(Addr addr)
    {
        return std::uint64_t{1} << slotOf(addr);
    }

    /**
     * Chunk c holds min(FirstChunk << c, MaxChunk) records and is
     * reserved whole when opened: a reservation never wastes more than
     * one chunk.
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

    const Record &
    record(std::uint32_t i) const
    {
        if (i < SmallRecords) {
            const unsigned c = std::bit_width(i / FirstChunk + 1) - 1;
            return _chunks[c][i - FirstChunk * ((1u << c) - 1)];
        }
        i -= SmallRecords;
        return _chunks[Doublings + i / MaxChunk][i % MaxChunk];
    }

    Record &
    record(std::uint32_t i)
    {
        return const_cast<Record &>(std::as_const(*this).record(i));
    }

    /** A record holding @p init: a reused one, else the next made. */
    std::uint32_t
    newRecord(const Record &init)
    {
        if (!_free.empty()) {
            const std::uint32_t i = _free.back();
            _free.pop_back();
            record(i) = init;
            return i;
        }
        const std::size_t n = _chunks.size();
        if (n == 0 || _chunks.back().size() == chunkSize(n - 1))
            _chunks.emplace_back().reserve(chunkSize(n));
        _chunks.back().push_back(init);
        return _numRecords++;
    }

    FlatMap<std::uint64_t, Row> _rows;  ///< page -> its blocks' records.
    /** Index blocks of the pages too dense for their row, by slot. */
    std::vector<std::array<std::uint32_t, BlocksPerPage>> _wide;
    std::vector<std::uint32_t> _freeWide;
    std::vector<std::vector<Record>> _chunks;
    std::uint32_t _numRecords = 0;  ///< Records ever made (chunk fill).
    std::vector<std::uint32_t> _free;
    std::size_t _size = 0;
};

} // namespace secpb

#endif // SECPB_MEM_PAGE_TABLE_HH

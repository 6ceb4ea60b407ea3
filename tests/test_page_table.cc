/**
 * @file
 * Unit tests for the sparse page table (mem/page_table.hh) under the PM
 * image and the persist oracle: a seeded random mix of inserts, finds,
 * drops, record reuse, page moves and copies against a std::map model,
 * over blocks that sit on page edges (address 0, the last block of a
 * page, the first block of the next).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "mem/page_table.hh"
#include "sim/rng.hh"

using namespace secpb;

namespace
{

struct Rec
{
    std::uint64_t value = 0;
    std::uint64_t tag = 0;

    bool operator==(const Rec &) const = default;
};

using Model = std::map<Addr, Rec>;

/** The addresses the mix draws from: page edges first, then a spread. */
std::vector<Addr>
addressPool()
{
    std::vector<Addr> pool = {0,
                              PageSize - BlockSize,
                              PageSize,
                              2 * PageSize - BlockSize,
                              2 * PageSize,
                              (Addr{1} << 40) - BlockSize,
                              Addr{1} << 40};
    // 40 pages x 64 blocks: enough live records to cross every chunk
    // size (64 doubling to 1,024) and open several full chunks.
    for (Addr page = 3; page < 43; ++page)
        for (unsigned b = 0; b < BlocksPerPage; ++b)
            pool.push_back(page * PageSize + b * BlockSize);
    return pool;
}

/** Everything a reader can see of @p t matches @p m. */
void
expectMatches(const PageTable<Rec> &t, const Model &m,
              const std::vector<Addr> &pool)
{
    ASSERT_EQ(t.size(), m.size());
    for (Addr a : pool) {
        const auto it = m.find(a);
        const Rec *r = t.find(a + 8);  // any address inside the block
        ASSERT_EQ(r != nullptr, it != m.end()) << a;
        ASSERT_EQ(t.contains(a), it != m.end()) << a;
        if (r) {
            ASSERT_EQ(*r, it->second) << a;
        }
    }
    // forEach visits each block once, ascending within its page.
    Model seen;
    Addr last = 0;
    bool first = true;
    t.forEach([&](Addr a, const Rec &r) {
        EXPECT_EQ(a % BlockSize, 0u);
        if (!first && a / PageSize == last / PageSize) {
            EXPECT_GT(a, last);
        }
        first = false;
        last = a;
        EXPECT_TRUE(seen.emplace(a, r).second) << "visited twice: " << a;
    });
    ASSERT_EQ(seen, m);
    std::vector<Addr> keys;
    for (const auto &[a, r] : m)
        keys.push_back(a);
    ASSERT_EQ(t.sortedBlocks(), keys);
}

} // namespace

TEST(PageTable, MatchesAMapModelUnderRandomOps)
{
    const std::vector<Addr> pool = addressPool();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        PageTable<Rec> t[2];
        Model m[2];
        std::uint64_t next_value = 1;
        for (int op = 0; op < 12'000; ++op) {
            // Grow for the first half, then drain: record reuse and row
            // drops get as much exercise as fresh inserts.
            const double grow = op < 6'000 ? 0.7 : 0.3;
            const unsigned side = static_cast<unsigned>(rng.below(2));
            PageTable<Rec> &tt = t[side];
            Model &mm = m[side];
            const Addr a = pool[rng.below(pool.size())];
            const std::uint64_t kind = rng.below(100);
            if (kind < 60 * grow + 10) {
                bool inserted;
                Rec &r = tt.findOrInsert(a + rng.below(8) * 8, inserted);
                ASSERT_EQ(inserted, !mm.count(a));
                if (inserted) {
                    ASSERT_EQ(r, Rec{}) << "a reused record starts pristine";
                }
                r.value = next_value++;
                r.tag = seed;
                mm[a] = r;
            } else if (kind < 90) {
                ASSERT_EQ(tt.erase(a + rng.below(8) * 8), mm.erase(a) == 1);
            } else if (kind < 98) {
                // Move a's page to the other table; its records replace
                // any the destination holds for the same blocks.
                const std::uint64_t page = a / PageSize;
                tt.movePageTo(t[1 - side], page);
                for (auto it = mm.lower_bound(page * PageSize);
                     it != mm.end() && it->first / PageSize == page;)
                {
                    m[1 - side][it->first] = it->second;
                    it = mm.erase(it);
                }
            } else {
                // Copy, then carry on with the copy; the source must not
                // see the copy's later changes (nor the other way round).
                PageTable<Rec> copy = tt;
                Model copied = mm;
                bool inserted;
                copy.findOrInsert(a, inserted).value = next_value;
                copied[a].value = next_value++;
                const Addr b = pool[rng.below(pool.size())];
                copy.erase(b);
                copied.erase(b);
                expectMatches(tt, mm, pool);
                tt.findOrInsert(a, inserted).tag = 7;
                expectMatches(copy, copied, pool);
                tt = copy;
                mm = copied;
            }
            if (op % 500 == 0 || op > 11'900) {
                expectMatches(t[0], m[0], pool);
                expectMatches(t[1], m[1], pool);
            }
        }
        expectMatches(t[0], m[0], pool);
        expectMatches(t[1], m[1], pool);
    }
}

TEST(PageTable, PagesFillAndDrainThroughTheIndexBlock)
{
    // One page filled to all 64 blocks and drained again, in scrambled
    // orders, moving to another table and back at every size: a row
    // keeps a few indices in itself and the rest in an index block, and
    // each size on either side of that switch must read back exactly.
    std::vector<Addr> pool;
    for (unsigned b = 0; b < BlocksPerPage; ++b)
        pool.push_back(5 * PageSize + b * BlockSize);
    std::vector<Addr> order = pool;
    Rng rng(3);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    PageTable<Rec> t, u;
    Model m;
    const auto there_and_back = [&] {
        t.movePageTo(u, 5);
        expectMatches(u, m, pool);
        expectMatches(t, Model{}, pool);
        u.movePageTo(t, 5);
        expectMatches(t, m, pool);
    };
    for (Addr a : order) {
        t[a].value = a + 1;
        m[a].value = a + 1;
        expectMatches(t, m, pool);
        there_and_back();
    }
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    for (Addr a : order) {
        ASSERT_TRUE(t.erase(a));
        m.erase(a);
        expectMatches(t, m, pool);
        there_and_back();
    }
}

TEST(PageTable, EdgeBlocksLandInTheirOwnPages)
{
    PageTable<Rec> t;
    t[0].value = 1;
    t[PageSize - BlockSize].value = 2;
    t[PageSize].value = 3;
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.sortedBlocks(),
              (std::vector<Addr>{0, PageSize - BlockSize, PageSize}));

    // Page 0 moves whole; page 1 stays.
    PageTable<Rec> u;
    t.movePageTo(u, 0);
    EXPECT_EQ(t.sortedBlocks(), (std::vector<Addr>{PageSize}));
    EXPECT_EQ(u.sortedBlocks(),
              (std::vector<Addr>{0, PageSize - BlockSize}));
    EXPECT_EQ(u.find(PageSize - 1)->value, 2u);
    EXPECT_EQ(t.find(PageSize)->value, 3u);

    // A page with nothing in it moves nothing and makes no row.
    t.movePageTo(u, 5);
    EXPECT_EQ(u.size(), 2u);
    EXPECT_FALSE(u.contains(5 * PageSize));
}

TEST(PageTableDeath, MovingAPageOntoItsOwnTablePanics)
{
    PageTable<Rec> t;
    t[0].value = 1;
    EXPECT_DEATH(t.movePageTo(t, 0), "moved onto its own table");
}

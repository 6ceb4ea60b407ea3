/**
 * @file
 * Unit tests for the open-addressing FlatMap/FlatSet (mem/flat_map.hh)
 * that back the simulator's hot tables. The probing, backward-shift
 * deletion, and growth mechanics are exercised directly -- including a
 * degenerate all-collide hash that forces wraparound clusters at the end
 * of the slot array -- plus the determinism contract the fixed-seed
 * byte-identity tests rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/flat_map.hh"

using namespace secpb;

namespace
{

/** Degenerate hash: every key targets the LAST slot, so probe clusters
 *  always wrap around the end of the power-of-two array. */
struct ColliderHash
{
    constexpr std::uint64_t
    operator()(std::uint64_t) const
    {
        return ~0ULL;
    }
};

} // namespace

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(42), nullptr);
    EXPECT_FALSE(m.erase(42));

    EXPECT_TRUE(m.insert(42, 7));
    EXPECT_FALSE(m.insert(42, 9));  // duplicate: keeps the first value
    ASSERT_NE(m.find(42), nullptr);
    EXPECT_EQ(*m.find(42), 7);
    EXPECT_TRUE(m.contains(42));
    EXPECT_EQ(m.size(), 1u);

    *m.find(42) = 11;
    EXPECT_EQ(*m.find(42), 11);

    EXPECT_TRUE(m.erase(42));
    EXPECT_FALSE(m.contains(42));
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, SubscriptDefaultConstructs)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    EXPECT_EQ(m[5], 0u);
    m[5] = 99;
    EXPECT_EQ(m[5], 99u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, ProbeClusterWrapsAroundArrayEnd)
{
    // All keys hash to the last slot: key0 lands there, every later key
    // wraps to the front of the array. find() must follow the wrapped
    // cluster and erase() must backward-shift across the boundary.
    FlatMap<std::uint64_t, std::uint64_t, ColliderHash> m;
    for (std::uint64_t k = 0; k < 8; ++k)
        ASSERT_TRUE(m.insert(k, k * 10));
    for (std::uint64_t k = 0; k < 8; ++k) {
        ASSERT_NE(m.find(k), nullptr) << "key " << k;
        EXPECT_EQ(*m.find(k), k * 10);
    }

    // Erase from the middle of the wrapped cluster; everything else must
    // remain findable (backward-shift, no tombstones).
    EXPECT_TRUE(m.erase(3));
    EXPECT_EQ(m.find(3), nullptr);
    for (std::uint64_t k = 0; k < 8; ++k) {
        if (k == 3)
            continue;
        ASSERT_NE(m.find(k), nullptr) << "key " << k << " lost after erase";
        EXPECT_EQ(*m.find(k), k * 10);
    }

    // Erase the head of the cluster (the only key at its ideal slot).
    EXPECT_TRUE(m.erase(0));
    for (std::uint64_t k : {1u, 2u, 4u, 5u, 6u, 7u})
        EXPECT_TRUE(m.contains(k)) << "key " << k;
    EXPECT_EQ(m.size(), 6u);
}

TEST(FlatMap, GrowsAtThreeQuarterLoadWithPowerOfTwoCapacity)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_EQ(m.capacity(), 0u);
    m.insert(0, 0);
    EXPECT_EQ(m.capacity(), 16u);

    // 12/16 = 3/4 exactly still fits; the 13th insert must double.
    for (std::uint64_t k = 1; k < 12; ++k)
        m.insert(k, 0);
    EXPECT_EQ(m.capacity(), 16u);
    m.insert(12, 0);
    EXPECT_EQ(m.capacity(), 32u);

    // Nothing lost across the rehash.
    for (std::uint64_t k = 0; k < 13; ++k)
        EXPECT_TRUE(m.contains(k)) << "key " << k;

    for (std::uint64_t k = 13; k < 1000; ++k)
        m.insert(k, static_cast<int>(k));
    EXPECT_EQ(m.size(), 1000u);
    EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u) << "not a power of two";
    for (std::uint64_t k = 0; k < 1000; ++k)
        ASSERT_TRUE(m.contains(k)) << "key " << k;
}

TEST(FlatMap, ReservePreventsGrowth)
{
    FlatMap<std::uint64_t, int> m;
    m.reserve(100);
    const std::size_t cap = m.capacity();
    EXPECT_GE(cap * 3, 100u * 4);  // 100 entries fit under 3/4 load
    for (std::uint64_t k = 0; k < 100; ++k)
        m.insert(k, 0);
    EXPECT_EQ(m.capacity(), cap) << "reserve() should pre-size the table";

    // reserve() never shrinks.
    m.reserve(10);
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, ClearRetainsCapacity)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 50; ++k)
        m.insert(k, 1);
    const std::size_t cap = m.capacity();
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_TRUE(m.insert(7, 2));
    EXPECT_EQ(*m.find(7), 2);
}

TEST(FlatMap, ForEachVisitsEveryEntryExactlyOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::uint64_t expect_sum = 0;
    for (std::uint64_t k = 0; k < 200; ++k) {
        m.insert(k * 3, k);
        expect_sum += k;
    }
    std::uint64_t sum = 0;
    std::size_t visits = 0;
    m.forEach([&](std::uint64_t k, std::uint64_t v) {
        EXPECT_EQ(k, v * 3);
        sum += v;
        ++visits;
    });
    EXPECT_EQ(visits, m.size());
    EXPECT_EQ(sum, expect_sum);
}

TEST(FlatMap, SortedKeysIsSortedAndComplete)
{
    FlatMap<std::uint64_t, int> m;
    // Insert in a scrambled order; the canonical dump must come out
    // sorted regardless of slot layout.
    for (std::uint64_t k : {9u, 1u, 27u, 4u, 0u, 100u, 55u, 3u})
        m.insert(k, 0);
    m.erase(4);
    const std::vector<std::uint64_t> keys = m.sortedKeys();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(keys, (std::vector<std::uint64_t>{0, 1, 3, 9, 27, 55, 100}));
}

TEST(FlatMap, IterationOrderIsAPureFunctionOfHistory)
{
    // Two tables built by the same insert/erase history must iterate
    // identically -- this is the determinism contract the fixed-seed
    // byte-identity tests lean on.
    auto build = [] {
        FlatMap<std::uint64_t, std::uint64_t> m;
        std::uint64_t x = 12345;
        for (int i = 0; i < 300; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            m.insert(x >> 32, static_cast<std::uint64_t>(i));
            if (i % 3 == 0)
                m.erase((x >> 32) ^ 1);
        }
        return m;
    };
    FlatMap<std::uint64_t, std::uint64_t> a = build();
    FlatMap<std::uint64_t, std::uint64_t> b = build();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> va, vb;
    a.forEach([&](std::uint64_t k, std::uint64_t v) {
        va.emplace_back(k, v);
    });
    b.forEach([&](std::uint64_t k, std::uint64_t v) {
        vb.emplace_back(k, v);
    });
    EXPECT_EQ(va, vb);
    EXPECT_EQ(a.sortedKeys(), b.sortedKeys());
}

TEST(FlatMap, RandomizedAgainstReferenceModel)
{
    // Drive the map and a trivially-correct model with the same pseudo
    // random op stream; they must agree at every step. Catches probe or
    // backward-shift bugs no hand-picked case anticipates.
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> model;
    auto model_find = [&](std::uint64_t k) -> std::uint64_t * {
        for (auto &[mk, mv] : model)
            if (mk == k)
                return &mv;
        return nullptr;
    };
    std::uint64_t x = 99;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t key = (x >> 33) % 257;  // force collisions
        const std::uint64_t op = (x >> 20) % 3;
        if (op == 0) {
            const bool inserted = m.insert(key, i);
            EXPECT_EQ(inserted, model_find(key) == nullptr);
            if (inserted)
                model.emplace_back(key, i);
        } else if (op == 1) {
            const bool erased = m.erase(key);
            EXPECT_EQ(erased, model_find(key) != nullptr);
            if (erased)
                model.erase(std::find_if(model.begin(), model.end(),
                                         [&](const auto &p) {
                                             return p.first == key;
                                         }));
        } else {
            const std::uint64_t *v = m.find(key);
            const std::uint64_t *mv = model_find(key);
            ASSERT_EQ(v == nullptr, mv == nullptr) << "key " << key;
            if (v) {
                EXPECT_EQ(*v, *mv);
            }
        }
        ASSERT_EQ(m.size(), model.size());
    }
}

TEST(FlatMap, OneProbeOpsLeaveTheTableAsTheirTwoProbePairs)
{
    // findOrInsert() must end as find() then (on a miss) insert() would,
    // and take() as find() then erase(): same contents, same capacity,
    // same slot order -- the order touchedBlocks() and fault lists
    // follow. A hit at the growth threshold must not grow the table.
    FlatMap<std::uint64_t, std::uint64_t, ColliderHash> one, two;
    std::uint64_t x = 7;
    for (int i = 0; i < 3000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t key = (x >> 33) % 97;
        if ((x >> 20) % 2 == 0) {
            bool inserted;
            std::uint64_t &v = one.findOrInsert(key, inserted);
            if (inserted)
                v = i;
            const bool missed = two.find(key) == nullptr;
            EXPECT_EQ(inserted, missed);
            if (missed)
                two.insert(key, i);
        } else {
            std::uint64_t got = ~0ULL;
            const std::uint64_t *want = two.find(key);
            const std::uint64_t expect = want ? *want : ~0ULL;
            EXPECT_EQ(one.take(key, got), two.erase(key));
            EXPECT_EQ(got, expect);
        }
        ASSERT_EQ(one.capacity(), two.capacity()) << "op " << i;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> v1, v2;
        one.forEach([&](std::uint64_t k, std::uint64_t v) {
            v1.emplace_back(k, v);
        });
        two.forEach([&](std::uint64_t k, std::uint64_t v) {
            v2.emplace_back(k, v);
        });
        ASSERT_EQ(v1, v2) << "op " << i;
    }
}

TEST(FlatSet, BasicsAndWraparound)
{
    FlatSet<std::uint64_t> s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(1), 0u);
    EXPECT_TRUE(s.insert(1));
    EXPECT_FALSE(s.insert(1));
    EXPECT_EQ(s.count(1), 1u);
    EXPECT_TRUE(s.contains(1));
    EXPECT_TRUE(s.erase(1));
    EXPECT_FALSE(s.erase(1));
    EXPECT_TRUE(s.empty());

    FlatSet<std::uint64_t, ColliderHash> c;
    for (std::uint64_t k = 0; k < 10; ++k)
        c.insert(k);
    c.erase(5);
    for (std::uint64_t k = 0; k < 10; ++k)
        EXPECT_EQ(c.contains(k), k != 5) << "key " << k;
    std::size_t visited = 0;
    c.forEach([&](std::uint64_t) { ++visited; });
    EXPECT_EQ(visited, 9u);
    EXPECT_EQ(c.sortedKeys(),
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 6, 7, 8, 9}));
}

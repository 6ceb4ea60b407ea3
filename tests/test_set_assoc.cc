/**
 * @file
 * Unit tests for the set-associative tag store.
 */

#include <gtest/gtest.h>

#include "mem/set_assoc.hh"

using namespace secpb;

namespace
{

CacheGeometry
tinyGeom()
{
    // 4 sets x 2 ways x 64B = 512B.
    return CacheGeometry{512, 2, 64};
}

} // namespace

TEST(SetAssoc, MissThenHit)
{
    SetAssocCache c(tinyGeom());
    EXPECT_FALSE(c.access(0x100));
    c.insert(0x100);
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13f));  // same block, different byte
}

TEST(SetAssoc, GeometryComputesSets)
{
    EXPECT_EQ(SetAssocCache(tinyGeom()).numSets(), 4u);
    EXPECT_EQ(SetAssocCache(CacheGeometry{128 * 1024, 8, 64}).numSets(),
              256u);
}

TEST(SetAssoc, LruEvictsLeastRecentlyUsed)
{
    SetAssocCache c(tinyGeom());
    // Set index = (addr/64) % 4. Addresses 0, 0x400, 0x800 share set 0.
    c.insert(0x000);
    c.insert(0x400);
    c.access(0x000);  // make 0x400 the LRU way
    auto victim = c.insert(0x800);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x400u);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x400));
}

TEST(SetAssoc, InsertReportsVictimDirtiness)
{
    SetAssocCache c(tinyGeom());
    c.insert(0x000);
    c.insert(0x400);
    c.markDirty(0x000);
    c.access(0x400);  // 0x000 becomes LRU
    auto victim = c.insert(0x800);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x000u);
    EXPECT_TRUE(victim->dirty);
}

TEST(SetAssoc, DoubleInsertIsIdempotent)
{
    SetAssocCache c(tinyGeom());
    c.insert(0x100);
    EXPECT_FALSE(c.insert(0x100).has_value());
    EXPECT_EQ(c.numValid(), 1u);
}

TEST(SetAssoc, InvalidateRemoves)
{
    SetAssocCache c(tinyGeom());
    c.insert(0x100);
    EXPECT_TRUE(c.invalidate(0x100));
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_FALSE(c.invalidate(0x100));
}

TEST(SetAssoc, DirtyTracking)
{
    SetAssocCache c(tinyGeom());
    c.insert(0x100);
    EXPECT_FALSE(c.isDirty(0x100));
    EXPECT_TRUE(c.markDirty(0x100));
    EXPECT_TRUE(c.isDirty(0x100));
    EXPECT_FALSE(c.markDirty(0x980));  // not present
}

TEST(SetAssoc, ResidentBlocksFilterDirty)
{
    SetAssocCache c(tinyGeom());
    c.insert(0x000);
    c.insert(0x040);
    c.markDirty(0x040);
    EXPECT_EQ(c.residentBlocks(false).size(), 2u);
    const auto dirty = c.residentBlocks(true);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0], 0x040u);
}

TEST(SetAssoc, FlushAllEmpties)
{
    SetAssocCache c(tinyGeom());
    for (Addr a = 0; a < 512; a += 64)
        c.insert(a);
    c.flushAll();
    EXPECT_EQ(c.numValid(), 0u);
}

TEST(SetAssoc, NonPowerOfTwoSetsIsFatal)
{
    CacheGeometry g{3 * 64 * 2, 2, 64};  // 3 sets
    EXPECT_DEATH(SetAssocCache c(g), "power of two");
}

TEST(SetAssoc, FullyAssociativeWorks)
{
    // One set, 8 ways.
    SetAssocCache c(CacheGeometry{8 * 64, 8, 64});
    for (Addr a = 0; a < 8 * 64; a += 64)
        c.insert(a);
    EXPECT_EQ(c.numValid(), 8u);
    auto victim = c.insert(0x4000);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x000u);  // LRU
}

TEST(SetAssoc, DirtyCountMatchesResidentDirtyBlocks)
{
    // numDirty() is maintained incrementally; every mutator must keep it
    // equal to the scanned count, including dirty-victim evictions and
    // repeated marks of the same block.
    SetAssocCache c(tinyGeom());
    std::uint64_t x = 0x5eed;
    for (int step = 0; step < 5000; ++step) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Addr addr = ((x >> 33) % 32) * 64;
        switch ((x >> 59) % 5) {
          case 0: c.insert(addr); break;
          case 1: c.markDirty(addr); break;
          case 2: c.markClean(addr); break;
          case 3: c.invalidate(addr); break;
          default:
            if ((x >> 20) % 64 == 0)
                c.flushAll();
            break;
        }
        ASSERT_EQ(c.numDirty(), c.residentBlocks(true).size()) << step;
    }
}

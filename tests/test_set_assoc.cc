/**
 * @file
 * Unit tests for the set-associative tag store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

/**
 * The tag array as it was before valid masks: value-initialised ways
 * with a valid flag, every lookup and victim search a linear scan over
 * the set. SetAssocCache must be indistinguishable from it.
 */
class ReferenceTags
{
  public:
    explicit ReferenceTags(const CacheGeometry &geom)
        : _geom(geom), _numSets(geom.numSets()),
          _ways(_numSets * geom.associativity)
    {}

    bool
    access(Addr addr)
    {
        Way *way = findWay(blockAlign(addr));
        if (!way)
            return false;
        way->lastUse = ++_useClock;
        return true;
    }

    std::optional<SetAssocCache::Victim>
    insert(Addr addr)
    {
        const Addr aligned = blockAlign(addr);
        if (Way *way = findWay(aligned)) {
            way->lastUse = ++_useClock;
            return std::nullopt;
        }
        Way *victim = nullptr;
        for (unsigned w = 0; w < _geom.associativity; ++w) {
            Way &cand = _ways[setIndex(aligned) * _geom.associativity + w];
            if (!cand.valid) {
                victim = &cand;
                break;
            }
            if (!victim || cand.lastUse < victim->lastUse)
                victim = &cand;
        }
        std::optional<SetAssocCache::Victim> evicted;
        if (victim->valid)
            evicted = SetAssocCache::Victim{victim->tag, victim->dirty};
        *victim = Way{true, false, aligned, ++_useClock};
        return evicted;
    }

    bool contains(Addr addr) { return findWay(blockAlign(addr)); }

    bool
    isDirty(Addr addr)
    {
        const Way *way = findWay(blockAlign(addr));
        return way && way->dirty;
    }

    bool
    markDirty(Addr addr)
    {
        Way *way = findWay(blockAlign(addr));
        if (way)
            way->dirty = true;
        return way != nullptr;
    }

    bool
    markClean(Addr addr)
    {
        Way *way = findWay(blockAlign(addr));
        if (way)
            way->dirty = false;
        return way != nullptr;
    }

    bool
    invalidate(Addr addr)
    {
        Way *way = findWay(blockAlign(addr));
        if (way)
            *way = Way{};
        return way != nullptr;
    }

    void
    flushAll()
    {
        for (Way &w : _ways)
            w = Way{};
    }

    std::vector<Addr>
    residentBlocks(bool dirty_only = false) const
    {
        std::vector<Addr> out;
        for (const Way &w : _ways)
            if (w.valid && (!dirty_only || w.dirty))
                out.push_back(w.tag);
        return out;
    }

    /** The old MetadataCache::cleanDirty: copy, then clean in order. */
    std::vector<Addr>
    cleanDirty(std::size_t max_blocks)
    {
        std::vector<Addr> cleaned;
        for (Addr addr : residentBlocks(true)) {
            if (cleaned.size() >= max_blocks)
                break;
            markClean(addr);
            cleaned.push_back(addr);
        }
        return cleaned;
    }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = InvalidAddr;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t
    setIndex(Addr aligned) const
    {
        return (aligned / _geom.blockSize) & (_numSets - 1);
    }

    Way *
    findWay(Addr aligned)
    {
        for (unsigned w = 0; w < _geom.associativity; ++w) {
            Way &way = _ways[setIndex(aligned) * _geom.associativity + w];
            if (way.valid && way.tag == aligned)
                return &way;
        }
        return nullptr;
    }

    CacheGeometry _geom;
    std::uint64_t _numSets;
    std::vector<Way> _ways;
    std::uint64_t _useClock = 0;
};

std::string
describe(const std::optional<SetAssocCache::Victim> &v)
{
    return v ? std::to_string(v->addr) + (v->dirty ? "/dirty" : "/clean")
             : "none";
}

/**
 * Drive SetAssocCache and ReferenceTags through @p steps seeded random
 * operations on addresses confined to a few sets (about two blocks per
 * way each, so most inserts past warm-up evict), comparing every
 * observable after every step.
 */
void
runDifferential(const CacheGeometry &geom, std::uint64_t seed, int steps)
{
    SetAssocCache dut(geom);
    ReferenceTags ref(geom);
    const std::uint64_t sets = dut.numSets();
    const std::uint64_t hot_sets = std::min<std::uint64_t>(sets, 3);
    const std::uint64_t per_set = 2 * geom.associativity + 1;
    std::uint64_t x = seed;
    auto next = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x >> 11;
    };
    for (int step = 0; step < steps; ++step) {
        // Spread the hot sets over the index range: first, middle, last.
        const std::uint64_t set = (next() % hot_sets) * (sets - 1) / 2;
        const Addr addr = (set + sets * (next() % per_set)) *
                              geom.blockSize +
                          next() % geom.blockSize;
        const std::uint64_t op = next() % 100;
        SCOPED_TRACE("step " + std::to_string(step) + " op " +
                     std::to_string(op) + " addr " + std::to_string(addr));
        if (op < 40) {
            ASSERT_EQ(describe(dut.insert(addr)), describe(ref.insert(addr)));
        } else if (op < 60) {
            ASSERT_EQ(dut.access(addr), ref.access(addr));
        } else if (op < 75) {
            ASSERT_EQ(dut.markDirty(addr), ref.markDirty(addr));
        } else if (op < 83) {
            ASSERT_EQ(dut.markClean(addr), ref.markClean(addr));
        } else if (op < 93) {
            ASSERT_EQ(dut.invalidate(addr), ref.invalidate(addr));
        } else if (op < 99) {
            const std::size_t max = next() % 6;
            std::vector<Addr> written;
            const std::size_t n = dut.cleanDirty(
                max, [&written](Addr a) { written.push_back(a); });
            ASSERT_EQ(written, ref.cleanDirty(max));
            ASSERT_EQ(n, written.size());
        } else {
            dut.flushAll();
            ref.flushAll();
        }
        ASSERT_EQ(dut.contains(addr), ref.contains(addr));
        ASSERT_EQ(dut.isDirty(addr), ref.isDirty(addr));
        const std::vector<Addr> valid = ref.residentBlocks();
        const std::vector<Addr> dirty = ref.residentBlocks(true);
        ASSERT_EQ(dut.residentBlocks(), valid);
        ASSERT_EQ(dut.residentBlocks(true), dirty);
        ASSERT_EQ(dut.numValid(), valid.size());
        ASSERT_EQ(dut.numDirty(), dirty.size());
    }
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

TEST(SetAssoc, NonPowerOfTwoBlockSizeIsFatal)
{
    CacheGeometry g{4 * 2 * 48, 2, 48};  // 4 sets of 48-byte blocks
    EXPECT_DEATH(SetAssocCache c(g), "block size \\(48\\)");
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

TEST(SetAssoc, MatchesLinearScanReferenceDirectMapped)
{
    runDifferential(CacheGeometry{64 * 64, 1, 64}, 0x11, 4000);
}

TEST(SetAssoc, MatchesLinearScanReferenceTiny)
{
    runDifferential(tinyGeom(), 0x42, 4000);
}

TEST(SetAssoc, MatchesLinearScanReferenceEightWay)
{
    // The metadata caches' shape (Table I: 128 KB, 8 ways).
    runDifferential(CacheGeometry{128 * 1024, 8, 64}, 0x8, 4000);
}

TEST(SetAssoc, MatchesLinearScanReferenceL3Shape)
{
    // The data L3: 4 MiB in 32 ways, 2048 sets.
    runDifferential(CacheGeometry{4 * 1024 * 1024, 32, 64}, 0x32, 1000);
}

TEST(SetAssoc, MatchesLinearScanReferenceSixtyFourWay)
{
    // The widest geometry one mask word holds.
    runDifferential(CacheGeometry{4 * 64 * 64, 64, 64}, 0x64, 4000);
}

TEST(SetAssoc, AssociativityAbove64IsFatal)
{
    CacheGeometry g{65 * 64, 65, 64};  // 1 set, 65 ways
    EXPECT_DEATH(SetAssocCache c(g), "64-way valid mask");
}

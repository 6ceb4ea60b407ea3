/**
 * @file
 * Unit tests for the timed metadata caches.
 */

#include <gtest/gtest.h>

#include "metadata/metadata_cache.hh"

using namespace secpb;

namespace
{

struct Fixture
{
    EventQueue eq;
    StatGroup g{"g"};
    PcmConfig pcmCfg{100, 300, 2};
    PcmModel pcm{eq, pcmCfg, g};
    MetadataCache cache{"mdc", CacheGeometry{512, 2, 64}, 2, pcm, g};
};

} // namespace

TEST(MetadataCache, MissFetchesFromPcm)
{
    Fixture f;
    const Cycles lat = f.cache.readAccess(0x1000);
    EXPECT_EQ(lat, 2u + 100u);
    EXPECT_EQ(f.pcm.numReads(), 1u);
    EXPECT_DOUBLE_EQ(f.cache.statMisses.value(), 1.0);
}

TEST(MetadataCache, HitIsCheap)
{
    Fixture f;
    f.cache.readAccess(0x1000);
    EXPECT_EQ(f.cache.readAccess(0x1000), 2u);
    EXPECT_DOUBLE_EQ(f.cache.statHits.value(), 1.0);
}

TEST(MetadataCache, WriteMarksDirtyAndEvictionWritesBack)
{
    Fixture f;
    // Set 0 holds 2 ways: 0x000, 0x400, then 0x800 evicts.
    f.cache.writeAccess(0x000);
    f.cache.readAccess(0x400);
    f.cache.readAccess(0x800);  // evicts dirty 0x000
    EXPECT_DOUBLE_EQ(f.cache.statWritebacks.value(), 1.0);
    EXPECT_EQ(f.pcm.numWrites(), 1u);
}

TEST(MetadataCache, CleanEvictionIsSilent)
{
    Fixture f;
    f.cache.readAccess(0x000);
    f.cache.readAccess(0x400);
    f.cache.readAccess(0x800);
    EXPECT_DOUBLE_EQ(f.cache.statWritebacks.value(), 0.0);
}

TEST(MetadataCache, NoWritebackModeDiscardsDirty)
{
    // BMT-node caches are recomputable: dirty evictions are dropped.
    EventQueue eq;
    StatGroup g("g");
    PcmModel pcm(eq, PcmConfig{100, 300, 2}, g);
    MetadataCache cache("bmt", CacheGeometry{512, 2, 64}, 2, pcm, g,
                        /*writeback_dirty=*/false);
    cache.writeAccess(0x000);
    cache.readAccess(0x400);
    cache.readAccess(0x800);
    EXPECT_DOUBLE_EQ(cache.statWritebacks.value(), 0.0);
    EXPECT_EQ(pcm.numWrites(), 0u);
}

TEST(MetadataCache, DirtyBlocksEnumerated)
{
    Fixture f;
    f.cache.writeAccess(0x000);
    f.cache.writeAccess(0x040);
    f.cache.readAccess(0x080);
    EXPECT_EQ(f.cache.numDirty(), 2u);
    f.cache.flushAll();
    EXPECT_EQ(f.cache.numDirty(), 0u);
}

TEST(MetadataCache, HitRateTracksAccesses)
{
    Fixture f;
    f.cache.readAccess(0x000);  // miss
    f.cache.readAccess(0x000);  // hit
    f.cache.readAccess(0x000);  // hit
    EXPECT_NEAR(f.cache.hitRate(), 2.0 / 3.0, 1e-9);
}

/**
 * @file
 * Unit tests for the timed BMT walker: latency, pipelining, same-leaf
 * merging, functional consistency, and BMF height reduction.
 */

#include <gtest/gtest.h>

#include "metadata/walker.hh"

using namespace secpb;

namespace
{

struct Fixture
{
    explicit Fixture(BmfMode bmf = BmfMode::None,
                     std::uint64_t leaves = 1ULL << 21)
        : tree(leaves)
    {
        WalkerConfig wcfg;
        wcfg.bmfMode = bmf;
        walker = std::make_unique<BmtWalker>(eq, wcfg, layout, tree,
                                             bmtCache, pcm, lat, g);
    }

    EventQueue eq;
    StatGroup g{"g"};
    MetadataLayout layout{8ULL << 30};
    BonsaiMerkleTree tree;
    PcmConfig pcmCfg{220, 600, 32};
    PcmModel pcm{eq, pcmCfg, g};
    MetadataCache bmtCache{"bmt$", CacheGeometry{128 * 1024, 8, 64}, 2,
                           pcm, g, false};
    CryptoLatencies lat;
    std::unique_ptr<BmtWalker> walker;
};

} // namespace

TEST(Walker, FullWalkLatencyWithWarmCache)
{
    Fixture f;
    // Warm the node path.
    f.walker->update(0x1000, 1);
    f.eq.run();
    Tick start = f.eq.curTick();
    Tick done = 0;
    f.walker->update(0x1000, 2, [&] { done = f.eq.curTick(); });
    f.eq.run();
    // leaf hash + 7 levels x (2-cycle cache hit + 40-cycle hash).
    EXPECT_EQ(done - start, 40u + 7u * 42u);
}

TEST(Walker, ColdWalkPaysPcmFetches)
{
    Fixture f;
    Tick done = 0;
    f.walker->update(0x1000, 1, [&] { done = f.eq.curTick(); });
    f.eq.run();
    EXPECT_GT(done, 40u + 7u * 42u);  // misses add PCM reads
    EXPECT_GT(f.pcm.numReads(), 0u);
}

TEST(Walker, FunctionalUpdateAppliesImmediately)
{
    Fixture f;
    const Digest r0 = f.tree.root();
    f.walker->update(0x2000, 0x99);
    EXPECT_NE(f.tree.root(), r0);  // before any event runs
    EXPECT_TRUE(f.tree.verifyLeaf(f.layout.pageIndex(0x2000), 0x99));
}

TEST(Walker, IndependentLeavesPipeline)
{
    Fixture f;
    // Warm both paths.
    f.walker->update(0x0000, 1);
    f.walker->update(100 * PageSize, 1);
    f.eq.run();
    const Tick start = f.eq.curTick();
    const Tick c1 = f.walker->update(0x0000, 2);
    const Tick c2 = f.walker->update(100 * PageSize, 2);
    // Second walk issues one initiation interval later, not one full
    // walk later.
    EXPECT_EQ(c2 - c1, 40u);
    EXPECT_LT(c2 - start, 2u * (40u + 7u * 42u));
}

TEST(Walker, SameLeafUpdatesMerge)
{
    Fixture f;
    f.walker->update(0x3000, 1);
    f.eq.run();
    const Tick c1 = f.walker->update(0x3000, 2);
    const Tick c2 = f.walker->update(0x3040, 3);  // same page -> same leaf
    EXPECT_EQ(c1, c2);
    EXPECT_DOUBLE_EQ(f.walker->statMergedUpdates.value(), 1.0);
    // Only the real walks count as root updates (Fig. 8 metric).
    EXPECT_EQ(f.walker->rootUpdates(), 2u);
}

TEST(Walker, MergeWindowClosesAtCompletion)
{
    Fixture f;
    f.walker->update(0x3000, 1);
    f.eq.run();  // walk retired
    f.walker->update(0x3000, 2);
    EXPECT_DOUBLE_EQ(f.walker->statMergedUpdates.value(), 0.0);
    EXPECT_EQ(f.walker->rootUpdates(), 2u);
}

TEST(Walker, UpdateAtCompletionTickDoesNotMerge)
{
    Fixture f;
    // Warm the node path so the next walk takes the deterministic
    // warm-cache latency (leaf hash + 7 x (hit + hash) = 334 cycles).
    f.walker->update(0x3000, 1);
    f.eq.run();
    const Tick start = f.eq.curTick();
    const Tick completion = start + 40u + 7u * 42u;
    // Schedule the probe *before* the walk exists: at the walk's
    // completion tick it runs ahead of the walk's own in-flight cleanup
    // event (FIFO at the same tick), so the in-flight entry is still
    // present with completion == now. The merge window is strictly
    // `completion > now`: the root write retires this very tick, so the
    // probe's digest would be lost if it merged. It must walk afresh.
    BmtWalker::UpdateTiming probed{};
    f.eq.schedule(completion,
                  [&] { probed = f.walker->updateTimed(0x3000, 3); });
    const Tick c1 = f.walker->update(0x3000, 2);
    ASSERT_EQ(c1, completion);
    f.eq.run();
    EXPECT_FALSE(probed.merged);
    EXPECT_GT(probed.completion, completion);
    EXPECT_DOUBLE_EQ(f.walker->statMergedUpdates.value(), 0.0);
    EXPECT_EQ(f.walker->rootUpdates(), 3u);
}

TEST(Walker, MergedUpdateStillFunctionallyApplied)
{
    Fixture f;
    f.walker->update(0x3000, 1);
    f.walker->update(0x3000, 2);  // merged
    EXPECT_TRUE(f.tree.verifyLeaf(f.layout.pageIndex(0x3000), 2));
    EXPECT_FALSE(f.tree.verifyLeaf(f.layout.pageIndex(0x3000), 1));
}

TEST(Walker, DbmfWalksTwoLevelsOnRootCacheHit)
{
    Fixture f(BmfMode::Dbmf);
    EXPECT_EQ(f.walker->effectiveLevels(), 2u);
    // First update misses the root cache -> full walk.
    f.walker->update(0x4000, 1);
    f.eq.run();
    EXPECT_DOUBLE_EQ(f.walker->statFullWalks.value(), 1.0);
    // Second update to the same subtree hits -> reduced walk.
    Tick start = f.eq.curTick();
    Tick done = 0;
    f.walker->update(0x4000, 2, [&] { done = f.eq.curTick(); });
    f.eq.run();
    EXPECT_DOUBLE_EQ(f.walker->statRootCacheHits.value(), 1.0);
    EXPECT_EQ(done - start, 40u + 2u * 42u);
}

TEST(Walker, SbmfWalksFiveLevels)
{
    Fixture f(BmfMode::Sbmf);
    EXPECT_EQ(f.walker->effectiveLevels(), 5u);
    f.walker->update(0x5000, 1);
    f.eq.run();
    Tick start = f.eq.curTick();
    Tick done = 0;
    f.walker->update(0x5000, 2, [&] { done = f.eq.curTick(); });
    f.eq.run();
    EXPECT_EQ(done - start, 40u + 5u * 42u);
}

TEST(Walker, BmfModesKeepFunctionalTreeFullHeight)
{
    // BMF truncates the *timed* walk; integrity verification still spans
    // the whole tree.
    Fixture f(BmfMode::Dbmf);
    f.walker->update(0x6000, 77);
    f.eq.run();
    EXPECT_TRUE(f.tree.verifyLeaf(f.layout.pageIndex(0x6000), 77));
}

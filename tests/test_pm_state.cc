/**
 * @file
 * Direct unit tests for the functional persistent state: PM image,
 * persist oracle, counter store, and the speculative-verification knob.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/system.hh"
#include "mem/pm_image.hh"
#include "metadata/counter_store.hh"
#include "recovery/oracle.hh"
#include "workload/synthetic.hh"

using namespace secpb;

TEST(PmImage, UntouchedBlocksReadZero)
{
    PmImage pm;
    EXPECT_FALSE(pm.hasData(0x1000));
    EXPECT_EQ(pm.readData(0x1000), zeroBlock());
    EXPECT_EQ(pm.readMac(0x1000), 0u);
    EXPECT_EQ(pm.readCounterBlock(7), CounterBlock{});
}

TEST(PmImage, WritesAreBlockAligned)
{
    PmImage pm;
    BlockData b = zeroBlock();
    setBlockWord(b, 0, 0x1234);
    pm.writeData(0x1038, b);  // unaligned address
    EXPECT_TRUE(pm.hasData(0x1000));
    EXPECT_EQ(pm.readData(0x1010), b);  // any address in the block
}

TEST(PmImage, DataBlockEnumeration)
{
    PmImage pm;
    pm.writeData(0x000, zeroBlock());
    pm.writeData(0x040, zeroBlock());
    pm.writeData(0x040, zeroBlock());  // overwrite, not a new block
    EXPECT_EQ(pm.numDataBlocks(), 2u);
    EXPECT_EQ(pm.dataBlockAddrs().size(), 2u);
}

TEST(PmImage, TamperHooksMutateState)
{
    PmImage pm;
    pm.writeBlock(0x000, zeroBlock(), 0x1111);
    pm.tamperData(0x000, 5, 0xFF);
    EXPECT_EQ(pm.readData(0x000)[5], 0xFF);
    pm.tamperMac(0x000, 0x0F);
    EXPECT_EQ(pm.readMac(0x000), 0x1111u ^ 0x0Fu);
}

TEST(PmImageDeath, MacTamperWithoutDataPanics)
{
    // A MAC lives in its block's record: with no data there is no MAC
    // to corrupt, and the tamper injector only picks persisted blocks.
    PmImage pm;
    EXPECT_DEATH(pm.tamperMac(0x2000, 0x5), "holds no data");
}

TEST(PmImage, EraseDataBlockDropsTheMac)
{
    PmImage pm;
    pm.writeBlock(0x3000, zeroBlock(), 0x77);
    pm.writeData(0x3040, zeroBlock());
    pm.eraseDataBlock(0x3000);
    EXPECT_FALSE(pm.hasData(0x3000));
    EXPECT_EQ(pm.readMac(0x3000), 0u);
    EXPECT_EQ(pm.dataBlockAddrs(), (std::vector<Addr>{0x3040}));
}

TEST(PmImage, CopyIsIndependentOfItsSource)
{
    // SecPbSystem::adoptPersistentState copies the image on a reboot.
    PmImage src;
    for (unsigned i = 0; i < 300; ++i)
        src.writeBlock(i * 3 * BlockSize, zeroBlock(), i + 1);
    src.writeCounterBlock(0, CounterBlock{});
    PmImage copy = src;
    copy.writeBlock(0x40000, zeroBlock(), 9);
    copy.eraseDataBlock(0);
    copy.tamperData(3 * BlockSize, 0, 0xff);
    copy.tamperMac(6 * BlockSize, 0xf0);
    PmImage other;
    copy.movePageTo(other, 1);
    src.writeBlock(9 * BlockSize, zeroBlock(), 0xabc);

    EXPECT_EQ(src.numDataBlocks(), 300u);
    EXPECT_TRUE(src.hasData(0));
    EXPECT_FALSE(src.hasData(0x40000));
    EXPECT_EQ(src.readData(3 * BlockSize), zeroBlock());
    EXPECT_EQ(src.readMac(6 * BlockSize), 3u);
    EXPECT_TRUE(src.hasData(22 * 3 * BlockSize));  // a page-1 block
    EXPECT_EQ(src.counterPages(), (std::vector<std::uint64_t>{0}));
    EXPECT_FALSE(copy.hasData(0));
    EXPECT_EQ(copy.readData(3 * BlockSize)[0], 0xff);
    EXPECT_EQ(copy.readMac(6 * BlockSize), 3u ^ 0xf0u);
    EXPECT_EQ(copy.readMac(9 * BlockSize), 4u);
    EXPECT_EQ(copy.numDataBlocks(), 300u + 1 - 1 - other.numDataBlocks());
    EXPECT_GT(other.numDataBlocks(), 0u);
}

TEST(Oracle, CopyIsIndependentOfItsSource)
{
    PersistOracle src;
    for (unsigned i = 0; i < 300; ++i)
        src.applyStore(i * 3 * BlockSize, i + 1, i % 2 == 0);
    PersistOracle copy = src;
    copy.applyStore(0, 77, true);
    copy.forgetBlock(3 * BlockSize);
    PersistOracle other;
    copy.movePageTo(other, 1);
    src.applyStore(6 * BlockSize + 8, 5);

    EXPECT_EQ(src.numBlocks(), 300u);
    EXPECT_EQ(src.storeCount(0), 1u);
    EXPECT_TRUE(src.touched(3 * BlockSize));
    EXPECT_TRUE(src.touched(PageSize + 2 * BlockSize));
    EXPECT_EQ(src.storeCount(6 * BlockSize), 2u);
    EXPECT_EQ(src.numPersists(), 301u);
    EXPECT_EQ(copy.storeCount(0), 2u);
    EXPECT_EQ(copy.preResidencyCount(0), 1u);
    EXPECT_FALSE(copy.touched(3 * BlockSize));
    EXPECT_FALSE(copy.touched(PageSize + 2 * BlockSize));
    EXPECT_EQ(copy.storeCount(6 * BlockSize), 1u);
    EXPECT_EQ(copy.numPersists(), 301u);
    EXPECT_EQ(other.storeCount(PageSize + 2 * BlockSize), 1u);
    EXPECT_EQ(copy.numBlocks() + other.numBlocks(), 299u);
}

TEST(Oracle, StoresAccumulateInOrder)
{
    PersistOracle o;
    o.applyStore(0x100, 0xAA);
    o.applyStore(0x108, 0xBB);
    o.applyStore(0x100, 0xCC);  // overwrite word 0
    EXPECT_EQ(o.numPersists(), 3u);
    EXPECT_EQ(o.numBlocks(), 1u);
    const BlockData b = o.blockContent(0x100);
    EXPECT_EQ(blockWord(b, 0), 0xCCu);
    EXPECT_EQ(blockWord(b, 1), 0xBBu);
}

TEST(Oracle, TouchedIsBlockGranular)
{
    PersistOracle o;
    o.applyStore(0x100, 1);
    EXPECT_TRUE(o.touched(0x13F));
    EXPECT_FALSE(o.touched(0x140));
}

TEST(Oracle, HistoryStaysPerBlockUnderInterleavedStores)
{
    // Round-robin stores over 2,100 blocks (every chunk size), each
    // block opening a residency with its fourth store: each block's
    // count, snapshot and versions see only its own stores, in order.
    PersistOracle o;
    constexpr unsigned Blocks = 2100;
    constexpr unsigned Rounds = 9;
    for (unsigned r = 0; r < Rounds; ++r)
        for (unsigned b = 0; b < Blocks; ++b)
            o.applyStore(b * BlockSize + (r % 8) * 8, b * 100 + r, r == 3);
    EXPECT_EQ(o.numPersists(), Blocks * Rounds);
    EXPECT_EQ(o.numBlocks(), Blocks);
    for (unsigned b = 0; b < Blocks; ++b) {
        const Addr a = b * BlockSize;
        ASSERT_EQ(o.storeCount(a), Rounds);
        ASSERT_EQ(o.preResidencyCount(a), 3u);
        EXPECT_EQ(o.abandonedVersion(a, Rounds - 3), 3u);
        EXPECT_EQ(o.blockVersion(a, 0), zeroBlock());
        const BlockData v3 = o.blockVersion(a, 3);
        EXPECT_EQ(blockWord(v3, 2), b * 100 + 2);
        EXPECT_EQ(blockWord(v3, 3), 0u);
        // Version Rounds is the current content: the ninth store
        // (r = 8) overwrote word 0.
        EXPECT_EQ(o.blockVersion(a, Rounds), o.blockContent(a));
        EXPECT_EQ(blockWord(o.blockContent(a), 0), b * 100 + 8);
    }
}

TEST(Oracle, StoresAfterRollbackBuildOnTheRolledBackVersion)
{
    // Five stores, the last three in one residency; the battery lost it.
    PersistOracle o;
    for (unsigned i = 0; i < 5; ++i)
        o.applyStore(0x200 + i * 8, 10 + i, i == 2);
    o.applyStore(0x1000, 7);  // an unrelated block stays put
    const std::uint64_t pre = o.abandonedVersion(0x200, 3);
    ASSERT_EQ(pre, 2u);
    o.rollbackBlock(0x200, pre);
    EXPECT_FALSE(o.residencyOpen(0x200));
    EXPECT_EQ(o.storeCount(0x200), 2u);
    EXPECT_EQ(o.blockContent(0x200), o.blockVersion(0x200, 2));

    o.applyStore(0x218, 99, true);
    EXPECT_EQ(o.storeCount(0x200), 3u);
    EXPECT_EQ(o.preResidencyCount(0x200), 2u);
    const BlockData b = o.blockContent(0x200);
    EXPECT_EQ(blockWord(b, 0), 10u);
    EXPECT_EQ(blockWord(b, 1), 11u);
    EXPECT_EQ(blockWord(b, 2), 0u);  // rolled back, not restored
    EXPECT_EQ(blockWord(b, 3), 99u);
    EXPECT_EQ(o.blockVersion(0x200, 3), b);
    EXPECT_EQ(o.storeCount(0x1000), 1u);
    EXPECT_EQ(o.numPersists(), 7u);  // a rollback unmakes no persist
}

TEST(Oracle, ForgottenBlockStartsAgainFromVersionZero)
{
    PersistOracle o;
    o.applyStore(0x300, 1);
    o.applyStore(0x308, 2);
    o.applyStore(0x400, 3);
    o.forgetBlock(0x300);
    EXPECT_FALSE(o.touched(0x300));
    EXPECT_EQ(o.storeCount(0x300), 0u);
    EXPECT_EQ(o.blockContent(0x300), zeroBlock());
    EXPECT_EQ(o.numBlocks(), 1u);

    o.applyStore(0x310, 5);
    EXPECT_EQ(o.storeCount(0x300), 1u);
    EXPECT_EQ(o.blockVersion(0x300, 0), zeroBlock());
    const BlockData b = o.blockContent(0x300);
    EXPECT_EQ(blockWord(b, 0), 0u);
    EXPECT_EQ(blockWord(b, 2), 5u);
    EXPECT_EQ(o.blockVersion(0x300, 1), b);
    EXPECT_EQ(o.storeCount(0x400), 1u);
}

TEST(Oracle, PageMovedBackAndForthKeepsItsHistory)
{
    PersistOracle a, b;
    const Addr page = 3 * PageSize;
    for (unsigned i = 0; i < 6; ++i)
        a.applyStore(page + i * BlockSize + i * 8, i + 1);
    a.applyStore(page + BlockSize, 42, true);  // block 1 opens a residency
    b.applyStore(9 * PageSize, 5);             // b's own page stays put

    a.movePageTo(b, page / PageSize);
    // Every block's counts and the versions recovery can ask for.
    const auto snapshot = [&](const PersistOracle &o) {
        std::vector<std::tuple<std::uint64_t, std::uint64_t, BlockData,
                               BlockData>> s;
        for (unsigned i = 0; i < BlocksPerPage; ++i) {
            const Addr blk = page + i * BlockSize;
            const std::uint64_t pre = o.preResidencyCount(blk);
            s.emplace_back(o.storeCount(blk), pre, o.blockVersion(blk, pre),
                           o.blockContent(blk));
        }
        return s;
    };
    const auto once = snapshot(b);
    EXPECT_EQ(a.numBlocks(), 0u);
    EXPECT_EQ(b.numBlocks(), 7u);
    EXPECT_EQ(b.storeCount(page + BlockSize), 2u);
    EXPECT_EQ(b.preResidencyCount(page + BlockSize), 1u);

    for (int round = 0; round < 1000; ++round) {
        b.movePageTo(a, page / PageSize);
        a.movePageTo(b, page / PageSize);
    }
    EXPECT_EQ(a.numBlocks(), 0u);
    EXPECT_EQ(b.numBlocks(), 7u);
    EXPECT_EQ(snapshot(b), once);
    EXPECT_EQ(blockWord(b.blockContent(page + BlockSize), 0), 42u);
    EXPECT_EQ(b.storeCount(9 * PageSize), 1u);
    EXPECT_EQ(a.numPersists(), 7u);
    EXPECT_EQ(b.numPersists(), 1u);
}

TEST(Oracle, SnapshotTravelsWithMigratedPage)
{
    // A residency opened on core a is abandoned on core b after its page
    // migrates: b must roll the block back to a's snapshot.
    PersistOracle a, b;
    const Addr blk = 5 * PageSize + 2 * BlockSize;
    a.applyStore(blk, 1);
    a.applyStore(blk + 8, 2);
    const BlockData before = a.blockContent(blk);
    a.applyStore(blk, 3, true);
    a.applyStore(blk + 16, 4);

    const Addr stay = 6 * PageSize;
    a.applyStore(stay, 9, true);  // another page's residency stays on a

    a.movePageTo(b, 5);
    EXPECT_FALSE(a.touched(blk));
    EXPECT_FALSE(a.residencyOpen(blk));
    EXPECT_TRUE(a.residencyOpen(stay));
    EXPECT_TRUE(b.residencyOpen(blk));
    EXPECT_EQ(b.numOpenResidencies(), 1u);
    EXPECT_EQ(b.storeCount(blk), 4u);
    EXPECT_EQ(b.abandonedVersion(blk, 2), 2u);
    EXPECT_EQ(b.blockVersion(blk, 2), before);
    b.rollbackBlock(blk, 2);
    EXPECT_EQ(b.blockContent(blk), before);
    EXPECT_EQ(b.storeCount(blk), 2u);
    EXPECT_EQ(b.numOpenResidencies(), 0u);
}

TEST(Oracle, ReopenedResidencyReplacesTheSnapshot)
{
    PersistOracle o;
    o.applyStore(0x500, 1, true);  // first residency: snapshot is pristine
    o.applyStore(0x508, 2);
    EXPECT_EQ(o.preResidencyCount(0x500), 0u);
    EXPECT_EQ(o.abandonedVersion(0x500, 2), 0u);
    const BlockData drained = o.blockContent(0x500);

    // The first residency drained; the next store opens a second one.
    o.closeResidency(0x500);
    o.applyStore(0x510, 3, true);
    EXPECT_EQ(o.storeCount(0x500), 3u);
    EXPECT_EQ(o.preResidencyCount(0x500), 2u);
    EXPECT_EQ(o.abandonedVersion(0x500, 1), 2u);
    EXPECT_EQ(o.blockVersion(0x500, 2), drained);
    EXPECT_EQ(o.blockVersion(0x500, 0), zeroBlock());
    EXPECT_EQ(blockWord(o.blockVersion(0x500, 3), 2), 3u);
}

TEST(Oracle, SnapshotRowLivesWhileTheResidencyIsOpen)
{
    // A row opens with the allocating store and closes when the
    // residency drains; forgetting or rolling back a block closes it
    // too. A closed residency leaves nothing pending.
    PersistOracle o;
    o.applyStore(0x800, 1);
    EXPECT_FALSE(o.residencyOpen(0x800));
    o.applyStore(0x808, 2, true);
    o.applyStore(0x900, 3, true);
    EXPECT_TRUE(o.residencyOpen(0x83F));  // block-granular
    EXPECT_EQ(o.numOpenResidencies(), 2u);
    EXPECT_EQ(o.preResidencyCount(0x800), 1u);
    EXPECT_EQ(o.abandonedVersion(0x800, 1), 1u);

    o.closeResidency(0x808);
    EXPECT_FALSE(o.residencyOpen(0x800));
    EXPECT_EQ(o.numOpenResidencies(), 1u);
    EXPECT_EQ(o.preResidencyCount(0x800), 2u);
    EXPECT_EQ(o.blockVersion(0x800, 2), o.blockContent(0x800));
    o.closeResidency(0x800);  // closing twice is harmless
    EXPECT_EQ(o.numOpenResidencies(), 1u);

    o.forgetBlock(0x900);
    EXPECT_EQ(o.numOpenResidencies(), 0u);
    o.applyStore(0xA00, 4, true);
    o.rollbackBlock(0xA00, 0);
    EXPECT_FALSE(o.touched(0xA00));
    EXPECT_EQ(o.numOpenResidencies(), 0u);
}

TEST(OracleDeath, ClosedResidencyKeepsNoSnapshot)
{
    PersistOracle o;
    o.applyStore(0x800, 1);
    o.applyStore(0x808, 2, true);
    EXPECT_EQ(blockWord(o.blockVersion(0x800, 1), 0), 1u);
    o.closeResidency(0x800);
    EXPECT_DEATH(o.blockVersion(0x800, 1), "oracle keeps no version 1");
    EXPECT_DEATH(o.abandonedVersion(0x800, 1),
                 "abandoned residency 0x800 is not open");
}

TEST(OracleDeath, UnkeptVersionPanics)
{
    PersistOracle o;
    for (unsigned i = 0; i < 5; ++i)
        o.applyStore(0x600 + i * 8, i + 1, i == 3);
    // Kept: 0, the snapshot (3) and the current version (5).
    EXPECT_EQ(blockWord(o.blockVersion(0x600, 3), 2), 3u);
    EXPECT_DEATH(o.blockVersion(0x600, 1), "oracle keeps no version 1");
    EXPECT_DEATH(o.blockVersion(0x600, 4), "oracle keeps no version 4");
    EXPECT_DEATH(o.rollbackBlock(0x600, 2), "oracle keeps no version 2");
    EXPECT_DEATH(o.blockVersion(0x700, 1), "oracle keeps no version 1");
    // An abandoned residency must match the snapshot exactly.
    EXPECT_DEATH(o.abandonedVersion(0x600, 1), "abandoned residency 0x600");
    EXPECT_DEATH(o.abandonedVersion(0x600, 6), "abandoned residency 0x600");
}

TEST(CounterStore, IncrementsAreIndependentAcrossBlocks)
{
    MetadataLayout layout(1ULL << 30);
    CounterStore cs(layout);
    cs.increment(0x000);
    cs.increment(0x000);
    cs.increment(0x040);
    EXPECT_EQ(cs.counterFor(0x000).minor, 2u);
    EXPECT_EQ(cs.counterFor(0x040).minor, 1u);
    EXPECT_EQ(cs.counterFor(0x080).minor, 0u);
    EXPECT_EQ(cs.numTouched(), 1u);  // one counter block (same page)
}

TEST(CounterStore, OverflowReturnsOldBlock)
{
    MetadataLayout layout(1ULL << 30);
    CounterStore cs(layout);
    for (unsigned i = 0; i < MinorCounterMax; ++i)
        EXPECT_FALSE(cs.increment(0x000).overflowed);
    const CounterIncrement r = cs.increment(0x000);
    EXPECT_TRUE(r.overflowed);
    EXPECT_EQ(r.oldBlock.minors[0], MinorCounterMax);
    EXPECT_EQ(r.counter.major, 1u);
    EXPECT_EQ(r.counter.minor, 0u);
}

TEST(SpeculativeVerification, DisablingSlowsMemLoads)
{
    const BenchmarkProfile &p = profileByName("mcf");  // PM-load heavy
    SystemConfig spec;
    spec.speculativeVerification = true;
    spec = SecPbSystem::configFor(Scheme::Cobcm, p, spec);
    SystemConfig nonspec;
    nonspec.speculativeVerification = false;
    nonspec = SecPbSystem::configFor(Scheme::Cobcm, p, nonspec);
    EXPECT_GT(nonspec.loadPenalties.mem, spec.loadPenalties.mem);

    auto ticks = [&p](const SystemConfig &cfg) {
        SecPbSystem sys(cfg);
        SyntheticGenerator gen(p, 40'000, 7);
        return sys.run(gen).execTicks;
    };
    EXPECT_GT(ticks(nonspec), ticks(spec));
}

TEST(SpeculativeVerification, InsecureBaselineUnaffected)
{
    const BenchmarkProfile &p = profileByName("mcf");
    SystemConfig cfg;
    cfg.speculativeVerification = false;
    cfg = SecPbSystem::configFor(Scheme::Bbb, p, cfg);
    SystemConfig base = SecPbSystem::configFor(Scheme::Bbb, p);
    EXPECT_DOUBLE_EQ(cfg.loadPenalties.mem,
                     base.loadPenalties.mem);
}

/**
 * @file
 * The page query and page moves behind multi-core migration: SecPb's
 * one-pass pageEntries() against a brute-force filter of residentAddrs()
 * and the per-entry quiescence rule, over random buffer states; and
 * PmImage::movePageTo() out and back.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/system.hh"
#include "mem/pm_image.hh"
#include "sim/rng.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

/** Brute force: the page's resident entries, from the sorted dump. */
std::vector<Addr>
entriesByFilter(const SecPb &pb, std::uint64_t page)
{
    std::vector<Addr> out = pb.residentAddrs();
    std::erase_if(out, [page](Addr a) { return a / PageSize != page; });
    return out;
}

/** The quiescence rule, entry by entry and block by block. */
bool
quiescentByRule(const SecPb &pb, std::uint64_t page)
{
    for (Addr a : entriesByFilter(pb, page)) {
        const PbEntry *e = pb.peekEntry(a);
        if (e->draining || e->pendingOps != 0)
            return false;
    }
    const Addr base = static_cast<Addr>(page) * PageSize;
    for (Addr a = base; a < base + PageSize; a += BlockSize)
        if (pb.spTuplePending(a))
            return false;
    return true;
}

} // namespace

TEST(PageEntries, MatchesFilterAndQuiescenceRuleOverRandomStates)
{
    setQuietLogging(true);
    // What the sampled states covered, across all schemes.
    unsigned quiescent = 0, busy = 0, draining = 0, early = 0, sp = 0;
    std::vector<Addr> got;
    for (Scheme scheme :
         {Scheme::Cobcm, Scheme::Bcm, Scheme::NoGap, Scheme::Sp}) {
        SystemConfig cfg;
        cfg.scheme = scheme;
        cfg.secpb.numEntries = 8;
        SecPbSystem sys(cfg);
        SyntheticGenerator gen(profileByName("gcc"), 200'000, 3);
        sys.start(gen);
        Rng rng(static_cast<std::uint64_t>(scheme) + 11);
        SecPb &pb = sys.secpb();
        for (int sample = 0; sample < 400; ++sample) {
            for (std::uint64_t k = rng.below(40); k > 0; --k)
                sys.eventQueue().step();
            // Start a remote-read flush now and then, so some entries
            // drain outside the watermark engine too.
            const std::vector<Addr> resident = pb.residentAddrs();
            if (!resident.empty() && rng.chance(0.2))
                pb.flushForRemoteRead(
                    resident[rng.below(resident.size())]);

            // Every page with an entry or a persisted block.
            std::set<std::uint64_t> pages;
            for (Addr a : pb.residentAddrs())
                pages.insert(a / PageSize);
            for (Addr a : sys.oracle().touchedBlocks())
                pages.insert(a / PageSize);
            for (std::uint64_t page : pages) {
                const bool q = pb.pageEntries(page, got);
                ASSERT_EQ(got, entriesByFilter(pb, page))
                    << schemeName(scheme) << " page " << page;
                ASSERT_EQ(q, quiescentByRule(pb, page))
                    << schemeName(scheme) << " page " << page;
                ++(q ? quiescent : busy);
                for (Addr a : got) {
                    draining += pb.peekEntry(a)->draining;
                    early += !pb.peekEntry(a)->draining &&
                             pb.peekEntry(a)->pendingOps != 0;
                }
            }
            for (Addr a : sys.oracle().touchedBlocks())
                sp += pb.spTuplePending(a);
        }
    }
    EXPECT_GT(quiescent, 0u);
    EXPECT_GT(busy, 0u);
    EXPECT_GT(draining, 0u);
    EXPECT_GT(early, 0u);
    EXPECT_GT(sp, 0u);
}

TEST(PageEntries, EmptyPageIsQuiescentAndClearsTheOutput)
{
    SecPbSystem sys;
    std::vector<Addr> got{1, 2, 3};
    EXPECT_TRUE(sys.secpb().pageEntries(42, got));
    EXPECT_TRUE(got.empty());
}

TEST(PmImageMove, OutAndBackRestoresThePage)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        const std::uint64_t page = 7;
        const Addr base = page * PageSize;
        PmImage a, b;
        // The page and its neighbours: some blocks with data and a MAC,
        // some with data only, some absent.
        for (Addr addr = base - PageSize; addr < base + 2 * PageSize;
             addr += BlockSize) {
            const std::uint64_t kind = rng.below(3);
            if (kind == 2)
                continue;
            BlockData d{};
            d[rng.below(BlockSize)] =
                static_cast<std::uint8_t>(1 + rng.below(255));
            a.writeBlock(addr, d, kind == 0 ? rng.next() : 0);
        }
        CounterBlock cb;
        cb.major = seed;
        cb.minors[3] = 9;
        a.writeCounterBlock(page, cb);
        a.writeCounterBlock(page + 1, CounterBlock{});
        // The destination already holds an unrelated page.
        b.writeBlock(100 * PageSize, BlockData{}, 5);

        const std::vector<Addr> a_blocks = a.dataBlockAddrs();
        const std::vector<Addr> b_blocks = b.dataBlockAddrs();
        std::vector<BlockData> data;
        std::vector<MacValue> macs;
        std::vector<bool> present;
        for (Addr addr = base; addr < base + PageSize; addr += BlockSize) {
            data.push_back(a.readData(addr));
            macs.push_back(a.readMac(addr));
            present.push_back(a.hasData(addr));
        }

        a.movePageTo(b, page);
        for (Addr addr = base; addr < base + PageSize; addr += BlockSize) {
            const std::size_t i = (addr - base) / BlockSize;
            EXPECT_FALSE(a.hasData(addr));
            EXPECT_EQ(b.hasData(addr), present[i]);
            if (present[i]) {
                EXPECT_EQ(b.readData(addr), data[i]);
                EXPECT_EQ(b.readMac(addr), macs[i]);
            }
        }
        EXPECT_EQ(a.counterPages(), (std::vector<std::uint64_t>{page + 1}));
        EXPECT_EQ(b.counterPages(), (std::vector<std::uint64_t>{page}));

        b.movePageTo(a, page);
        EXPECT_EQ(a.dataBlockAddrs(), a_blocks) << "seed " << seed;
        EXPECT_EQ(b.dataBlockAddrs(), b_blocks) << "seed " << seed;
        for (Addr addr = base; addr < base + PageSize; addr += BlockSize) {
            const std::size_t i = (addr - base) / BlockSize;
            EXPECT_EQ(a.hasData(addr), present[i]);
            EXPECT_EQ(a.readData(addr), data[i]);
            EXPECT_EQ(a.readMac(addr), macs[i]);
        }
        EXPECT_EQ(a.readCounterBlock(page), cb);
        EXPECT_EQ(a.counterPages(),
                  (std::vector<std::uint64_t>{page, page + 1}));
        EXPECT_TRUE(b.counterPages().empty());
        EXPECT_EQ(b.readMac(100 * PageSize), 5u);
    }
}

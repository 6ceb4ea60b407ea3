/**
 * @file
 * Unit tests for the workload profiles and the synthetic generator:
 * determinism, rate targets, locality shape, and the paper's anchors.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "crypto/counters.hh"
#include "workload/profile.hh"
#include "workload/scripted.hh"
#include "workload/synthetic.hh"

using namespace secpb;

TEST(Profile, EighteenBenchmarks)
{
    EXPECT_EQ(spec2006Profiles().size(), 18u);
}

TEST(Profile, PaperAnchorsPresent)
{
    // The two benchmarks whose PPTI the paper quotes (Section VI-B).
    EXPECT_DOUBLE_EQ(profileByName("gamess").storesPerKiloInstr, 47.4);
    EXPECT_DOUBLE_EQ(profileByName("povray").storesPerKiloInstr, 38.8);
}

TEST(Profile, LookupUnknownIsFatal)
{
    EXPECT_DEATH(profileByName("doom3"), "unknown benchmark");
}

TEST(Profile, MixturesAreValidProbabilities)
{
    for (const auto &p : spec2006Profiles()) {
        const double total = p.pRewriteHot + p.pRewriteWarm +
                             p.pRewriteLong + p.pSequential;
        EXPECT_GE(total, 0.0) << p.name;
        EXPECT_LE(total, 1.0) << p.name;
        EXPECT_LE(p.pLoadL2 + p.pLoadL3 + p.pLoadMem, 1.0) << p.name;
        EXPECT_GT(p.storesPerKiloInstr, 0.0) << p.name;
    }
}

TEST(Synthetic, DeterministicForSameSeed)
{
    const auto &p = profileByName("gcc");
    SyntheticGenerator a(p, 10'000, 5), b(p, 10'000, 5);
    TraceOp oa, ob;
    while (true) {
        const bool ha = a.next(oa);
        const bool hb = b.next(ob);
        ASSERT_EQ(ha, hb);
        if (!ha)
            break;
        ASSERT_EQ(oa.kind, ob.kind);
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.value, ob.value);
        ASSERT_EQ(oa.count, ob.count);
    }
}

TEST(Synthetic, DifferentSeedsDiffer)
{
    const auto &p = profileByName("gcc");
    auto store_seq = [&p](std::uint64_t seed) {
        SyntheticGenerator gen(p, 5'000, seed);
        std::vector<Addr> addrs;
        TraceOp op;
        while (gen.next(op))
            if (op.kind == TraceOp::Kind::Store)
                addrs.push_back(op.addr);
        return addrs;
    };
    EXPECT_NE(store_seq(5), store_seq(6));
}

TEST(Synthetic, RespectsInstructionBudget)
{
    const auto &p = profileByName("astar");
    SyntheticGenerator gen(p, 12'345);
    TraceOp op;
    std::uint64_t count = 0;
    while (gen.next(op))
        count += (op.kind == TraceOp::Kind::Instr) ? op.count : 1;
    EXPECT_EQ(count, 12'345u);
    EXPECT_EQ(gen.instructionsEmitted(), 12'345u);
}

TEST(Synthetic, StoreRateMatchesProfile)
{
    for (const char *name : {"gamess", "povray", "sjeng"}) {
        const auto &p = profileByName(name);
        SyntheticGenerator gen(p, 200'000, 9);
        TraceOp op;
        while (gen.next(op)) {
        }
        const double ppti = 1000.0 * gen.storesEmitted() / 200'000.0;
        EXPECT_NEAR(ppti, p.storesPerKiloInstr,
                    p.storesPerKiloInstr * 0.15)
            << name;
    }
}

TEST(Synthetic, LoadRateMatchesProfile)
{
    const auto &p = profileByName("mcf");
    SyntheticGenerator gen(p, 200'000, 9);
    TraceOp op;
    while (gen.next(op)) {
    }
    const double lpki = 1000.0 * gen.loadsEmitted() / 200'000.0;
    EXPECT_NEAR(lpki, p.loadsPerKiloInstr, p.loadsPerKiloInstr * 0.1);
}

TEST(Synthetic, StoresAreWordAlignedAndInWorkingSet)
{
    const auto &p = profileByName("hmmer");
    SyntheticGenerator gen(p, 50'000, 2);
    TraceOp op;
    const Addr limit = p.workingSetPages * PageSize;
    while (gen.next(op)) {
        if (op.kind != TraceOp::Kind::Store)
            continue;
        EXPECT_EQ(op.addr % 8, 0u);
        EXPECT_LT(op.addr, limit);
    }
}

TEST(Synthetic, HotProfileHasSmallStoreFootprint)
{
    // povray (pHot .87) touches far fewer distinct blocks than gamess.
    auto distinct = [](const char *name) {
        const auto &p = profileByName(name);
        SyntheticGenerator gen(p, 100'000, 4);
        TraceOp op;
        std::unordered_set<Addr> blocks;
        while (gen.next(op))
            if (op.kind == TraceOp::Kind::Store)
                blocks.insert(blockAlign(op.addr));
        return blocks.size();
    };
    EXPECT_LT(distinct("povray"), distinct("gamess") / 2);
}

TEST(Synthetic, StreamingProfileWalksSequentially)
{
    const auto &p = profileByName("libquantum");
    SyntheticGenerator gen(p, 50'000, 3);
    TraceOp op;
    Addr last = 0;
    std::uint64_t seq_steps = 0, stores = 0;
    while (gen.next(op)) {
        if (op.kind != TraceOp::Kind::Store)
            continue;
        ++stores;
        if (op.addr == last + 8)
            ++seq_steps;
        last = op.addr;
    }
    EXPECT_GT(static_cast<double>(seq_steps) / stores, 0.7);
}

TEST(Scripted, BuilderEmitsInOrder)
{
    ScriptedGenerator gen;
    gen.instr(5).store(0x10, 1).load(MemLevel::L3);
    TraceOp op;
    ASSERT_TRUE(gen.next(op));
    EXPECT_EQ(op.kind, TraceOp::Kind::Instr);
    EXPECT_EQ(op.count, 5u);
    ASSERT_TRUE(gen.next(op));
    EXPECT_EQ(op.kind, TraceOp::Kind::Store);
    EXPECT_EQ(op.addr, 0x10u);
    ASSERT_TRUE(gen.next(op));
    EXPECT_EQ(op.level, MemLevel::L3);
    EXPECT_FALSE(gen.next(op));
}

/**
 * @file
 * Unit tests for the trace-driven core model: retire-width timing, load
 * penalties, store-buffer stalls, and completion callbacks.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "workload/scripted.hh"

using namespace secpb;

namespace
{

SystemConfig
cpuConfig()
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Bbb;
    cfg.pmDataBytes = 1ULL << 30;
    cfg.loadPenalties = LoadPenalties{0.0, 8.0, 20.0, 100.0};
    return cfg;
}

} // namespace

TEST(TraceCpu, PlainInstructionsRetireAtWidth)
{
    SecPbSystem sys(cpuConfig());
    ScriptedGenerator gen;
    gen.instr(400);
    SimulationResult r = sys.run(gen);
    EXPECT_EQ(r.instructions, 400u);
    // 400 instructions at width 4 = 100 cycles (+- quantum rounding).
    EXPECT_NEAR(static_cast<double>(r.execTicks), 100.0, 8.0);
}

TEST(TraceCpu, LoadPenaltiesAccumulate)
{
    SecPbSystem sys(cpuConfig());
    ScriptedGenerator gen;
    for (int i = 0; i < 100; ++i)
        gen.load(MemLevel::Mem);  // 100-cycle penalty each
    SimulationResult r = sys.run(gen);
    EXPECT_GE(r.execTicks, 100u * 100u);
}

TEST(TraceCpu, L1LoadsAreFree)
{
    SecPbSystem sys(cpuConfig());
    ScriptedGenerator gen;
    for (int i = 0; i < 400; ++i)
        gen.load(MemLevel::L1);
    SimulationResult r = sys.run(gen);
    EXPECT_NEAR(static_cast<double>(r.execTicks), 100.0, 8.0);
}

TEST(TraceCpu, CountsOpKinds)
{
    SecPbSystem sys(cpuConfig());
    ScriptedGenerator gen;
    gen.instr(10).load().store(0x100, 1).load().store(0x140, 2);
    SimulationResult r = sys.run(gen);
    EXPECT_EQ(r.instructions, 14u);
    EXPECT_DOUBLE_EQ(sys.cpu().statLoads.value(), 2.0);
    EXPECT_DOUBLE_EQ(sys.cpu().statStores.value(), 2.0);
}

TEST(TraceCpu, StallsWhenStoreBufferSaturates)
{
    SystemConfig cfg = cpuConfig();
    cfg.scheme = Scheme::NoGap;  // slow acceptance
    cfg.storeBufferEntries = 2;
    SecPbSystem sys(cfg);
    ScriptedGenerator gen;
    for (Addr a = 0; a < 30 * BlockSize; a += BlockSize)
        gen.store(a, a);
    SimulationResult r = sys.run(gen);
    EXPECT_GT(r.sbFullStalls, 0u);
    EXPECT_EQ(r.persists, 30u);  // all stores still persist eventually
}

TEST(TraceCpu, SlowSchemeSlowsExecution)
{
    auto run_with = [](Scheme s) {
        SystemConfig cfg = cpuConfig();
        cfg.scheme = s;
        cfg.storeBufferEntries = 4;
        SecPbSystem sys(cfg);
        ScriptedGenerator gen;
        for (Addr a = 0; a < 50 * BlockSize; a += BlockSize)
            gen.store(a, a);
        return sys.run(gen).execTicks;
    };
    EXPECT_GT(run_with(Scheme::NoGap), run_with(Scheme::Bbb));
}

TEST(TraceCpu, DoneFiresOnceGeneratorExhausted)
{
    SecPbSystem sys(cpuConfig());
    ScriptedGenerator gen;
    gen.instr(100);
    sys.start(gen);
    EXPECT_FALSE(sys.finished());
    sys.runUntil(1'000'000);
    EXPECT_TRUE(sys.finished());
}

TEST(TraceCpu, IpcReflectsRetireWidthCeiling)
{
    SecPbSystem sys(cpuConfig());
    ScriptedGenerator gen;
    gen.instr(10'000);
    SimulationResult r = sys.run(gen);
    EXPECT_LE(r.ipc, 4.05);
    EXPECT_GT(r.ipc, 3.5);
}

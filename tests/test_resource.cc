/**
 * @file
 * Unit tests for the crypto engine's occupancy model (PipelinedUnit).
 * The PCM's bank occupancy is tested in test_pcm_wpq.cc.
 */

#include <gtest/gtest.h>

#include "crypto/engine.hh"
#include "stats/stats.hh"

using namespace secpb;

TEST(PipelinedUnit, LatencyVsInitiationInterval)
{
    EventQueue eq;
    PipelinedUnit u(eq, /*latency=*/40, /*interval=*/4);
    const Tick f0 = u.request();
    const Tick f1 = u.request();
    const Tick f2 = u.request();
    EXPECT_EQ(f0, 40u);  // full latency
    EXPECT_EQ(f1, 44u);  // one interval later
    EXPECT_EQ(f2, 48u);
    EXPECT_EQ(u.requests(), 3u);
}

TEST(CryptoEngine, CountsOperations)
{
    EventQueue eq;
    StatGroup g("g");
    CryptoEngine ce(eq, CryptoLatencies{}, g);
    ce.generateOtp();
    ce.generateMac();
    ce.generateMac();
    EXPECT_EQ(ce.generateCiphertext(), 1u);
    eq.run();
    EXPECT_DOUBLE_EQ(ce.statOtpGenerated.value(), 1.0);
    EXPECT_DOUBLE_EQ(ce.statMacGenerated.value(), 2.0);
    EXPECT_DOUBLE_EQ(ce.statCiphertexts.value(), 1.0);
}

TEST(CryptoEngine, MacCompletionFiresAtLatency)
{
    EventQueue eq;
    StatGroup g("g");
    CryptoLatencies lat;
    lat.macHash = 40;
    CryptoEngine ce(eq, lat, g);
    Tick done = 0;
    ce.generateMac([&] { done = eq.curTick(); });
    eq.run();
    EXPECT_EQ(done, 40u);
}

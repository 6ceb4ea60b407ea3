/**
 * @file
 * Unit tests for the base utilities: address arithmetic, clock
 * conversion, csprintf, block-data helpers, persist-buffer entries.
 */

#include <gtest/gtest.h>

#include "mem/block_data.hh"
#include "pb/entry.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

using namespace secpb;

TEST(Types, BlockArithmetic)
{
    EXPECT_EQ(blockAlign(0x1234), 0x1200u);
    EXPECT_EQ(blockOffset(0x1234), 0x34u);
    EXPECT_EQ(blockIndex(0x1234), 0x48u);
    EXPECT_EQ(blockAlign(0x1200), 0x1200u);
}

TEST(Types, ClockConversion)
{
    // 4 GHz (Table I): a cycle is a quarter nanosecond.
    EXPECT_EQ(cyclesToNs(220.0), 55.0);   // Table I PCM read
    EXPECT_EQ(cyclesToNs(600.0), 150.0);  // Table I PCM write
    EXPECT_EQ(cyclesToNs(0.0), 0.0);
    EXPECT_EQ(cyclesToNs(1.0), 0.25);
}

TEST(Logging, CsprintfFormats)
{
    EXPECT_EQ(csprintf("x=%d y=%s", 42, "hi"), "x=42 y=hi");
    EXPECT_EQ(csprintf("empty"), "empty");
    // Long strings are not truncated.
    const std::string big(500, 'a');
    EXPECT_EQ(csprintf("%s", big.c_str()).size(), 500u);
}

TEST(Logging, QuietSuppression)
{
    const bool was = quietLogging();
    setQuietLogging(true);
    EXPECT_TRUE(quietLogging());
    setQuietLogging(was);
}

TEST(BlockData, WordAccessors)
{
    BlockData b = zeroBlock();
    setBlockWord(b, 3, 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(blockWord(b, 3), 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(blockWord(b, 2), 0u);
    EXPECT_EQ(blockWord(b, 4), 0u);
    EXPECT_EQ(b[24], 0x0Du);  // little-endian byte layout
}

TEST(BlockData, XorIsInvolution)
{
    BlockData a, b;
    for (unsigned i = 0; i < BlockSize; ++i) {
        a[i] = static_cast<std::uint8_t>(i * 7);
        b[i] = static_cast<std::uint8_t>(i * 13 + 5);
    }
    EXPECT_EQ(xorBlocks(xorBlocks(a, b), b), a);
}

TEST(PbEntry, ClearResetsEverything)
{
    PbEntry e;
    e.valid = true;
    e.addr = 0x1000;
    e.asid = 3;
    e.numWrites = 9;
    e.vData = e.vCtr = e.vOtp = e.vCt = e.vMac = e.vBmt = true;
    e.ctrIncremented = true;
    e.draining = true;
    e.clear();
    EXPECT_FALSE(e.valid);
    EXPECT_EQ(e.addr, InvalidAddr);
    EXPECT_EQ(e.asid, 0u);
    EXPECT_EQ(e.numWrites, 0u);
    EXPECT_FALSE(e.vData);
    EXPECT_FALSE(e.draining);
    EXPECT_FALSE(e.ctrIncremented);
}

TEST(PbEntry, CompleteRequiresAllSixBits)
{
    PbEntry e;
    e.vData = e.vCtr = e.vOtp = e.vCt = e.vMac = true;
    EXPECT_FALSE(e.complete());
    e.vBmt = true;
    EXPECT_TRUE(e.complete());
    e.vOtp = false;
    EXPECT_FALSE(e.complete());
}

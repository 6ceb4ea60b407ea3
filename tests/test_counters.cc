/**
 * @file
 * Unit tests for split-counter blocks: packing, increments, overflow.
 */

#include <gtest/gtest.h>

#include "crypto/counters.hh"
#include "sim/rng.hh"

using namespace secpb;

namespace
{

/**
 * The wire format, written one bit field at a time: 8 bytes of major,
 * then minor i at bits [7i, 7i + 7) of a little-endian bit stream.
 * pack() must match it byte for byte -- these bytes feed every BMT leaf
 * digest, and a round trip through unpack() cannot see a layout change
 * that unpack() mirrors.
 */
BlockData
packReference(const CounterBlock &cb)
{
    BlockData out{};
    for (unsigned b = 0; b < 8; ++b)
        out[b] = static_cast<std::uint8_t>(cb.major >> (8 * b));
    unsigned bitpos = 0;
    for (unsigned i = 0; i < BlocksPerPage; ++i) {
        const unsigned v = cb.minors[i] & MinorCounterMax;
        const unsigned byte = 8 + bitpos / 8;
        const unsigned shift = bitpos % 8;
        out[byte] |= static_cast<std::uint8_t>(v << shift);
        if (shift > 8 - MinorCounterBits)
            out[byte + 1] |= static_cast<std::uint8_t>(v >> (8 - shift));
        bitpos += MinorCounterBits;
    }
    return out;
}

} // namespace

TEST(CounterBlock, DefaultIsZero)
{
    CounterBlock cb;
    EXPECT_EQ(cb.major, 0u);
    for (unsigned i = 0; i < BlocksPerPage; ++i)
        EXPECT_EQ(cb.minors[i], 0u);
}

TEST(CounterBlock, IncrementBumpsOnlyTargetMinor)
{
    CounterBlock cb;
    EXPECT_FALSE(cb.increment(5));
    EXPECT_EQ(cb.minors[5], 1u);
    EXPECT_EQ(cb.minors[4], 0u);
    EXPECT_EQ(cb.minors[6], 0u);
    EXPECT_EQ(cb.major, 0u);
}

TEST(CounterBlock, MinorOverflowBumpsMajorAndResets)
{
    CounterBlock cb;
    for (unsigned i = 0; i < MinorCounterMax; ++i)
        EXPECT_FALSE(cb.increment(3));
    EXPECT_EQ(cb.minors[3], MinorCounterMax);
    cb.minors[9] = 42;
    EXPECT_TRUE(cb.increment(3));  // overflow
    EXPECT_EQ(cb.major, 1u);
    EXPECT_EQ(cb.minors[3], 0u);
    EXPECT_EQ(cb.minors[9], 0u);  // whole page reset
}

TEST(CounterBlock, CounterForReturnsPair)
{
    CounterBlock cb;
    cb.major = 7;
    cb.minors[12] = 99;
    const BlockCounter c = cb.counterFor(12);
    EXPECT_EQ(c.major, 7u);
    EXPECT_EQ(c.minor, 99u);
}

TEST(CounterBlock, PackUnpackRoundTrips)
{
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        CounterBlock cb;
        cb.major = rng.next();
        for (unsigned i = 0; i < BlocksPerPage; ++i)
            cb.minors[i] =
                static_cast<std::uint8_t>(rng.below(MinorCounterMax + 1));
        const BlockData raw = cb.pack();
        EXPECT_EQ(CounterBlock::unpack(raw), cb);
    }
}

TEST(CounterBlock, PackedFormIsExactly64Bytes)
{
    // 8B major + 64 x 7-bit minors = 8 + 56 = 64 bytes: the pack must use
    // the last byte (full occupancy) when the last minor is max.
    CounterBlock cb;
    cb.minors[BlocksPerPage - 1] = MinorCounterMax;
    const BlockData raw = cb.pack();
    EXPECT_NE(raw[63], 0u);
}

TEST(CounterBlock, PackIsInjectiveOnMinors)
{
    CounterBlock a, b;
    a.minors[0] = 1;
    b.minors[1] = 1;
    EXPECT_NE(a.pack(), b.pack());
}

TEST(CounterBlock, MaxMinorValueSurvivesRoundTrip)
{
    CounterBlock cb;
    for (unsigned i = 0; i < BlocksPerPage; ++i)
        cb.minors[i] = MinorCounterMax;
    EXPECT_EQ(CounterBlock::unpack(cb.pack()), cb);
}

TEST(CounterBlock, PackMatchesTheBitwiseReference)
{
    CounterBlock zero;
    zero.major = 0x0123456789abcdefULL;
    EXPECT_EQ(zero.pack(), packReference(zero));

    CounterBlock max;
    max.major = ~0ULL;
    max.minors.fill(MinorCounterMax);
    EXPECT_EQ(max.pack(), packReference(max));

    Rng rng(11);
    for (int trial = 0; trial < 1000; ++trial) {
        CounterBlock cb;
        cb.major = rng.next();
        for (unsigned i = 0; i < BlocksPerPage; ++i)
            cb.minors[i] =
                static_cast<std::uint8_t>(rng.below(MinorCounterMax + 1));
        ASSERT_EQ(cb.pack(), packReference(cb)) << "trial " << trial;
    }
}

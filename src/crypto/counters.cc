#include "crypto/counters.hh"

#include <cstring>

namespace secpb
{

BlockData
CounterBlock::pack() const
{
    BlockData out{};
    std::memcpy(out.data(), &major, 8);
    // Pack 64 seven-bit minors into 56 bytes, little-endian bit order:
    // each run of 8 minors is one 56-bit word, stored as 7 bytes.
    constexpr unsigned PerWord = 8;
    constexpr unsigned WordBytes = PerWord * MinorCounterBits / 8;
    static_assert(BlocksPerPage % PerWord == 0);
    for (unsigned g = 0; g < BlocksPerPage / PerWord; ++g) {
        std::uint64_t word = 0;
        for (unsigned k = 0; k < PerWord; ++k)
            word |= static_cast<std::uint64_t>(
                        minors[g * PerWord + k] & MinorCounterMax)
                    << (k * MinorCounterBits);
        for (unsigned b = 0; b < WordBytes; ++b)
            out[8 + g * WordBytes + b] =
                static_cast<std::uint8_t>(word >> (8 * b));
    }
    return out;
}

CounterBlock
CounterBlock::unpack(const BlockData &raw)
{
    CounterBlock cb;
    std::memcpy(&cb.major, raw.data(), 8);
    unsigned bitpos = 0;
    for (unsigned i = 0; i < BlocksPerPage; ++i) {
        const unsigned byte = 8 + bitpos / 8;
        const unsigned shift = bitpos % 8;
        unsigned v = raw[byte] >> shift;
        if (shift > 8 - MinorCounterBits)
            v |= static_cast<unsigned>(raw[byte + 1]) << (8 - shift);
        cb.minors[i] = static_cast<std::uint8_t>(v & MinorCounterMax);
        bitpos += MinorCounterBits;
    }
    return cb;
}

} // namespace secpb

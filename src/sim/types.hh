/**
 * @file
 * Fundamental simulation types shared by every module.
 *
 * The simulator is cycle granular: one Tick equals one core clock cycle at
 * the configured core frequency (4 GHz by default, matching Table I of the
 * SecPB paper). Wall-clock latencies from the paper (e.g. the 55 ns PCM
 * read) are stored in cycles at CoreFreqMhz.
 */

#ifndef SECPB_SIM_TYPES_HH
#define SECPB_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace secpb
{

/** Simulation time, in core clock cycles. */
using Tick = std::uint64_t;

/** A duration expressed in core clock cycles. */
using Cycles = std::uint64_t;

/** Physical memory address (byte granular). */
using Addr = std::uint64_t;

/** Sentinel for "no tick scheduled". */
constexpr Tick MaxTick = std::numeric_limits<Tick>::max();

/** Sentinel for an invalid address. */
constexpr Addr InvalidAddr = std::numeric_limits<Addr>::max();

/** Cache block (and PM access) granularity in bytes. */
constexpr unsigned BlockSize = 64;

/** log2(BlockSize), for address arithmetic. */
constexpr unsigned BlockShift = 6;

/** Align @p addr down to its containing block. */
constexpr Addr
blockAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(BlockSize - 1);
}

/** Byte offset of @p addr within its block. */
constexpr unsigned
blockOffset(Addr addr)
{
    return static_cast<unsigned>(addr & (BlockSize - 1));
}

/** Block index of @p addr (addr divided by the block size). */
constexpr std::uint64_t
blockIndex(Addr addr)
{
    return addr >> BlockShift;
}

/**
 * The core clock (Table I: 4.00 GHz). Latencies the paper gives in
 * cycles (the 40-cycle MAC) are used as they are; those it gives in
 * nanoseconds (the 55/150 ns PCM) are stored in cycles at this rate,
 * and cyclesToNs converts a window back.
 */
inline constexpr double CoreFreqMhz = 4000.0;

/** @p cycles of the core clock in nanoseconds. */
constexpr double
cyclesToNs(double cycles)
{
    return cycles * 1000.0 / CoreFreqMhz;
}

} // namespace secpb

#endif // SECPB_SIM_TYPES_HH

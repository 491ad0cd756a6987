/**
 * @file
 * Address manipulation helpers: the byte-address -> line-address map,
 * xor set indexing (Table 1: "xor-indexing" for both cache levels)
 * and the static line-to-L2-partition/DRAM-channel mapping.
 *
 * This header is the *only* byte<->line crossing point. The memory
 * path speaks line addresses throughout: the synthetic address
 * generator (kernels/addrgen) emits a warp instruction's coalesced
 * lines directly, with no per-thread byte addresses to convert, and
 * the strong types make an accidental crossing a compile error.
 */

#ifndef CKESIM_MEM_ADDRESS_HPP
#define CKESIM_MEM_ADDRESS_HPP

#include <cstdint>

#include "sim/types.hpp"

namespace ckesim {

/** Map @p addr to the line containing it (address / line size). */
inline LineAddr
toLineAddr(Addr addr, int line_bytes)
{
    return LineAddr{addr.get() / static_cast<std::uint64_t>(line_bytes)};
}

/** First byte of line @p line: always line_bytes-aligned. */
inline Addr
lineByteBase(LineAddr line, int line_bytes)
{
    return Addr{line.get() * static_cast<std::uint64_t>(line_bytes)};
}

/** Round @p addr down to its cache-line base (byte address). */
inline Addr
lineBase(Addr addr, int line_bytes)
{
    return lineByteBase(toLineAddr(addr, line_bytes), line_bytes);
}

/**
 * Xor-fold set index used by GPGPU-Sim-style caches: xoring the tag
 * bits into the index spreads power-of-two strides across sets.
 * @pre num_sets is a power of two.
 */
inline int
xorSetIndex(LineAddr line, int num_sets)
{
    const std::uint64_t mask =
        static_cast<std::uint64_t>(num_sets) - 1;
    const std::uint64_t n = line.get();
    std::uint64_t x = n;
    x ^= x >> 10;
    x ^= x >> 20;
    return static_cast<int>((n ^ (x >> 4)) & mask);
}

/** Partition interleave granularity: 16 lines (one 2KB row) per chunk, so a
 *  warp's coalesced burst lands in one channel and sequential streams
 *  retain DRAM row locality (GPGPU-Sim-style address mapping). */
inline constexpr int kPartitionChunkLines = 16;

/**
 * L2 partition (== DRAM channel) owning a line. 512B chunks
 * interleave across partitions, with an xor fold so power-of-two
 * kernel strides do not camp on one partition.
 */
inline int
linePartition(LineAddr line, int num_partitions)
{
    const std::uint64_t chunk =
        line.get() / static_cast<std::uint64_t>(kPartitionChunkLines);
    const std::uint64_t x = chunk ^ (chunk >> 7) ^ (chunk >> 15);
    return static_cast<int>(
        x % static_cast<std::uint64_t>(num_partitions));
}

} // namespace ckesim

#endif // CKESIM_MEM_ADDRESS_HPP

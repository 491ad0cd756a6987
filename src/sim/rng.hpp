/**
 * @file
 * Small deterministic PRNGs used for procedural workload generation.
 *
 * The simulator must be bit-for-bit reproducible across runs and
 * platforms, so we avoid std::mt19937's header-dependent distributions
 * and use explicit integer algorithms (SplitMix64 for seeding,
 * xorshift128+ for streams).
 */

#ifndef CKESIM_SIM_RNG_HPP
#define CKESIM_SIM_RNG_HPP

#include <cstdint>

namespace ckesim {

/** One step of SplitMix64; good for deriving independent seeds. */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * xorshift128+ PRNG. Fast, with 2^128-1 period, more than enough for
 * address-stream generation.
 */
class Rng
{
  public:
    /** Construct from a single seed via SplitMix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x243f6a8885a308d3ULL)
    {
        std::uint64_t s = seed;
        s0_ = splitMix64(s);
        s1_ = splitMix64(s);
        if (s0_ == 0 && s1_ == 0)
            s1_ = 1;
    }

    /** Next 64 uniformly distributed bits. */
    std::uint64_t
    next()
    {
        std::uint64_t x = s0_;
        const std::uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        // Multiply-shift reduction; bias is negligible for our bounds.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t s0_ = 0;
    std::uint64_t s1_ = 0;
};

} // namespace ckesim

#endif // CKESIM_SIM_RNG_HPP

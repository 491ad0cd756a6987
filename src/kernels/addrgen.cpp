#include "kernels/addrgen.hpp"

#include <algorithm>

namespace ckesim {

namespace {

/** Per-kernel-slot address spaces never collide. */
constexpr int kKernelSpaceShift = 44;
/** Streaming warps get 16MB private regions. */
constexpr std::uint64_t kStreamRegionBytes = 16ULL << 20;
/** Tiled-reuse warps cycle a small 8KB private tile. */
constexpr std::uint64_t kTileRegionBytes = 8ULL << 10;
/** Reuse draws look back at most this many recently touched lines.
 *  Kept tight: with ~64 warps interleaving on an SM, only the last
 *  couple of a warp's own lines can still be L1-resident. */
constexpr int kReuseWindow = 2;

} // namespace

void
initAddrGen(AddrGenState &st, const KernelProfile &prof,
            KernelId kernel, std::uint64_t tb_seq, int warp_in_tb,
            int warps_per_tb, std::uint64_t seed, int line_bytes)
{
    const std::uint64_t slot =
        static_cast<std::uint64_t>(kernel.get());
    std::uint64_t s = seed;
    s ^= (slot + 1) * std::uint64_t{0x9e3779b9};
    s ^= tb_seq * std::uint64_t{0x2545f4914f6cdd1d};
    s ^= static_cast<std::uint64_t>(warp_in_tb + 1) *
         std::uint64_t{0xda3e39cb94b95bdb};
    st.rng = Rng(s);

    const std::uint64_t space = (slot + 1) << kKernelSpaceShift;
    const std::uint64_t lb = static_cast<std::uint64_t>(line_bytes);

    // Streaming regions span the profile's footprint (bounded working
    // sets stay L2-resident); tiles are small and warp-local.
    const std::uint64_t region_bytes =
        prof.pattern == AccessPattern::TiledReuse
            ? kTileRegionBytes
            : std::max<std::uint64_t>(prof.footprint_bytes,
                                      kTileRegionBytes);
    st.stream_region_lines = region_bytes / lb;
    const std::uint64_t regions = std::max<std::uint64_t>(
        prof.stream_regions, 1);
    st.stream_base_line =
        (space + (tb_seq % regions) * kStreamRegionBytes) / lb;
    st.stream_stride = static_cast<std::uint64_t>(warps_per_tb);
    st.stream_offset = static_cast<std::uint64_t>(warp_in_tb);
    st.stream_cursor = 0;

    const std::uint64_t fp_bytes =
        std::max<std::uint64_t>(prof.footprint_bytes, lb);
    st.footprint_lines = fp_bytes / lb;
    const std::uint64_t fp_space =
        space + (1ULL << (kKernelSpaceShift - 1));
    const std::uint64_t fp_regions =
        std::max<std::uint64_t>(prof.footprint_regions, 1);
    st.footprint_base_line =
        (fp_space + (tb_seq % fp_regions) * fp_bytes) / lb;

    st.ring_count = 0;
    st.ring_pos = 0;
}

void
generateLines(AddrGenState &st, const KernelProfile &prof,
              int simd_width, std::vector<LineAddr> &out)
{
    out.clear();

    const int r = std::max(1, std::min(prof.req_per_minst, simd_width));

    // Reuse is decided per line: each of the r requests independently
    // revisits a recently touched line with probability reuse_prob.
    // The lookback *skips the warp's own in-flight burst* (those
    // accesses would only merge into outstanding misses) and targets
    // the window just behind it — lines that have been filled and are
    // still resident when total allocation pressure is moderate, but
    // are evicted when many warps thrash the cache. This is the
    // locality that memory-instruction limiting plus GTO recovers
    // (Section 3.3.1).
    const int skip = std::min(r * prof.mlp,
                              AddrGenState::kRingSize -
                                  kReuseWindow - 2 * r - 1);
    const int window = std::min(st.ring_count - skip,
                                std::max(kReuseWindow, 2 * r));

    // Fresh-line generators advance per line.
    std::uint64_t random_run_next = 0;
    bool random_run_live = false;

    auto fresh_line = [&]() -> std::uint64_t {
        switch (prof.pattern) {
          case AccessPattern::Streaming:
          case AccessPattern::TiledReuse: {
            // A TB's warps jointly stream one contiguous region:
            // step s of warp w touches line s*warps_per_tb + w.
            const std::uint64_t step =
                st.stream_cursor * st.stream_stride +
                st.stream_offset;
            ++st.stream_cursor;
            return st.stream_base_line +
                   (step % st.stream_region_lines);
          }
          case AccessPattern::RandomFootprint:
            // One random start per instruction, then consecutive
            // lines (vector access).
            if (!random_run_live) {
                random_run_next =
                    st.rng.nextBelow(st.footprint_lines);
                random_run_live = true;
            }
            return st.footprint_base_line +
                   (random_run_next++ % st.footprint_lines);
          case AccessPattern::StridedScatter:
            // Independent random lines: poor coalescing.
            return st.footprint_base_line +
                   st.rng.nextBelow(st.footprint_lines);
        }
        return st.footprint_base_line;
    };

    for (int i = 0; i < r; ++i) {
        const bool reuse =
            window > 0 && st.rng.nextDouble() < prof.reuse_prob;
        std::uint64_t line = 0;
        if (reuse) {
            const int back =
                skip + 1 +
                static_cast<int>(st.rng.nextBelow(
                    static_cast<std::uint64_t>(window)));
            const int pos = (st.ring_pos - back +
                             2 * AddrGenState::kRingSize) %
                            AddrGenState::kRingSize;
            line = st.ring[static_cast<std::size_t>(pos)];
        } else {
            line = fresh_line();
            // Remember fresh lines for future reuse draws.
            st.ring[static_cast<std::size_t>(st.ring_pos)] = line;
            st.ring_pos = (st.ring_pos + 1) % AddrGenState::kRingSize;
            if (st.ring_count < AddrGenState::kRingSize)
                ++st.ring_count;
        }
        // A reuse or random draw may repeat a line of this
        // instruction: the threads on it share one transaction.
        if (std::find(out.begin(), out.end(), LineAddr{line}) ==
            out.end())
            out.push_back(LineAddr{line});
    }
}

} // namespace ckesim

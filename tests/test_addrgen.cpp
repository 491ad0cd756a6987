/**
 * @file
 * Unit tests for procedural address generation: equivalence with the
 * per-thread expansion it replaced, determinism, target coalescing
 * degree, footprint confinement and reuse behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "kernels/addrgen.hpp"
#include "mem/address.hpp"

namespace ckesim {
namespace {

constexpr int kLine = 64;
constexpr int kSimd = 32;

AddrGenState
makeState(const KernelProfile &p, int warp = 0, std::uint64_t tb = 0)
{
    AddrGenState st;
    initAddrGen(st, p, KernelId{0}, tb, warp,
                p.warpsPerTb(kSimd), /*seed=*/42, kLine);
    return st;
}

std::vector<LineAddr>
lines(AddrGenState &st, const KernelProfile &p, int simd = kSimd)
{
    std::vector<LineAddr> out;
    generateLines(st, p, simd, out);
    return out;
}

// ---- oracle: the per-thread expansion generateLines replaced --------

/** The generator's minimum reuse lookback (addrgen.cpp). */
constexpr int kReuseWindow = 2;

/** The r line numbers one instruction draws, duplicates kept: the
 *  draw generateLines makes, written out independently. */
std::vector<std::uint64_t>
oracleDraw(AddrGenState &st, const KernelProfile &prof, int simd_width)
{
    const int r = std::max(1, std::min(prof.req_per_minst, simd_width));
    const int skip =
        std::min(r * prof.mlp,
                 AddrGenState::kRingSize - kReuseWindow - 2 * r - 1);
    const int window =
        std::min(st.ring_count - skip, std::max(kReuseWindow, 2 * r));
    std::uint64_t random_run_next = 0;
    bool random_run_live = false;
    std::vector<std::uint64_t> drawn;
    for (int i = 0; i < r; ++i) {
        if (window > 0 && st.rng.nextDouble() < prof.reuse_prob) {
            const int back = skip + 1 +
                             static_cast<int>(st.rng.nextBelow(
                                 static_cast<std::uint64_t>(window)));
            const int pos = (st.ring_pos - back +
                             2 * AddrGenState::kRingSize) %
                            AddrGenState::kRingSize;
            drawn.push_back(st.ring[static_cast<std::size_t>(pos)]);
            continue;
        }
        std::uint64_t fresh = 0;
        switch (prof.pattern) {
          case AccessPattern::Streaming:
          case AccessPattern::TiledReuse:
            fresh = st.stream_base_line +
                    ((st.stream_cursor++ * st.stream_stride +
                      st.stream_offset) %
                     st.stream_region_lines);
            break;
          case AccessPattern::RandomFootprint:
            if (!random_run_live) {
                random_run_next = st.rng.nextBelow(st.footprint_lines);
                random_run_live = true;
            }
            fresh = st.footprint_base_line +
                    (random_run_next++ % st.footprint_lines);
            break;
          case AccessPattern::StridedScatter:
            fresh = st.footprint_base_line +
                    st.rng.nextBelow(st.footprint_lines);
            break;
        }
        drawn.push_back(fresh);
        st.ring[static_cast<std::size_t>(st.ring_pos)] = fresh;
        st.ring_pos = (st.ring_pos + 1) % AddrGenState::kRingSize;
        if (st.ring_count < AddrGenState::kRingSize)
            ++st.ring_count;
    }
    return drawn;
}

/** Spread simd_width threads over the drawn lines in contiguous
 *  blocks, 4 bytes apart, as per-thread byte addresses. */
std::vector<Addr>
expand(const std::vector<std::uint64_t> &drawn, int simd_width,
       int line_bytes)
{
    const int r = static_cast<int>(drawn.size());
    std::vector<Addr> addrs;
    for (int t = 0; t < simd_width; ++t) {
        const std::uint64_t line =
            drawn[static_cast<std::size_t>(t * r / simd_width)];
        addrs.push_back(
            Addr{line * static_cast<std::uint64_t>(line_bytes) +
                 static_cast<std::uint64_t>((t * 4) % line_bytes)});
    }
    return addrs;
}

/** Coalesce byte addresses to unique lines in first-touch order. */
std::vector<LineAddr>
dedup(const std::vector<Addr> &addrs, int line_bytes)
{
    std::vector<LineAddr> out;
    for (Addr a : addrs) {
        const LineAddr line = toLineAddr(a, line_bytes);
        if (std::find(out.begin(), out.end(), line) == out.end())
            out.push_back(line);
    }
    return out;
}

/** Drive generateLines and the oracle from identical states. @return
 *  how many instructions lost a line to a reuse collision. */
int
expectMatchesOracle(const KernelProfile &p, std::uint64_t tb, int warp,
                    int simd, int line_bytes, int draws)
{
    AddrGenState a, b;
    initAddrGen(a, p, KernelId{1}, tb, warp, p.warpsPerTb(simd),
                /*seed=*/7, line_bytes);
    initAddrGen(b, p, KernelId{1}, tb, warp, p.warpsPerTb(simd),
                /*seed=*/7, line_bytes);
    const std::size_t r = static_cast<std::size_t>(
        std::max(1, std::min(p.req_per_minst, simd)));
    std::vector<LineAddr> got;
    int collided = 0;
    for (int i = 0; i < draws; ++i) {
        generateLines(a, p, simd, got);
        const std::vector<LineAddr> want = dedup(
            expand(oracleDraw(b, p, simd), simd, line_bytes), line_bytes);
        EXPECT_EQ(got, want) << p.name << " tb " << tb << " warp "
                             << warp << " draw " << i;
        if (got != want)
            return collided;
        if (got.size() < r)
            ++collided;
    }
    // Both generators consumed the same random stream.
    EXPECT_EQ(a.rng.next(), b.rng.next()) << p.name;
    return collided;
}

TEST(AddrGen, MatchesThreadExpansionOracleOnSuite)
{
    for (const KernelProfile &p : benchmarkSuite())
        for (std::uint64_t tb : {0ull, 3ull, 17ull})
            for (int warp : {0, 1, 5})
                expectMatchesOracle(p, tb, warp, kSimd, kLine, 600);
}

TEST(AddrGen, MatchesOracleAtOtherWidthsAndLineSizes)
{
    for (const KernelProfile &p : benchmarkSuite()) {
        expectMatchesOracle(p, 2, 1, /*simd=*/16, /*line=*/128, 500);
        expectMatchesOracle(p, 9, 0, /*simd=*/8, /*line=*/32, 500);
    }
}

TEST(AddrGen, MatchesOracleWhenReuseCollides)
{
    // Reuse draws that revisit a line of the same instruction must be
    // dropped; make them frequent and check they really happened.
    int collided = 0;
    for (const char *name : {"dc", "cp", "ks", "3m"}) {
        const KernelProfile &base = findProfile(name);
        KernelProfile p = base;
        for (double reuse : {base.reuse_prob, 0.95, 1.0}) {
            p.reuse_prob = reuse;
            for (int req : {base.req_per_minst, 8, 32}) {
                p.req_per_minst = req;
                for (std::uint64_t tb : {0ull, 11ull})
                    collided += expectMatchesOracle(p, tb, 2, kSimd,
                                                    kLine, 500);
            }
        }
    }
    EXPECT_GT(collided, 0);
}

// ---- properties ----------------------------------------------------

TEST(AddrGen, DeterministicAcrossRuns)
{
    const KernelProfile &p = findProfile("sv");
    AddrGenState a = makeState(p);
    AddrGenState b = makeState(p);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(lines(a, p), lines(b, p));
}

TEST(AddrGen, CoalescesToReqPerMinst)
{
    for (const char *name : {"bp", "sv", "ks", "ax", "bs"}) {
        const KernelProfile &p = findProfile(name);
        AddrGenState st = makeState(p);
        std::uint64_t total = 0;
        const int n = 300;
        for (int i = 0; i < n; ++i) {
            const std::vector<LineAddr> out = lines(st, p);
            total += out.size();
            ASSERT_GE(out.size(), 1u);
            ASSERT_LE(static_cast<int>(out.size()), p.req_per_minst);
            const std::set<LineAddr> unique(out.begin(), out.end());
            ASSERT_EQ(unique.size(), out.size()) << name;
        }
        const double avg = static_cast<double>(total) / n;
        // Reuse collisions can shave a little off the target.
        EXPECT_GT(avg, 0.6 * p.req_per_minst) << name;
        EXPECT_LE(avg, 1.0 * p.req_per_minst) << name;
    }
}

TEST(AddrGen, SimdWidthCapsLinesPerInstruction)
{
    KernelProfile p = findProfile("ks"); // StridedScatter
    p.reuse_prob = 0.0;
    p.req_per_minst = 32;
    AddrGenState st = makeState(p);
    for (int i = 0; i < 50; ++i)
        ASSERT_LE(lines(st, p, /*simd=*/4).size(), 4u);
}

TEST(AddrGen, KernelSlotsAreDisjoint)
{
    const KernelProfile &p = findProfile("bs");
    AddrGenState a, b;
    initAddrGen(a, p, KernelId{0}, 0, 0, 16, 42, kLine);
    initAddrGen(b, p, KernelId{1}, 0, 0, 16, 42, kLine);
    std::set<LineAddr> seen_a;
    for (int i = 0; i < 200; ++i)
        for (LineAddr l : lines(a, p))
            seen_a.insert(l);
    for (int i = 0; i < 200; ++i)
        for (LineAddr l : lines(b, p))
            ASSERT_EQ(seen_a.count(l), 0u);
}

TEST(AddrGen, FootprintConfinesRandomPatterns)
{
    const KernelProfile &p = findProfile("ks"); // StridedScatter
    AddrGenState st = makeState(p);
    LineAddr mn = LineAddr::max(), mx{};
    for (int i = 0; i < 500; ++i) {
        for (LineAddr l : lines(st, p)) {
            mn = std::min(mn, l);
            mx = std::max(mx, l);
        }
    }
    EXPECT_LT((mx - mn).get(),
              p.footprint_bytes / static_cast<std::uint64_t>(kLine));
}

TEST(AddrGen, StreamingAdvancesThroughRegion)
{
    const KernelProfile &p = findProfile("bs"); // pure streaming
    AddrGenState st = makeState(p);
    std::set<LineAddr> seen;
    const int n = 400;
    for (int i = 0; i < n; ++i)
        seen.insert(lines(st, p).front());
    // No reuse: every instruction touches a fresh line.
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
}

TEST(AddrGen, TbWarpsInterleaveOneRegion)
{
    // Warps of one TB must jointly cover contiguous lines (the DRAM
    // row locality property).
    const KernelProfile &p = findProfile("bs");
    const int warps = p.warpsPerTb(kSimd);
    std::vector<AddrGenState> sts;
    for (int w = 0; w < warps; ++w)
        sts.push_back(makeState(p, w, /*tb=*/5));
    std::set<LineAddr> seen;
    for (int w = 0; w < warps; ++w)
        seen.insert(lines(sts[static_cast<std::size_t>(w)], p).front());
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(warps));
    // Contiguous run of `warps` lines.
    EXPECT_EQ(*seen.rbegin() - *seen.begin(), LineAddr{warps - 1});
}

TEST(AddrGen, HighReuseRevisitsLines)
{
    const KernelProfile &p = findProfile("dc"); // reuse 0.91
    AddrGenState st = makeState(p);
    std::set<LineAddr> seen;
    const int n = 500;
    for (int i = 0; i < n; ++i)
        for (LineAddr l : lines(st, p))
            seen.insert(l);
    // Heavy reuse => far fewer distinct lines than instructions.
    EXPECT_LT(seen.size(), static_cast<std::size_t>(n / 2));
}

TEST(AddrGen, DistinctWarpsDistinctStreams)
{
    const KernelProfile &p = findProfile("sv");
    AddrGenState a = makeState(p, 0);
    AddrGenState b = makeState(p, 1);
    EXPECT_NE(lines(a, p), lines(b, p));
}

} // namespace
} // namespace ckesim

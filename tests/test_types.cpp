/**
 * @file
 * Compile-time and runtime coverage for the strong ID/unit types in
 * sim/types.hpp: construction, comparison, arithmetic closure,
 * sentinels, hashing, and the line/byte address round-trip invariant.
 *
 * Most of the contract is asserted with static_assert so a regression
 * fails at compile time, before any test runs. The inverse guarantees
 * (cross-type arithmetic and swaps must NOT compile) live in
 * tests/compile_fail/.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "mem/address.hpp"
#include "sim/types.hpp"

namespace ckesim {
namespace {

// ---- zero-overhead: same size/layout as the raw scalar ------------
static_assert(sizeof(KernelId) == sizeof(std::int32_t));
static_assert(sizeof(SmId) == sizeof(std::int32_t));
static_assert(sizeof(WarpSlot) == sizeof(std::int32_t));
static_assert(sizeof(Cycle) == sizeof(std::uint64_t));
static_assert(sizeof(Addr) == sizeof(std::uint64_t));
static_assert(sizeof(LineAddr) == sizeof(std::uint64_t));
static_assert(std::is_trivially_copyable_v<KernelId>);
static_assert(std::is_trivially_copyable_v<Cycle>);

// ---- journal record format version pin ---------------------------
// Any change to what a results-journal record holds — field added,
// removed, reordered, or re-typed — MUST bump kSnapshotFormatVersion
// (there is no migration; journals of another version are rejected).
// Bumping it forces this pin to be updated in the same change, making
// the reviewer confront the compatibility break explicitly.
static_assert(kSnapshotFormatVersion == 1,
              "journal record format changed: update this pin and "
              "note the break in DESIGN.md section 11");

// ---- ids: construction, validity, sentinels -----------------------
static_assert(KernelId{3}.get() == 3);
static_assert(KernelId{3}.idx() == 3u);
static_assert(KernelId{3}.valid());
static_assert(!KernelId{}.valid());
static_assert(KernelId{} == kInvalidKernel);
static_assert(SmId{} == kInvalidSm);
static_assert(WarpSlot{} == kInvalidWarpSlot);
static_assert(kInvalidKernel.get() == -1);
static_assert(kInvalidSm.get() == -1);
static_assert(kInvalidWarpSlot.get() == -1);
// Sentinel round-trip: rebuilding an id from a sentinel's raw value
// reproduces the sentinel (serialization safety).
static_assert(KernelId{kInvalidKernel.get()} == kInvalidKernel);
static_assert(SmId{kInvalidSm.get()} == kInvalidSm);
static_assert(WarpSlot{kInvalidWarpSlot.get()} == kInvalidWarpSlot);

// ---- ids: ordering and iteration ----------------------------------
static_assert(KernelId{0} < KernelId{1});
static_assert(KernelId{2} != KernelId{3});
static_assert(KernelId{2}.next() == KernelId{3});
static_assert(kInvalidKernel.next() == KernelId{0});

// ---- units: construction and default ------------------------------
static_assert(Cycle{}.get() == 0);
static_assert(Cycle{7}.get() == 7);
static_assert(Cycle::max() == kNeverCycle);
static_assert(kNeverCycle > Cycle{1u << 30});

// ---- units: arithmetic closure ------------------------------------
static_assert(Cycle{10} + Cycle{5} == Cycle{15});
static_assert(Cycle{10} - Cycle{4} == Cycle{6});
static_assert(Cycle{10} + 5 == Cycle{15});
static_assert(Cycle{10} - 4 == Cycle{6});
// Ratio and modulus of like quantities are dimensionless raw counts.
static_assert(std::is_same_v<decltype(Cycle{10} / Cycle{3}),
                             Cycle::rep_type>);
static_assert(Cycle{10} / Cycle{3} == 3);
static_assert(Cycle{10} % Cycle{3} == 1);
static_assert(Cycle{10} % 4 == 2);
static_assert(Addr{0x100} + Addr{0x20} == Addr{0x120});
static_assert(LineAddr{8} - LineAddr{3} == LineAddr{5});

// ---- address map: line/byte round-trip invariant ------------------
constexpr int kLineBytes = 128;
// lineByteBase is constexpr-free (inline), so exercise it at runtime;
// the divisibility identity itself is checkable statically.
static_assert((Addr{7 * 128}.get() % kLineBytes) == 0);

TEST(Types, LineAddrAlignmentInvariant)
{
    // For every byte address: lineByteBase(toLineAddr(a)) is the
    // unique line_bytes-aligned address <= a.
    for (std::uint64_t raw : {0ull, 1ull, 127ull, 128ull, 129ull,
                              4095ull, 0xdeadbeefull}) {
        const Addr a{raw};
        const LineAddr line = toLineAddr(a, kLineBytes);
        const Addr base = lineByteBase(line, kLineBytes);
        EXPECT_EQ(base.get() % kLineBytes, 0u);
        EXPECT_LE(base, a);
        EXPECT_LT((a - base).get(),
                  static_cast<std::uint64_t>(kLineBytes));
        EXPECT_EQ(toLineAddr(base, kLineBytes), line);
        EXPECT_EQ(lineBase(a, kLineBytes), base);
    }
}

TEST(Types, AdjacentBytesShareALineAcrossTheBoundary)
{
    EXPECT_EQ(toLineAddr(Addr{127}, kLineBytes), LineAddr{0});
    EXPECT_EQ(toLineAddr(Addr{128}, kLineBytes), LineAddr{1});
    EXPECT_EQ(lineByteBase(LineAddr{1}, kLineBytes), Addr{128});
}

TEST(Types, IdsHashAndWorkAsMapKeys)
{
    std::unordered_map<KernelId, int> per_kernel;
    per_kernel[KernelId{0}] = 10;
    per_kernel[KernelId{1}] = 20;
    per_kernel[kInvalidKernel] = -1;
    EXPECT_EQ(per_kernel.at(KernelId{1}), 20);
    EXPECT_EQ(per_kernel.at(kInvalidKernel), -1);
    EXPECT_EQ(per_kernel.size(), 3u);

    std::unordered_set<LineAddr> lines;
    lines.insert(LineAddr{42});
    lines.insert(LineAddr{42});
    lines.insert(LineAddr{43});
    EXPECT_EQ(lines.size(), 2u);
}

TEST(Types, UnitsIncrementAndAccumulate)
{
    Cycle t{};
    for (int i = 0; i < 5; ++i)
        ++t;
    EXPECT_EQ(t, Cycle{5});
    t += Cycle{10};
    EXPECT_EQ(t, Cycle{15});
    t += 5;
    EXPECT_EQ(t, Cycle{20});

    int iterations = 0;
    for (Cycle c{}; c < Cycle{3}; ++c)
        ++iterations;
    EXPECT_EQ(iterations, 3);
}

TEST(Types, StreamsAsRawValue)
{
    std::ostringstream os;
    os << KernelId{2} << ' ' << Cycle{100} << ' ' << kInvalidSm;
    EXPECT_EQ(os.str(), "2 100 -1");
}

} // namespace
} // namespace ckesim

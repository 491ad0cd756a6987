/**
 * @file
 * Unit tests for the MSHR table: allocation, merging, capacity and
 * release semantics, plus flat-table-vs-std::map oracle equivalence
 * under randomized and collision-heavy workloads (DESIGN.md §14).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "mem/mshr.hpp"
#include "sim/rng.hpp"

namespace ckesim {
namespace {

using IntMshr = MshrTable<int>;

/**
 * Mirror of the table's multiply-shift home-bucket computation, used
 * to construct collision-heavy address sets. @p capacity must match
 * the table's construction argument.
 */
std::size_t
oracleHome(LineAddr line, int capacity)
{
    std::size_t want =
        static_cast<std::size_t>(capacity > 0 ? capacity : 1) * 2;
    std::size_t n = 8;
    int log2n = 3;
    while (n < want) {
        n <<= 1;
        ++log2n;
    }
    const std::uint64_t h =
        static_cast<std::uint64_t>(line.get()) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> (64 - log2n));
}

/** First @p count line addresses whose home bucket is @p bucket. */
std::vector<LineAddr>
collidingLines(int capacity, std::size_t bucket, std::size_t count)
{
    std::vector<LineAddr> out;
    for (std::int64_t v = 1; out.size() < count; ++v)
        if (oracleHome(LineAddr{v}, capacity) == bucket)
            out.push_back(LineAddr{v});
    return out;
}

/** Collect a table's full contents through forEach, keyed by line. */
std::map<std::int64_t, std::vector<int>>
dumpTable(const IntMshr &t)
{
    std::map<std::int64_t, std::vector<int>> out;
    t.forEach([&](LineAddr line, const std::vector<int> &targets) {
        out[line.get()] = targets;
    });
    return out;
}

TEST(Mshr, AllocateAndPending)
{
    IntMshr t(4, 2);
    EXPECT_FALSE(t.pending(LineAddr{10}));
    EXPECT_TRUE(t.hasFree());
    t.allocate(LineAddr{10}, 1);
    EXPECT_TRUE(t.pending(LineAddr{10}));
    EXPECT_EQ(t.size(), 1);
}

TEST(Mshr, MergeCollectsTargets)
{
    IntMshr t(4, 4);
    t.allocate(LineAddr{10}, 1);
    t.merge(LineAddr{10}, 2);
    t.merge(LineAddr{10}, 3);
    const std::vector<int> targets = t.release(LineAddr{10});
    EXPECT_EQ(targets, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(t.pending(LineAddr{10}));
    EXPECT_EQ(t.size(), 0);
}

TEST(Mshr, MergeCapEnforced)
{
    IntMshr t(4, 2);
    t.allocate(LineAddr{10}, 1);
    EXPECT_TRUE(t.canMerge(LineAddr{10}));
    t.merge(LineAddr{10}, 2);
    EXPECT_FALSE(t.canMerge(LineAddr{10}));
}

TEST(Mshr, CapacityEnforced)
{
    IntMshr t(2, 8);
    t.allocate(LineAddr{1}, 0);
    t.allocate(LineAddr{2}, 0);
    EXPECT_FALSE(t.hasFree());
    t.release(LineAddr{1});
    EXPECT_TRUE(t.hasFree());
}

TEST(Mshr, IndependentLines)
{
    IntMshr t(8, 8);
    t.allocate(LineAddr{1}, 100);
    t.allocate(LineAddr{2}, 200);
    EXPECT_EQ(t.release(LineAddr{2}), std::vector<int>{200});
    EXPECT_TRUE(t.pending(LineAddr{1}));
    EXPECT_EQ(t.release(LineAddr{1}), std::vector<int>{100});
    EXPECT_TRUE(t.empty());
}

TEST(Mshr, Table1Capacity)
{
    // The paper's configuration: 128 MSHRs per SM.
    IntMshr t(128, 8);
    for (int i = 0; i < 128; ++i)
        t.allocate(LineAddr{i}, i);
    EXPECT_FALSE(t.hasFree());
    EXPECT_EQ(t.capacity(), 128);
    EXPECT_EQ(t.maxMerge(), 8);
}

// ---- flat-table-vs-map oracle equivalence -------------------------------

TEST(MshrOracle, RandomizedOpsMatchMapOracle)
{
    // Drive the open-addressing table and a std::map oracle with the
    // same operation stream; all observable state must stay equal.
    constexpr int kCapacity = 16;
    constexpr int kMaxMerge = 4;
    IntMshr t(kCapacity, kMaxMerge);
    std::map<std::int64_t, std::vector<int>> oracle;
    SimCtx ctx;
    ctx.module = "test_mshr";

    // Address universe: a sequential run plus a collision-heavy set
    // that all hash to one home bucket, so linear-probe chains and
    // backward-shift deletion are exercised constantly.
    std::vector<LineAddr> lines;
    for (std::int64_t v = 1000; v < 1024; ++v)
        lines.push_back(LineAddr{v});
    for (LineAddr l : collidingLines(kCapacity, 7, 12))
        lines.push_back(l);

    Rng rng(0x5EEDBEEFULL);
    int next_target = 0;
    for (int step = 0; step < 5000; ++step) {
        const LineAddr line =
            lines[static_cast<std::size_t>(rng.nextBelow(lines.size()))];
        const auto it = oracle.find(line.get());
        const std::uint64_t roll = rng.nextBelow(100);

        ASSERT_EQ(t.pending(line), it != oracle.end());
        if (roll < 40) {
            // Allocate-or-merge through the single-probe path.
            const IntMshr::MergeResult got = t.tryMerge(line, next_target);
            if (it == oracle.end()) {
                ASSERT_EQ(got, IntMshr::MergeResult::NoEntry);
                if (oracle.size() <
                    static_cast<std::size_t>(kCapacity)) {
                    ASSERT_TRUE(t.hasFree());
                    t.allocate(line, next_target);
                    oracle[line.get()] = {next_target};
                    ++next_target;
                } else {
                    ASSERT_FALSE(t.hasFree());
                }
            } else if (static_cast<int>(it->second.size()) >=
                       kMaxMerge) {
                ASSERT_EQ(got, IntMshr::MergeResult::Full);
            } else {
                ASSERT_EQ(got, IntMshr::MergeResult::Merged);
                it->second.push_back(next_target);
                ++next_target;
            }
        } else if (roll < 70) {
            // Separate-probe merge path.
            if (it != oracle.end() &&
                static_cast<int>(it->second.size()) < kMaxMerge) {
                ASSERT_TRUE(t.canMerge(line));
                t.merge(line, next_target);
                it->second.push_back(next_target);
                ++next_target;
            }
        } else if (it != oracle.end()) {
            // Fill: merged targets come back in merge order.
            ASSERT_EQ(t.firstTarget(line), it->second.front());
            ASSERT_EQ(t.release(line), it->second);
            oracle.erase(it);
        }

        ASSERT_EQ(t.size(), static_cast<int>(oracle.size()));
        ASSERT_EQ(t.empty(), oracle.empty());
        t.checkBalance(ctx);
    }
    ASSERT_EQ(dumpTable(t), oracle);
}

TEST(MshrOracle, CollisionChainSurvivesMiddleDeletions)
{
    // All entries share one home bucket: deleting out of the middle of
    // the probe chain must backward-shift so later entries stay
    // findable (no tombstones).
    constexpr int kCapacity = 8;
    IntMshr t(kCapacity, 2);
    const std::vector<LineAddr> chain =
        collidingLines(kCapacity, 3, 6);
    for (std::size_t i = 0; i < chain.size(); ++i)
        t.allocate(chain[i], static_cast<int>(i));

    // Release the middle pair, then the head, in that order.
    EXPECT_EQ(t.release(chain[2]), std::vector<int>{2});
    EXPECT_EQ(t.release(chain[3]), std::vector<int>{3});
    EXPECT_EQ(t.release(chain[0]), std::vector<int>{0});
    EXPECT_FALSE(t.pending(chain[0]));
    EXPECT_FALSE(t.pending(chain[2]));
    EXPECT_FALSE(t.pending(chain[3]));
    // Survivors must still resolve through the compacted chain.
    EXPECT_TRUE(t.pending(chain[1]));
    EXPECT_TRUE(t.pending(chain[4]));
    EXPECT_TRUE(t.pending(chain[5]));
    EXPECT_EQ(t.firstTarget(chain[4]), 4);
    // Reinsert into the freed space and verify nothing was orphaned.
    t.allocate(chain[0], 100);
    EXPECT_EQ(t.firstTarget(chain[0]), 100);
    EXPECT_EQ(t.size(), 4);
    const auto dump = dumpTable(t);
    EXPECT_EQ(dump.size(), 4u);
    EXPECT_EQ(dump.at(chain[5].get()), std::vector<int>{5});
}

} // namespace
} // namespace ckesim

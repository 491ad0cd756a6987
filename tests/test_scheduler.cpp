/**
 * @file
 * Unit tests for GTO and LRR warp schedulers (mask form of pick: bit
 * i of the issuable mask is the scheduler's local slot i).
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sm/scheduler.hpp"

namespace ckesim {
namespace {

/** Mask with exactly the local slots in @p locals set. */
std::uint64_t
maskOf(std::initializer_list<int> locals)
{
    std::uint64_t m = 0;
    for (int i : locals)
        m |= std::uint64_t{1} << i;
    return m;
}

/** All @p n local slots set. */
std::uint64_t
allOf(int n)
{
    return n == 64 ? ~std::uint64_t{0}
                   : (std::uint64_t{1} << n) - 1;
}

std::vector<std::uint64_t>
ascendingAges(int n)
{
    std::vector<std::uint64_t> ages(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        ages[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i);
    return ages;
}

TEST(Scheduler, SlotsAreStriped)
{
    WarpScheduler s0(0, 4, 16, SchedPolicy::GTO);
    WarpScheduler s1(1, 4, 16, SchedPolicy::GTO);
    ASSERT_EQ(s0.numSlots(), 4);
    ASSERT_EQ(s1.numSlots(), 4);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(s0.slotAt(i), WarpSlot{4 * i});
        EXPECT_EQ(s1.slotAt(i), WarpSlot{4 * i + 1});
        EXPECT_EQ(s1.localOf(s1.slotAt(i)), i);
    }
    // Uneven striping: 10 slots over 4 schedulers is 3/3/2/2.
    EXPECT_EQ(WarpScheduler(1, 4, 10, SchedPolicy::GTO).numSlots(), 3);
    EXPECT_EQ(WarpScheduler(2, 4, 10, SchedPolicy::GTO).numSlots(), 2);
    // The default machine: 96 warps over 4 schedulers.
    EXPECT_EQ(WarpScheduler(3, 4, 96, SchedPolicy::GTO).numSlots(), 24);
}

TEST(Scheduler, GtoPicksOldestFirst)
{
    WarpScheduler sched(0, 1, 4, SchedPolicy::GTO);
    const std::vector<std::uint64_t> ages = {30, 10, 20, 40};
    EXPECT_EQ(sched.pick(allOf(4), ages.data()), WarpSlot{1});
}

TEST(Scheduler, GtoGreedyHitAndMiss)
{
    WarpScheduler sched(0, 1, 4, SchedPolicy::GTO);
    const std::vector<std::uint64_t> ages = {10, 20, 5, 30};
    WarpSlot pick = sched.pick(allOf(4), ages.data());
    EXPECT_EQ(pick, WarpSlot{2});
    sched.onIssue(pick);
    // Hit: stays on warp 2 while it remains issuable, even though a
    // younger set of warps is issuable too.
    EXPECT_EQ(sched.pick(allOf(4), ages.data()), WarpSlot{2});
    // Miss: when 2 blocks, falls back to the next oldest.
    pick = sched.pick(maskOf({0, 1, 3}), ages.data());
    EXPECT_EQ(pick, WarpSlot{0});
    // A stale greedy slot (not issuable) never wins.
    sched.onIssue(WarpSlot{3});
    EXPECT_EQ(sched.pick(maskOf({0, 1, 2}), ages.data()), WarpSlot{2});
}

TEST(Scheduler, GtoEqualAgesGoToLowestSlot)
{
    // One TB's warps share an age; the lowest issuable slot wins.
    WarpScheduler sched(2, 4, 96, SchedPolicy::GTO);
    std::vector<std::uint64_t> ages(24, 7);
    ages[20] = 3; // older, but not issuable below
    EXPECT_EQ(sched.pick(maskOf({9, 5, 17}), ages.data()),
              sched.slotAt(5));
    EXPECT_EQ(sched.pick(maskOf({9, 5, 20}), ages.data()),
              sched.slotAt(20));
}

TEST(Scheduler, EmptyMaskPicksNothing)
{
    WarpScheduler gto(0, 1, 4, SchedPolicy::GTO);
    WarpScheduler lrr(0, 1, 4, SchedPolicy::LRR);
    const std::vector<std::uint64_t> ages = ascendingAges(4);
    gto.onIssue(WarpSlot{1});
    EXPECT_EQ(gto.pick(0, ages.data()), kInvalidWarpSlot);
    EXPECT_EQ(lrr.pick(0, ages.data()), kInvalidWarpSlot);
    // An empty pick leaves the LRR pointer where it was.
    EXPECT_EQ(lrr.pick(allOf(4), ages.data()), WarpSlot{0});
}

TEST(Scheduler, LrrRotates)
{
    WarpScheduler sched(0, 1, 4, SchedPolicy::LRR);
    const std::vector<std::uint64_t> ages = ascendingAges(4);
    std::vector<int> picks;
    for (int i = 0; i < 8; ++i) {
        const WarpSlot p = sched.pick(allOf(4), ages.data());
        picks.push_back(p.get());
        sched.onIssue(p);
    }
    EXPECT_EQ(picks, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(Scheduler, LrrSkipsBlockedWarpsAndWraps)
{
    WarpScheduler sched(0, 1, 4, SchedPolicy::LRR);
    const std::vector<std::uint64_t> ages = ascendingAges(4);
    const std::uint64_t odd = maskOf({1, 3});
    EXPECT_EQ(sched.pick(odd, ages.data()), WarpSlot{1});
    EXPECT_EQ(sched.pick(odd, ages.data()), WarpSlot{3});
    EXPECT_EQ(sched.pick(odd, ages.data()), WarpSlot{1});
    // Wrap-around from the last local slot of a 24-slot scheduler.
    WarpScheduler wide(1, 4, 96, SchedPolicy::LRR);
    std::vector<std::uint64_t> wide_ages(24, 0);
    EXPECT_EQ(wide.pick(maskOf({23}), wide_ages.data()),
              wide.slotAt(23));
    EXPECT_EQ(wide.pick(maskOf({2, 23}), wide_ages.data()),
              wide.slotAt(2));
}

/**
 * Reference pick: the predicate scan over every local slot that the
 * mask form replaced (greedy, then oldest with the first slot winning
 * ties; LRR from the pointer with wrap-around).
 */
struct ReferenceScheduler
{
    SchedPolicy policy;
    int n;
    int greedy = -1;
    int rr_next = 0;

    int
    pick(std::uint64_t issuable, const std::vector<std::uint64_t> &ages)
    {
        auto can = [&](int i) { return ((issuable >> i) & 1u) != 0; };
        if (policy == SchedPolicy::GTO) {
            if (greedy >= 0 && can(greedy))
                return greedy;
            int best = -1;
            for (int i = 0; i < n; ++i) {
                if (!can(i))
                    continue;
                if (best < 0 ||
                    ages[static_cast<std::size_t>(i)] <
                        ages[static_cast<std::size_t>(best)])
                    best = i;
            }
            return best;
        }
        for (int i = 0; i < n; ++i) {
            const int at = (rr_next + i) % n;
            if (can(at)) {
                rr_next = (at + 1) % n;
                return at;
            }
        }
        return -1;
    }
};

TEST(Scheduler, MaskPickMatchesReferenceScan)
{
    std::mt19937_64 rng(20180224);
    for (SchedPolicy policy : {SchedPolicy::GTO, SchedPolicy::LRR}) {
        for (int id = 0; id < 4; ++id) {
            WarpScheduler sched(id, 4, 96, policy);
            const int n = sched.numSlots();
            ASSERT_EQ(n, 24);
            ReferenceScheduler ref{policy, n};
            std::vector<std::uint64_t> ages(static_cast<std::size_t>(n));
            for (int step = 0; step < 4000; ++step) {
                // Few distinct ages, so ties are common.
                if (step % 64 == 0)
                    for (std::uint64_t &a : ages)
                        a = rng() % 6;
                // Sparse, dense and empty masks.
                std::uint64_t issuable = rng() & allOf(n);
                if (step % 3 == 0)
                    issuable &= rng();
                if (step % 17 == 0)
                    issuable = 0;
                const int want = ref.pick(issuable, ages);
                const WarpSlot got = sched.pick(issuable, ages.data());
                if (want < 0) {
                    ASSERT_EQ(got, kInvalidWarpSlot) << "step " << step;
                    continue;
                }
                ASSERT_EQ(got, sched.slotAt(want)) << "step " << step;
                // Record most picks as issued; skipping some leaves
                // an older greedy slot in place.
                if (rng() % 4 != 0) {
                    sched.onIssue(got);
                    ref.greedy = want;
                }
            }
        }
    }
}

} // namespace
} // namespace ckesim

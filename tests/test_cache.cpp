/**
 * @file
 * Unit tests for the set-associative tag array: LRU replacement,
 * allocate-on-miss reservation, way restrictions (UCP), owner
 * tracking, and equivalence with a struct-per-way reference array.
 */

#include <gtest/gtest.h>

#include "mem/cache.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace ckesim {
namespace {

/** Lines that all land in the same set of a 64-set array. */
LineAddr
sameSetLine(int num_sets, int set, int i)
{
    // Scan for the i-th line mapping to `set`.
    int found = 0;
    for (LineAddr line{};; ++line) {
        if (xorSetIndex(line, num_sets) == set) {
            if (found == i)
                return line;
            ++found;
        }
    }
}

TEST(CacheArray, ProbeMissOnEmpty)
{
    CacheArray c(64, 4);
    EXPECT_EQ(c.probe(LineAddr{123}), -1);
}

TEST(CacheArray, InstallThenHit)
{
    CacheArray c(64, 4);
    const LineAddr line{777};
    VictimResult v = c.chooseVictim(line, KernelId{0});
    ASSERT_TRUE(v.ok);
    c.install(c.setIndex(line), v.way, line, KernelId{0}, false);
    EXPECT_EQ(c.probe(line), v.way);
}

TEST(CacheArray, LruEvictsOldest)
{
    CacheArray c(64, 2);
    const int set = 5;
    const LineAddr a = sameSetLine(64, set, 0);
    const LineAddr b = sameSetLine(64, set, 1);
    const LineAddr d = sameSetLine(64, set, 2);

    VictimResult v = c.chooseVictim(a, KernelId{0});
    c.install(set, v.way, a, KernelId{0}, false);
    v = c.chooseVictim(b, KernelId{0});
    c.install(set, v.way, b, KernelId{0}, false);

    // Touch a so b is LRU.
    c.touch(set, c.probe(a));
    v = c.chooseVictim(d, KernelId{0});
    ASSERT_TRUE(v.ok);
    EXPECT_EQ(v.way, c.probe(b));
}

TEST(CacheArray, ReservedLinesAreNotVictims)
{
    CacheArray c(64, 2);
    const int set = 3;
    const LineAddr a = sameSetLine(64, set, 0);
    const LineAddr b = sameSetLine(64, set, 1);
    const LineAddr d = sameSetLine(64, set, 2);

    VictimResult v = c.chooseVictim(a, KernelId{0});
    c.reserve(set, v.way, a, KernelId{0});
    v = c.chooseVictim(b, KernelId{0});
    c.reserve(set, v.way, b, KernelId{0});

    // Both ways reserved: reservation failure.
    v = c.chooseVictim(d, KernelId{0});
    EXPECT_FALSE(v.ok);

    // Fill one; it becomes evictable again.
    c.fill(set, c.probe(a));
    v = c.chooseVictim(d, KernelId{0});
    ASSERT_TRUE(v.ok);
    EXPECT_EQ(v.way, c.probe(a));
}

TEST(CacheArray, FillMakesLineValid)
{
    CacheArray c(64, 4);
    const LineAddr line{42};
    VictimResult v = c.chooseVictim(line, KernelId{1});
    c.reserve(c.setIndex(line), v.way, line, KernelId{1});
    EXPECT_FALSE(c.valid(c.setIndex(line), v.way));
    c.fill(c.setIndex(line), v.way);
    EXPECT_TRUE(c.valid(c.setIndex(line), v.way));
    const CacheLine &l = c.line(c.setIndex(line), v.way);
    EXPECT_FALSE(l.reserved);
    EXPECT_EQ(l.owner, KernelId{1});
}

TEST(CacheArray, DirtyEvictionReported)
{
    CacheArray c(64, 1);
    const int set = 9;
    const LineAddr a = sameSetLine(64, set, 0);
    const LineAddr b = sameSetLine(64, set, 1);
    VictimResult v = c.chooseVictim(a, KernelId{0});
    c.install(set, v.way, a, KernelId{0}, /*dirty=*/true);
    v = c.chooseVictim(b, KernelId{0});
    ASSERT_TRUE(v.ok);
    EXPECT_TRUE(v.evicted_dirty);
    EXPECT_EQ(v.evicted_line, a);
}

TEST(CacheArray, InvalidateFreesWay)
{
    CacheArray c(64, 2);
    const LineAddr line{55};
    VictimResult v = c.chooseVictim(line, KernelId{0});
    c.install(c.setIndex(line), v.way, line, KernelId{0}, false);
    c.invalidate(c.setIndex(line), c.probe(line));
    EXPECT_EQ(c.probe(line), -1);
}

TEST(CacheArray, WayRestrictionsConfineVictims)
{
    CacheArray c(64, 4);
    c.restrictToWays(KernelId{0}, 0, 2); // kernel 0 -> ways [0,2)
    c.restrictToWays(KernelId{1}, 2, 2); // kernel 1 -> ways [2,4)
    const LineAddr line{1234};
    for (int i = 0; i < 10; ++i) {
        VictimResult v = c.chooseVictim(line + 64 * i, KernelId{0});
        ASSERT_TRUE(v.ok);
        EXPECT_LT(v.way, 2);
        v = c.chooseVictim(line + 64 * i, KernelId{1});
        ASSERT_TRUE(v.ok);
        EXPECT_GE(v.way, 2);
    }
}

TEST(CacheArray, WayRestrictionDoesNotBlockLookups)
{
    CacheArray c(64, 4);
    c.restrictToWays(KernelId{0}, 0, 2);
    c.restrictToWays(KernelId{1}, 2, 2);
    const LineAddr line{321};
    VictimResult v = c.chooseVictim(line, KernelId{1});
    c.install(c.setIndex(line), v.way, line, KernelId{1}, false);
    // Kernel 0 still *sees* kernel 1's line (UCP partitions
    // allocation, not visibility).
    EXPECT_GE(c.probe(line), 0);
}

TEST(CacheArray, ClearWayRestrictions)
{
    CacheArray c(64, 4);
    c.restrictToWays(KernelId{0}, 0, 1);
    c.clearWayRestrictions();
    bool saw_upper_way = false;
    for (int i = 0; i < 4; ++i) {
        const LineAddr line = sameSetLine(64, /*set=*/7, i);
        VictimResult v = c.chooseVictim(line, KernelId{0});
        ASSERT_TRUE(v.ok);
        c.install(c.setIndex(line), v.way, line, KernelId{0}, false);
        if (v.way > 0)
            saw_upper_way = true;
    }
    EXPECT_TRUE(saw_upper_way);
}

TEST(CacheArray, FullWidthRestrictionMeansUnrestricted)
{
    CacheArray c(64, 4);
    c.restrictToWays(KernelId{0}, 0, 4);
    const LineAddr line{99};
    VictimResult v = c.chooseVictim(line, KernelId{0});
    EXPECT_TRUE(v.ok);
}

TEST(CacheArray, OccupancyPerKernel)
{
    CacheArray c(64, 4);
    for (int i = 0; i < 6; ++i) {
        const LineAddr line{static_cast<std::uint64_t>(i) * 64 + 1};
        const KernelId owner{i % 2};
        VictimResult v = c.chooseVictim(line, owner);
        c.install(c.setIndex(line), v.way, line, owner, false);
    }
    EXPECT_EQ(c.occupancyOf(KernelId{0}), 3);
    EXPECT_EQ(c.occupancyOf(KernelId{1}), 3);
    EXPECT_EQ(c.occupancyOf(KernelId{2}), 0);
}

TEST(CacheArray, SentinelTagIsNeverPresent)
{
    CacheArray c(64, 4);
    EXPECT_EQ(c.probe(CacheArray::kNoLine), -1);
    const int set = c.setIndex(CacheArray::kNoLine);
    EXPECT_THROW(c.reserve(set, 0, CacheArray::kNoLine, KernelId{0}),
                 SimError);
    EXPECT_THROW(
        c.install(set, 0, CacheArray::kNoLine, KernelId{0}, false),
        SimError);
    // The neighbour of the sentinel is an ordinary line.
    const LineAddr edge = CacheArray::kNoLine - 1;
    c.install(c.setIndex(edge), 1, edge, KernelId{0}, false);
    EXPECT_EQ(c.probe(edge), 1);
    EXPECT_EQ(c.probe(CacheArray::kNoLine), -1);
}

// ---- split-tag-array-vs-struct-per-way oracle ----------------------------

/**
 * Reference tag array: one struct per way holding its tag and a stored
 * valid bit, scanned way by way. Same replacement and restriction
 * rules as CacheArray, written for clarity.
 */
class RefCache
{
  public:
    struct Way
    {
        LineAddr tag{};
        bool valid = false;
        bool reserved = false;
        bool dirty = false;
        KernelId owner = kInvalidKernel;
        std::uint64_t lru = 0;
    };

    RefCache(int num_sets, int assoc)
        : num_sets_(num_sets), assoc_(assoc),
          ways_(static_cast<std::size_t>(num_sets * assoc))
    {
    }

    int setIndex(LineAddr line) const
    {
        return xorSetIndex(line, num_sets_);
    }

    Way &at(int set, int way)
    {
        return ways_[static_cast<std::size_t>(set * assoc_ + way)];
    }

    int probe(LineAddr line)
    {
        const int set = setIndex(line);
        for (int w = 0; w < assoc_; ++w) {
            const Way &l = at(set, w);
            if ((l.valid || l.reserved) && l.tag == line)
                return w;
        }
        return -1;
    }

    VictimResult chooseVictim(LineAddr line, KernelId kernel)
    {
        const int set = setIndex(line);
        VictimResult res;
        for (int w = 0; w < assoc_; ++w) {
            const Way &l = at(set, w);
            if (!l.valid && !l.reserved && allowed(kernel, w)) {
                res.ok = true;
                res.way = w;
                return res;
            }
        }
        int best = -1;
        for (int w = 0; w < assoc_; ++w) {
            const Way &l = at(set, w);
            if (l.reserved || !allowed(kernel, w))
                continue;
            if (best < 0 || l.lru < at(set, best).lru)
                best = w;
        }
        if (best < 0)
            return res;
        res.ok = true;
        res.way = best;
        if (at(set, best).valid && at(set, best).dirty) {
            res.evicted_dirty = true;
            res.evicted_line = at(set, best).tag;
        }
        return res;
    }

    void touch(int set, int way) { at(set, way).lru = ++tick_; }

    void reserve(int set, int way, LineAddr line, KernelId kernel)
    {
        at(set, way) = Way{line, false, true, false, kernel, ++tick_};
    }

    void fill(int set, int way, bool dirty)
    {
        Way &l = at(set, way);
        l.reserved = false;
        l.valid = true;
        l.dirty = dirty;
        l.lru = ++tick_;
    }

    void install(int set, int way, LineAddr line, KernelId kernel,
                 bool dirty)
    {
        at(set, way) = Way{line, true, false, dirty, kernel, ++tick_};
    }

    void invalidate(int set, int way)
    {
        Way &l = at(set, way);
        l.valid = false;
        l.reserved = false;
        l.dirty = false;
    }

    /** A zero-width or full-width range means unrestricted. */
    void restrictToWays(KernelId kernel, int first, int count)
    {
        if (kernel.idx() >= restrict_.size())
            restrict_.resize(kernel.idx() + 1, {0, 0});
        restrict_[kernel.idx()] = {first, count >= assoc_ ? 0 : count};
    }

    void clearWayRestrictions() { restrict_.clear(); }

    int occupancyOf(KernelId kernel) const
    {
        int n = 0;
        for (const Way &l : ways_)
            if (l.valid && l.owner == kernel)
                ++n;
        return n;
    }

  private:
    bool allowed(KernelId kernel, int way) const
    {
        if (kernel.idx() >= restrict_.size())
            return true;
        const auto [first, count] = restrict_[kernel.idx()];
        return count == 0 || (way >= first && way < first + count);
    }

    int num_sets_;
    int assoc_;
    std::vector<Way> ways_;
    std::vector<std::pair<int, int>> restrict_;
    std::uint64_t tick_ = 0;
};

void
expectVictimsEqual(const VictimResult &got, const VictimResult &want)
{
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.way, want.way);
    EXPECT_EQ(got.evicted_dirty, want.evicted_dirty);
    EXPECT_EQ(got.evicted_line, want.evicted_line);
}

void
runAgainstReference(int assoc, std::uint64_t seed)
{
    constexpr int kSets = 4;
    constexpr int kKernels = 3;
    CacheArray c(kSets, assoc);
    RefCache ref(kSets, assoc);

    // Line universe: about two sets' worth of lines per set, half of
    // them small and half right below the empty-tag sentinel.
    std::vector<LineAddr> lines;
    const int per_half = kSets * assoc;
    for (int i = 0; i < per_half; ++i) {
        lines.push_back(LineAddr{i * 7 + 1});
        lines.push_back(CacheArray::kNoLine - (i + 1));
    }

    Rng rng(seed);
    auto pick = [&](std::uint64_t n) {
        return static_cast<int>(rng.nextBelow(n));
    };
    for (int step = 0; step < 4000; ++step) {
        const LineAddr line =
            lines[static_cast<std::size_t>(pick(lines.size()))];
        const KernelId kernel{pick(kKernels)};
        const int set = c.setIndex(line);
        const int way = c.probe(line);
        ASSERT_EQ(way, ref.probe(line));
        const int roll = pick(100);

        if (roll < 35) {
            // Allocate on a miss: reserve (L1D/L2 read) or install.
            if (way >= 0)
                continue;
            const VictimResult v = c.chooseVictim(line, kernel);
            expectVictimsEqual(v, ref.chooseVictim(line, kernel));
            if (!v.ok)
                continue;
            if (pick(2) == 0) {
                c.reserve(set, v.way, line, kernel);
                ref.reserve(set, v.way, line, kernel);
            } else {
                const bool dirty = pick(2) == 0;
                c.install(set, v.way, line, kernel, dirty);
                ref.install(set, v.way, line, kernel, dirty);
            }
        } else if (roll < 55) {
            if (way >= 0 && c.line(set, way).reserved) {
                const bool dirty = pick(2) == 0;
                c.fill(set, way, dirty);
                ref.fill(set, way, dirty);
            }
        } else if (roll < 75) {
            if (way >= 0) {
                c.touch(set, way);
                ref.touch(set, way);
            }
        } else if (roll < 90) {
            if (way >= 0) {
                c.invalidate(set, way);
                ref.invalidate(set, way);
            }
        } else if (roll < 98) {
            const int first = pick(static_cast<std::uint64_t>(assoc));
            const int count =
                pick(static_cast<std::uint64_t>(assoc - first + 1));
            c.restrictToWays(kernel, first, count);
            ref.restrictToWays(kernel, first, count);
        } else {
            c.clearWayRestrictions();
            ref.clearWayRestrictions();
        }

        // Everything observable must agree after every step.
        ASSERT_EQ(c.probe(CacheArray::kNoLine), -1);
        for (LineAddr l : lines)
            ASSERT_EQ(c.probe(l), ref.probe(l)) << "step " << step;
        for (int s = 0; s < kSets; ++s)
            for (int w = 0; w < assoc; ++w) {
                const RefCache::Way &r = ref.at(s, w);
                ASSERT_EQ(c.valid(s, w), r.valid);
                ASSERT_EQ(c.line(s, w).reserved, r.reserved);
                ASSERT_EQ(c.line(s, w).dirty, r.dirty);
                ASSERT_EQ(c.line(s, w).owner, r.owner);
            }
        for (int k = 0; k < kKernels; ++k) {
            const KernelId kk{k};
            const LineAddr probe_line =
                lines[static_cast<std::size_t>(pick(lines.size()))];
            expectVictimsEqual(c.chooseVictim(probe_line, kk),
                               ref.chooseVictim(probe_line, kk));
            ASSERT_EQ(c.occupancyOf(kk), ref.occupancyOf(kk));
        }
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(CacheArrayOracle, RandomizedOpsMatchStructPerWayAssoc6)
{
    runAgainstReference(6, 0xCAC4E6ULL);
    runAgainstReference(6, 0x6A55C0ULL);
}

TEST(CacheArrayOracle, RandomizedOpsMatchStructPerWayAssoc16)
{
    runAgainstReference(16, 0xCAC4E16ULL);
    runAgainstReference(16, 0x16A55C0ULL);
}

} // namespace
} // namespace ckesim

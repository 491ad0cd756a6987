/**
 * @file
 * UCP — Utility-based Cache Partitioning (Qureshi & Patt, MICRO'06) —
 * the CPU-style L1D way-partitioning baseline the paper evaluates and
 * rejects in Section 3.1.
 *
 * Per kernel, a UMON (utility monitor) samples a subset of sets with
 * full-associativity shadow tags and per-recency-position hit
 * counters; the lookahead algorithm then assigns ways to kernels by
 * marginal utility. Partitions constrain victim selection only.
 */

#ifndef CKESIM_CORE_UCP_HPP
#define CKESIM_CORE_UCP_HPP

#include <cstdint>
#include <vector>

#include "mem/address.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** Shadow-tag utility monitor for one kernel on one SM's L1D. */
class UmonMonitor
{
  public:
    /**
     * @param num_sets sets of the monitored cache
     * @param assoc ways of the monitored cache
     * @param sample_shift monitor every 2^sample_shift-th set
     */
    UmonMonitor(int num_sets, int assoc, int sample_shift = 2);

    /** Observe a serviced access to @p line_number. */
    void access(LineAddr line_number);

    /** Hits at each LRU stack position (way utility). */
    const std::vector<std::uint64_t> &wayHits() const
    {
        return way_hits_;
    }
    std::uint64_t misses() const { return misses_; }

    /** Expected hits if this kernel had @p ways ways. */
    std::uint64_t utilityAt(int ways) const;

    /** Halve all counters (periodic aging between repartitions). */
    void age();

  private:
    int num_sets_;
    int assoc_;
    int sample_shift_;
    /** shadow_tags_[sampled_set] = MRU-first line list. */
    std::vector<std::vector<LineAddr>> shadow_tags_;
    std::vector<std::uint64_t> way_hits_;
    std::uint64_t misses_ = 0;
};

/**
 * UCP lookahead partitioning: distribute @p assoc ways over kernels
 * by greedy marginal utility; every kernel receives at least one way.
 */
std::vector<int>
ucpLookaheadPartition(const std::vector<const UmonMonitor *> &monitors,
                      int assoc);

} // namespace ckesim

#endif // CKESIM_CORE_UCP_HPP

/**
 * @file
 * Warp schedulers (Table 1: 4 Greedy-Then-Oldest schedulers per SM;
 * Loose Round Robin for the Section 4.3 sensitivity study).
 *
 * Warp slots are statically striped across schedulers (slot %
 * num_schedulers), as in GPGPU-Sim. A scheduler works on *local*
 * slot indices: local slot i is warp slot id + i * num_schedulers,
 * and bit i of a 64-bit mask names it (GpuConfig::validate() bounds
 * max_warps at 64 * num_schedulers, so one word always suffices).
 */

#ifndef CKESIM_SM_SCHEDULER_HPP
#define CKESIM_SM_SCHEDULER_HPP

#include <bit>
#include <cstdint>

#include "sim/config.hpp"
#include "sm/warp.hpp"

namespace ckesim {

/** One issue slice of an SM. */
class WarpScheduler
{
  public:
    WarpScheduler(int id, int num_schedulers, int max_warps,
                  SchedPolicy policy);

    /**
     * Pick the warp slot to issue from this cycle, or
     * kInvalidWarpSlot when @p issuable is empty.
     *
     * @param issuable local slots that are Ready *and* pass every
     *        structural/CKE gate for their next instruction
     * @param ages TB dispatch age per local slot (GTO "oldest"; the
     *        SM passes its dense age mirror, DESIGN.md §14)
     */
    WarpSlot pick(std::uint64_t issuable, const std::uint64_t *ages);

    /** Record the issued slot (GTO greediness). */
    void onIssue(WarpSlot slot) { greedy_ = localOf(slot); }

    int id() const { return id_; }
    int numSlots() const { return num_slots_; }
    /** Warp slot of local slot @p local. */
    WarpSlot slotAt(int local) const
    {
        return WarpSlot{id_ + local * stride_};
    }
    /** Local slot of warp slot @p slot (which must be this one's). */
    int localOf(WarpSlot slot) const { return slot.get() / stride_; }

  private:
    static constexpr int kNoGreedy = -1;

    int id_;
    int stride_;
    int num_slots_;
    SchedPolicy policy_;
    int greedy_ = kNoGreedy;
    int rr_next_ = 0;
};

inline WarpSlot
WarpScheduler::pick(std::uint64_t issuable, const std::uint64_t *ages)
{
    if (issuable == 0)
        return kInvalidWarpSlot;
    if (policy_ == SchedPolicy::GTO) {
        // Greedy: stick to the last-issued warp while it can go.
        if (greedy_ != kNoGreedy && ((issuable >> greedy_) & 1u) != 0)
            return slotAt(greedy_);
        // Then oldest (smallest TB age); ascending walk, so an equal
        // age keeps the lowest slot.
        int best = std::countr_zero(issuable);
        std::uint64_t best_age = ages[best];
        for (std::uint64_t rest = issuable & (issuable - 1); rest != 0;
             rest &= rest - 1) {
            const int at = std::countr_zero(rest);
            if (ages[at] < best_age) {
                best = at;
                best_age = ages[at];
            }
        }
        return slotAt(best);
    }
    // LRR: the first issuable slot at or after the pointer, wrapping.
    const std::uint64_t from = issuable & (~std::uint64_t{0} << rr_next_);
    const int at = std::countr_zero(from != 0 ? from : issuable);
    rr_next_ = (at + 1) % num_slots_;
    return slotAt(at);
}

} // namespace ckesim

#endif // CKESIM_SM_SCHEDULER_HPP

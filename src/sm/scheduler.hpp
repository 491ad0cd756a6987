/**
 * @file
 * Warp schedulers (Table 1: 4 Greedy-Then-Oldest schedulers per SM;
 * Loose Round Robin for the Section 4.3 sensitivity study).
 *
 * Warp slots are statically striped across schedulers (slot %
 * num_schedulers), as in GPGPU-Sim.
 */

#ifndef CKESIM_SM_SCHEDULER_HPP
#define CKESIM_SM_SCHEDULER_HPP

#include <vector>

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
     * kInvalidWarpSlot.
     *
     * @param warps the SM's warp table, or any table whose
     *        operator[] yields a record with an `age` member (the
     *        SM passes its dense scan-age mirror, DESIGN.md §14)
     * @param can_issue predicate: slot is ready *and* passes every
     *        structural/CKE gate for its next instruction
     */
    template <typename WarpTable, typename CanIssue>
    WarpSlot
    pick(const WarpTable &warps, const CanIssue &can_issue)
    {
        if (policy_ == SchedPolicy::GTO) {
            // Greedy: stick to the last-issued warp while it can go.
            if (greedy_.valid() && can_issue(greedy_))
                return greedy_;
            // Then oldest (smallest TB age; slot index tie-break).
            WarpSlot best = kInvalidWarpSlot;
            std::uint64_t best_age = 0;
            for (WarpSlot slot : slots_) {
                if (!can_issue(slot))
                    continue;
                const std::uint64_t age = warps[slot.idx()].age;
                if (!best.valid() || age < best_age) {
                    best = slot;
                    best_age = age;
                }
            }
            return best;
        }
        // LRR: scan from one past the last pick.
        const std::size_t n = slots_.size();
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t at = (rr_next_ + i) % n;
            if (can_issue(slots_[at])) {
                rr_next_ = (at + 1) % n;
                return slots_[at];
            }
        }
        return kInvalidWarpSlot;
    }

    /** Record the issued slot (GTO greediness). */
    void onIssue(WarpSlot slot) { greedy_ = slot; }

    /** The issued warp can no longer issue (blocked/finished). */
    void
    clearGreedyIf(WarpSlot slot)
    {
        if (greedy_ == slot)
            greedy_ = kInvalidWarpSlot;
    }

    int id() const { return id_; }
    const std::vector<WarpSlot> &slots() const { return slots_; }

  private:
    int id_;
    SchedPolicy policy_;
    std::vector<WarpSlot> slots_;
    WarpSlot greedy_ = kInvalidWarpSlot;
    std::size_t rr_next_ = 0;
};

} // namespace ckesim

#endif // CKESIM_SM_SCHEDULER_HPP

/**
 * @file
 * L1 data cache front-end: tag array + MSHRs + miss queue, with the
 * paper's reservation-failure semantics (Section 2.1).
 *
 * Policy (Table 1): xor-indexing, allocate-on-miss, LRU, WEWN
 * (write-evict, write-no-allocate). A read miss must secure a victim
 * line slot, an MSHR (or merge slot) and a miss-queue entry; a write
 * needs a miss-queue entry only. Any shortage is a reservation failure
 * and the access must be retried, stalling the in-order LSU.
 *
 * Hot-path layout (DESIGN.md §14): the miss queue is a fixed-capacity
 * ring buffer and the miss's owning kernel is *derived* from its MSHR
 * entry's first merged target (allocate() always seeds the merge list
 * with the allocating request), so the separate miss-owner hash map —
 * a second lookup per miss — no longer exists.
 */

#ifndef CKESIM_MEM_L1D_HPP
#define CKESIM_MEM_L1D_HPP

#include <vector>

#include "mem/cache.hpp"
#include "mem/mshr.hpp"
#include "mem/request.hpp"
#include "sim/config.hpp"
#include "sim/ringbuf.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** Bookkeeping attached to each outstanding L1D read request. */
struct L1Target
{
    WarpSlot warp_slot = kInvalidWarpSlot; ///< SM warp-table slot to notify
    KernelId kernel = kInvalidKernel;
};

/** Outcome of one L1D access attempt. */
struct L1Outcome
{
    enum class Kind {
        Hit,         ///< data returned after hit_latency
        MissToL2,    ///< new MSHR allocated, request queued to L2
        MergedMshr,  ///< merged into an outstanding miss
        WriteQueued, ///< write-through accepted into miss queue
        RsFail,      ///< reservation failure: retry next cycle
    };
    Kind kind = Kind::RsFail;
    RsFailReason fail = RsFailReason::None;

    bool serviced() const { return kind != Kind::RsFail; }
};

/**
 * One SM's L1 data cache. Untimed internally; the owning LSU applies
 * hit latency and retry timing.
 */
class L1Dcache
{
  public:
    L1Dcache(const L1dConfig &cfg, SmId sm_id);

    /**
     * Attempt one coalesced line access.
     * @param line line to access
     * @param kernel issuing kernel (owns allocation, stats)
     * @param write true for a store (WEWN path)
     * @param target wakeup bookkeeping for loads
     * @param now current cycle (stamped on downstream requests)
     */
    L1Outcome access(LineAddr line, KernelId kernel, bool write,
                     const L1Target &target, Cycle now);

    /** Front of the miss queue, if any (does not pop). */
    const MemRequest *peekMissQueue() const
    {
        return miss_queue_.empty() ? nullptr : &miss_queue_.front();
    }

    /** Pop the miss-queue head after a successful downstream inject. */
    void popMissQueue() { miss_queue_.pop_front(); }

    /**
     * A fill returned from L2 for @p line: make the reserved line
     * valid and collect every merged target to wake into @p out
     * (cleared first). Allocation-free on the steady state.
     */
    void fill(LineAddr line, std::vector<L1Target> &out);

    /** Convenience wrapper for tests and cold paths. */
    std::vector<L1Target>
    fill(LineAddr line)
    {
        std::vector<L1Target> out;
        fill(line, out);
        return out;
    }

    /** UCP hook: constrain kernel to a contiguous way range. */
    void restrictKernelWays(KernelId kernel, int first, int count)
    {
        tags_.restrictToWays(kernel, first, count);
    }

    void clearWayRestrictions() { tags_.clearWayRestrictions(); }

    /**
     * Section 4.5 ablation: cap the MSHRs kernel @p kernel may hold
     * (0 = unlimited). The paper argues such partitioning cannot
     * help because the in-order LSU still blocks behind a saturated
     * co-runner's accesses.
     */
    void
    setMshrQuota(KernelId kernel, int quota)
    {
        if (kernel.idx() >= mshr_quota_.size())
            mshr_quota_.resize(kernel.idx() + 1, 0);
        mshr_quota_[kernel.idx()] = quota;
    }

    /**
     * Section 4.5 ablation: bypass the L1D for kernel @p kernel's
     * read misses — they take an MSHR and a miss-queue entry but no
     * cache line slot, and fills are not installed.
     */
    void
    setBypass(KernelId kernel, bool bypass)
    {
        if (kernel.idx() >= bypass_.size())
            bypass_.resize(kernel.idx() + 1, false);
        bypass_[kernel.idx()] = bypass;
    }

    /** MSHRs currently held by @p kernel (quota accounting). */
    int
    mshrsHeldBy(KernelId kernel) const
    {
        return kernel.idx() < mshr_held_.size()
                   ? mshr_held_[kernel.idx()]
                   : 0;
    }

    CacheArray &tags() { return tags_; }
    const CacheArray &tags() const { return tags_; }
    int mshrsInUse() const { return mshrs_.size(); }
    int missQueueSize() const
    {
        return static_cast<int>(miss_queue_.size());
    }

    // ---- integrity layer ------------------------------------------------
    /** Lifetime MSHR allocations (conservation ledger). */
    std::uint64_t mshrAllocated() const
    {
        return mshrs_.totalAllocated();
    }
    /** Lifetime MSHR releases by fills (conservation ledger). */
    std::uint64_t mshrReleased() const
    {
        return mshrs_.totalReleased();
    }

    /**
     * Occupancy-bound and ledger invariants. Cheap enough to run
     * every integrity sweep; throws SimError on violation.
     */
    void checkInvariants(Cycle now) const;

    /** Drained-state check for Gpu::audit(): nothing outstanding. */
    void checkDrained(Cycle now) const;

  private:
    bool bypassed(KernelId kernel) const
    {
        return kernel.idx() < bypass_.size() && bypass_[kernel.idx()];
    }
    bool mshrQuotaExceeded(KernelId kernel) const;

    L1dConfig cfg_;
    SmId sm_id_;
    CacheArray tags_;
    MshrTable<L1Target> mshrs_;
    RingBuf<MemRequest> miss_queue_;
    /** Per-kernel MSHR caps (0 = unlimited) and current holdings. */
    std::vector<int> mshr_quota_;
    std::vector<int> mshr_held_;
    std::vector<bool> bypass_;
};

} // namespace ckesim

#endif // CKESIM_MEM_L1D_HPP

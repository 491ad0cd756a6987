/**
 * @file
 * LSU (Load/Store Unit): the SM's in-order memory pipeline front-end.
 *
 * Warp memory instructions enter a small queue; the head instruction
 * issues one coalesced line request per cycle into the L1D. A
 * reservation failure leaves the request at the head and stalls the
 * whole unit — the paper's "memory pipeline stall", which penalizes
 * *every* co-running kernel because the queue is shared and in-order
 * (Sections 2.5 and 4.5).
 */

#ifndef CKESIM_SM_LSU_HPP
#define CKESIM_SM_LSU_HPP

#include <vector>

#include "mem/l1d.hpp"
#include "sim/profiler.hpp"
#include "sim/ringbuf.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** SM-side sink for LSU events. */
class LsuHost
{
  public:
    virtual ~LsuHost() = default;
    /** A load request hit; the warp's data arrives at @p ready_at. */
    virtual void lsuHitReturn(WarpSlot warp_slot, KernelId k,
                              Cycle ready_at) = 0;
    /** All of an entry's requests were accepted by the L1D. */
    virtual void lsuEntryDrained(WarpSlot warp_slot, KernelId k,
                                 bool is_store) = 0;
    /** A request for @p line was serviced (stats + QBMI/MILG/UMON). */
    virtual void lsuAccessServiced(KernelId k, LineAddr line,
                                   const L1Outcome &outcome) = 0;
    /** The head request failed reservation this cycle. */
    virtual void lsuReservationFailure(KernelId k,
                                       RsFailReason reason) = 0;
};

/** The shared, in-order memory instruction queue of one SM. */
class Lsu
{
  public:
    /** @p sm_id is diagnostic context only (invalid = standalone). */
    Lsu(int queue_depth, int hit_latency, SmId sm_id = kInvalidSm);

    bool hasRoom() const
    {
        return static_cast<int>(queue_.size()) < depth_;
    }

    /** Admit one warp memory instruction (its coalesced lines). */
    void enqueue(WarpSlot warp_slot, KernelId kernel, bool is_store,
                 const std::vector<LineAddr> &lines);

    /**
     * Service at most one line request from the head entry.
     * @return true when the head stalled on a reservation failure.
     */
    bool tick(Cycle now, L1Dcache &l1d, LsuHost &host);

    bool empty() const { return queue_.empty(); }
    int size() const { return static_cast<int>(queue_.size()); }

    /** Kernel owning the head entry (kInvalidKernel when empty). */
    KernelId headKernel() const
    {
        return queue_.empty() ? kInvalidKernel : queue_.front().kernel;
    }

    /** Attach a cycle-cost profiler (nullptr detaches). */
    void setProfiler(Profiler *prof) { prof_ = prof; }

  private:
    struct Entry
    {
        WarpSlot warp_slot = kInvalidWarpSlot;
        KernelId kernel = kInvalidKernel;
        bool is_store = false;
        std::vector<LineAddr> lines;
        std::size_t next = 0;
    };

    int depth_;
    int hit_latency_;
    SmId sm_id_;
    Profiler *prof_ = nullptr;
    RingBuf<Entry> queue_; ///< flat hot queue (DESIGN.md §14)
};

} // namespace ckesim

#endif // CKESIM_SM_LSU_HPP

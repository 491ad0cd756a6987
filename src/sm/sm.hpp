/**
 * @file
 * The streaming multiprocessor: TB dispatch with static resource
 * accounting, warp schedulers, execution latencies, the shared LSU /
 * L1D front-end, and the per-SM CKE issue controller.
 *
 * Intra-SM sharing: thread blocks from several kernels are resident at
 * once (per-kernel TB quotas from the partition policy); all warps
 * share the schedulers, LSU and L1D — the interference arena of the
 * paper.
 */

#ifndef CKESIM_SM_SM_HPP
#define CKESIM_SM_SM_HPP

#include <queue>
#include <vector>

#include "core/issue_policy.hpp"
#include "kernels/profile.hpp"
#include "mem/l1d.hpp"
#include "mem/memsys.hpp"
#include "sim/config.hpp"
#include "sim/profiler.hpp"
#include "sim/stats.hpp"
#include "sim/time_series.hpp"
#include "sm/lsu.hpp"
#include "sm/scheduler.hpp"
#include "sm/warp.hpp"

namespace ckesim {

/** One SM executing thread blocks from up to kMaxKernelsPerSm kernels. */
class Sm : public LsuHost
{
  public:
    Sm(const GpuConfig &cfg, SmId sm_id, MemorySystem &mem,
       std::vector<const KernelProfile *> kernels,
       const IssuePolicyConfig &policy);

    /** Set how many TBs of kernel @p k may be resident (partition). */
    void setTbQuota(KernelId k, int quota);
    int tbQuota(KernelId k) const
    {
        return ctx_[k.idx()].quota;
    }

    /** Advance one core cycle. */
    void tick(Cycle now);

    /**
     * Audit-drain cycle: deliver fills, process wakes, service the
     * LSU and inject queued misses, but dispatch no TB and issue no
     * instruction. Used by Gpu::audit() to retire outstanding state
     * without creating new work. Does not advance stats counters.
     */
    void drainTick(Cycle now);

    /** Zero all counters (phase changes keep warp/cache state). */
    void resetStats();

    // ---- inspection ----------------------------------------------------
    int numKernels() const { return static_cast<int>(ctx_.size()); }
    const KernelProfile &profile(KernelId k) const
    {
        return *ctx_[k.idx()].prof;
    }
    const KernelStats &kernelStats(KernelId k) const
    {
        return ctx_[k.idx()].stats;
    }
    const SmStats &smStats() const { return sm_stats_; }
    int residentTbs(KernelId k) const
    {
        return ctx_[k.idx()].resident;
    }
    IssueController &controller() { return controller_; }
    const IssueController &controller() const { return controller_; }
    L1Dcache &l1d() { return l1d_; }
    const L1Dcache &l1d() const { return l1d_; }
    const Lsu &lsu() const { return lsu_; }
    SmId smId() const { return sm_id_; }

    // ---- integrity layer ------------------------------------------------
    /** Attach a fault injector (nullptr = fault-free operation). */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /** Attach a cycle-cost profiler (nullptr detaches). */
    void
    setProfiler(Profiler *prof)
    {
        prof_ = prof;
        lsu_.setProfiler(prof);
    }

    /** Lifetime progress events: instructions issued + load requests
     *  returned. Monotonic (never reset); the watchdog's signal. */
    std::uint64_t progressCount() const
    {
        return lifetime_issued_ + lifetime_returns_;
    }

    /** Anything resident, queued or in flight on this SM? */
    bool hasWork() const;

    /** Memory-side quiescence: no LSU entries, allocated MSHRs,
     *  queued misses, pending wakes or outstanding warp requests. */
    bool memDrained() const;

    /** Occupancy-bound and accounting invariants (integrity sweep). */
    void checkInvariants(Cycle now) const;

    /** Drained-state check for Gpu::audit(). */
    void checkDrained(Cycle now) const;

    /** One-line occupancy dump for watchdog diagnostics. */
    std::string describeState() const;

    /** Attach per-kernel samplers (Figures 6 and 8); may be null. */
    void setIssueSeries(KernelId k, TimeSeries *ts)
    {
        ctx_[k.idx()].issue_series = ts;
    }
    void setL1dSeries(KernelId k, TimeSeries *ts)
    {
        ctx_[k.idx()].l1d_series = ts;
    }

    /** Observer of every serviced L1D access (UCP's UMON taps here). */
    using AccessObserver = void (*)(void *, KernelId, LineAddr);
    void
    setAccessObserver(AccessObserver fn, void *opaque)
    {
        access_observer_ = fn;
        access_observer_opaque_ = opaque;
    }

    // ---- LsuHost --------------------------------------------------------
    void lsuHitReturn(WarpSlot warp_slot, KernelId k,
                      Cycle ready_at) override;
    void lsuEntryDrained(WarpSlot warp_slot, KernelId k,
                         bool is_store) override;
    void lsuAccessServiced(KernelId k, LineAddr line,
                           const L1Outcome &outcome) override;
    void lsuReservationFailure(KernelId k, RsFailReason reason) override;

  private:
    struct KernelCtx
    {
        const KernelProfile *prof = nullptr;
        int quota = 0;
        int resident = 0;
        std::uint64_t tb_seq = 0;
        KernelStats stats;
        TimeSeries *issue_series = nullptr; // owned by the experiment
        TimeSeries *l1d_series = nullptr;   // owned by the experiment
    };

    struct Resources
    {
        int regs = 0;
        int smem = 0;
        int threads = 0;
        int tbs = 0;
        int warps = 0;
    };

    void drainFills(Cycle now);
    void processWakes(Cycle now);
    void preScan(Cycle now,
                 std::array<bool, kMaxKernelsPerSm> &mem_demand);
    void tryDispatch(Cycle now);
    bool resourcesFit(const KernelProfile &prof) const;
    bool launchTb(KernelId k);
    void issueFrom(WarpSlot slot, Cycle now);
    void requestReturned(WarpSlot warp_slot, Cycle now);
    void retireWarp(WarpSlot slot);

    // ---- dense scan block (DESIGN.md §14) ---------------------------
    // The per-cycle scheduler picks never read the ~176-byte Warp
    // records: they work from per-scheduler bitmasks (bit i = local
    // slot i of that scheduler) and a dense age mirror. Derived from
    // warps_ — resynced by syncScan() on every transition.
    static constexpr std::uint8_t kScanStateMask = 0x07;
    static constexpr std::uint8_t kScanMemBit = 0x08;
    static constexpr int kScanKernelShift = 4;
    static constexpr std::uint8_t kScanReadyMem =
        static_cast<std::uint8_t>(WarpState::Ready) | kScanMemBit;

    /** One scheduler's slot masks. */
    struct IssueMasks
    {
        std::uint64_t ready = 0; ///< state == Ready
        std::uint64_t mem = 0;   ///< next instruction is global-mem
        /** Slots whose (packed) kernel is k; free slots sit in k=0. */
        std::array<std::uint64_t, kMaxKernelsPerSm> kern{};
        std::vector<std::uint64_t> age; ///< TB age per local slot
    };

    /** Where a warp slot lives in the masks (looked up, not divided
     *  out, on every transition). */
    struct SlotHome
    {
        std::uint32_t sched = 0; ///< slot % num_schedulers
        std::uint32_t local = 0; ///< slot / num_schedulers (bit index)
    };

    static std::uint8_t
    packScanMeta(const Warp &w)
    {
        const unsigned kern =
            w.kernel.valid() ? static_cast<unsigned>(w.kernel.idx())
                             : 0u;
        return static_cast<std::uint8_t>(
            static_cast<unsigned>(w.state) |
            (w.next_is_mem ? kScanMemBit : 0u) |
            (kern << kScanKernelShift));
    }

    /** Mirror slot @p s of warps_ into the scan block: its
     *  scheduler's masks and age, and the per-kernel Ready-with-mem
     *  counters (incremental mem_demand). */
    void
    syncScan(std::size_t s)
    {
        const Warp &w = warps_[s];
        const std::uint8_t old = scan_meta_[s];
        const std::uint8_t neu = packScanMeta(w);
        constexpr std::uint8_t probe = kScanStateMask | kScanMemBit;
        if ((old & probe) == kScanReadyMem)
            --ready_mem_[old >> kScanKernelShift];
        if ((neu & probe) == kScanReadyMem)
            ++ready_mem_[neu >> kScanKernelShift];
        scan_meta_[s] = neu;

        const SlotHome home = slot_home_[s];
        IssueMasks &m = masks_[home.sched];
        const std::uint64_t bit = std::uint64_t{1} << home.local;
        auto assign = [bit](std::uint64_t &mask, bool on) {
            mask = on ? mask | bit : mask & ~bit;
        };
        assign(m.ready, (neu & kScanStateMask) ==
                            static_cast<std::uint8_t>(WarpState::Ready));
        assign(m.mem, (neu & kScanMemBit) != 0);
        m.kern[old >> kScanKernelShift] &= ~bit;
        m.kern[neu >> kScanKernelShift] |= bit;
        m.age[home.local] = w.age;
    }

    /** File a newly Busy warp under its due cycle (see due_wheel_). */
    void
    fileDue(WarpSlot slot, Cycle ready_at)
    {
        const std::size_t bucket =
            static_cast<std::size_t>(ready_at.get()) & due_mask_;
        due_wheel_[bucket * due_words_ + slot.idx() / 64] |=
            std::uint64_t{1} << (slot.idx() % 64);
    }

    GpuConfig cfg_;
    SmId sm_id_;
    MemorySystem &mem_;
    std::vector<KernelCtx> ctx_;
    IssueController controller_;
    L1Dcache l1d_;
    Lsu lsu_;
    std::vector<WarpScheduler> schedulers_;
    std::vector<Warp> warps_;
    // Dense scan mirrors, derived from warps_:
    std::vector<std::uint8_t> scan_meta_; // state|mem|kernel
    std::vector<IssueMasks> masks_;       // one per scheduler
    std::vector<SlotHome> slot_home_;     // per warp slot
    /** Due-wheel: Busy warps are filed under their ready_at bucket at
     *  issue, so preScan visits only the warps due this cycle instead
     *  of scanning every slot. A bucket is a bitset over warp slots
     *  (due_words_ words), walked in ascending slot order. No bucket
     *  aliasing: the wheel spans more cycles than the longest issue
     *  latency, a Busy warp never changes ready_at, and the run loop
     *  ticks every cycle. */
    std::vector<std::uint64_t> due_wheel_;
    std::size_t due_words_ = 0;
    std::size_t due_mask_ = 0;
    /** Ready warps whose next instruction is global-mem, per kernel. */
    std::array<int, kMaxKernelsPerSm> ready_mem_{};
    std::vector<ThreadBlock> tbs_;
    Resources used_;
    SmStats sm_stats_;
    std::uint64_t age_counter_ = 0;
    int dispatch_rr_ = 0;
    Cycle now_{};

    /** Pending (cycle, warp_slot) load-data returns from L1 hits. */
    using WakeEvent = std::pair<Cycle, WarpSlot>;
    std::priority_queue<WakeEvent, std::vector<WakeEvent>,
                        std::greater<WakeEvent>>
        wakes_;

    // Scratch buffers reused every memory instruction.
    std::vector<Addr> scratch_thread_addrs_;
    std::vector<LineAddr> scratch_lines_;

    // Scratch buffers reused every drainFills cycle.
    std::vector<MemRequest> scratch_fills_;
    std::vector<L1Target> scratch_targets_;

    AccessObserver access_observer_ = nullptr;
    void *access_observer_opaque_ = nullptr;

    FaultInjector *faults_ = nullptr;
    Profiler *prof_ = nullptr;
    std::uint64_t lifetime_issued_ = 0;
    std::uint64_t lifetime_returns_ = 0;
};

} // namespace ckesim

#endif // CKESIM_SM_SM_HPP

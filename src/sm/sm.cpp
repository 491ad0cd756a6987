#include "sm/sm.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "sim/check.hpp"

namespace ckesim {

namespace {
SimCtx
smCtx(SmId sm_id, Cycle now = kNeverCycle,
      KernelId kernel = kInvalidKernel)
{
    SimCtx ctx;
    ctx.cycle = now;
    ctx.sm_id = sm_id;
    ctx.kernel = kernel;
    ctx.module = "sm";
    return ctx;
}
} // namespace

Sm::Sm(const GpuConfig &cfg, SmId sm_id, MemorySystem &mem,
       std::vector<const KernelProfile *> kernels,
       const IssuePolicyConfig &policy)
    : cfg_(cfg), sm_id_(sm_id), mem_(mem),
      controller_(policy, static_cast<int>(kernels.size())),
      l1d_(cfg.l1d, sm_id),
      lsu_(cfg.sm.lsu_queue_depth, cfg.l1d.hit_latency, sm_id),
      warps_(static_cast<std::size_t>(cfg.sm.max_warps)),
      scan_meta_(warps_.size()),
      tbs_(static_cast<std::size_t>(cfg.sm.max_tbs))
{
    SIM_CHECK(!kernels.empty() &&
                  static_cast<int>(kernels.size()) <= kMaxKernelsPerSm,
              smCtx(sm_id),
              "SM built with " << kernels.size()
                               << " kernels (max " << kMaxKernelsPerSm
                               << ")");
    SIM_CHECK(cfg.sm.max_warps <= 64 * cfg.sm.num_schedulers,
              smCtx(sm_id),
              "sm.max_warps " << cfg.sm.max_warps
                              << " exceeds one 64-slot mask per "
                                 "scheduler");
    ctx_.resize(kernels.size());
    for (std::size_t k = 0; k < kernels.size(); ++k)
        ctx_[k].prof = kernels[k];

    schedulers_.reserve(static_cast<std::size_t>(cfg.sm.num_schedulers));
    masks_.resize(static_cast<std::size_t>(cfg.sm.num_schedulers));
    slot_home_.resize(warps_.size());
    for (int s = 0; s < cfg.sm.num_schedulers; ++s) {
        const WarpScheduler &sched = schedulers_.emplace_back(
            s, cfg.sm.num_schedulers, cfg.sm.max_warps,
            cfg.sm.sched_policy);
        IssueMasks &m = masks_[static_cast<std::size_t>(s)];
        m.age.resize(static_cast<std::size_t>(sched.numSlots()));
        for (int local = 0; local < sched.numSlots(); ++local) {
            slot_home_[sched.slotAt(local).idx()] = {
                static_cast<std::uint32_t>(s),
                static_cast<std::uint32_t>(local)};
            // Every slot starts free: packed kernel 0.
            m.kern[0] |= std::uint64_t{1} << local;
        }
    }

    scratch_lines_.reserve(static_cast<std::size_t>(cfg.sm.simd_width));

    // Due-wheel span: the longest dependent-issue latency plus slack
    // (mem/store issues re-arm at now+1), rounded up to a power of
    // two so the bucket index is a mask.
    const int max_latency =
        std::max({cfg.sm.alu_latency, cfg.sm.sfu_latency,
                  cfg.sm.smem_latency, 1});
    std::size_t span = 1;
    while (span < static_cast<std::size_t>(max_latency) + 2)
        span <<= 1;
    due_words_ = (warps_.size() + 63) / 64;
    due_wheel_.assign(span * due_words_, 0);
    due_mask_ = span - 1;
}

void
Sm::setTbQuota(KernelId k, int quota)
{
    ctx_[k.idx()].quota = quota;
}

void
Sm::resetStats()
{
    for (KernelCtx &c : ctx_)
        c.stats = KernelStats{};
    sm_stats_ = SmStats{};
}

void
Sm::drainFills(Cycle now)
{
    {
        ProfScope prof_noc(prof_, ProfComp::Noc);
        mem_.drainRepliesForSm(sm_id_, now, scratch_fills_);
    }
    if (scratch_fills_.empty())
        return;
    ProfScope prof_l1d(prof_, ProfComp::L1d);
    for (const MemRequest &fill : scratch_fills_) {
        l1d_.fill(fill.line_addr, scratch_targets_);
        for (const L1Target &t : scratch_targets_)
            requestReturned(t.warp_slot, now);
    }
}

void
Sm::processWakes(Cycle now)
{
    while (!wakes_.empty() && wakes_.top().first <= now) {
        const WarpSlot slot = wakes_.top().second;
        wakes_.pop();
        requestReturned(slot, now);
    }
}

void
Sm::requestReturned(WarpSlot warp_slot, Cycle now)
{
    Warp &w = warps_[warp_slot.idx()];
    SIM_INVARIANT(w.pending_requests > 0,
                  smCtx(sm_id_, now, w.kernel),
                  "wake for warp slot "
                      << warp_slot
                      << " with no pending request (duplicate or "
                         "misrouted fill)");
    ++lifetime_returns_;
    const bool load_done = w.retireRequest();
    if (load_done)
        controller_.onMemInstrCompleted(w.kernel);

    if (w.state != WarpState::WaitMem)
        return;
    // Blocked on memory-level parallelism: resume once under the
    // profile's in-flight load bound again.
    const KernelProfile &prof = *ctx_[w.kernel.idx()].prof;
    if (w.outstanding_loads >= prof.mlp)
        return;
    if (w.stream_done) {
        if (w.outstanding_loads == 0)
            retireWarp(warp_slot);
        return;
    }
    w.state = WarpState::Ready;
    syncScan(warp_slot.idx());
}

void
Sm::retireWarp(WarpSlot slot)
{
    Warp &w = warps_[slot.idx()];
    w.state = WarpState::Done;
    syncScan(slot.idx());
    ThreadBlock &tb = tbs_[static_cast<std::size_t>(w.tb_index)];
    SIM_INVARIANT(tb.active && tb.warps_left > 0,
                  smCtx(sm_id_, now_, w.kernel),
                  "warp retirement into inactive TB slot "
                      << w.tb_index << " (active=" << tb.active
                      << " warps_left=" << tb.warps_left << ")");
    if (--tb.warps_left > 0)
        return;

    // Whole TB finished: release its warp slots and static resources.
    for (std::size_t s = 0; s < warps_.size(); ++s) {
        Warp &o = warps_[s];
        if (o.state == WarpState::Done &&
            o.tb_index == w.tb_index) {
            o.state = WarpState::Invalid;
            o.tb_index = -1;
            syncScan(s);
        }
    }
    KernelCtx &c = ctx_[tb.kernel.idx()];
    const KernelProfile &prof = *c.prof;
    used_.regs -= prof.regsPerTb();
    used_.smem -= prof.smem_per_tb;
    used_.threads -= prof.threads_per_tb;
    used_.warps -= tb.num_warps;
    used_.tbs -= 1;
    c.resident -= 1;
    c.stats.tbs_completed += 1;
    tb.active = false;
}

void
Sm::preScan(Cycle now, std::array<bool, kMaxKernelsPerSm> &mem_demand)
{
    // Due warps were filed at issue time; only they can transition
    // this cycle. They transition in ascending slot order, which the
    // simulated results depend on. Nothing below files into this
    // bucket (a Busy warp is due at least one cycle out).
    std::uint64_t *due =
        &due_wheel_[(static_cast<std::size_t>(now.get()) & due_mask_) *
                    due_words_];
    for (std::size_t word = 0; word < due_words_; ++word) {
        std::uint64_t bits = due[word];
        due[word] = 0;
        for (; bits != 0; bits &= bits - 1) {
            const WarpSlot slot{static_cast<int>(
                word * 64 +
                static_cast<std::size_t>(std::countr_zero(bits)))};
            Warp &w = warps_[slot.idx()];
            SIM_INVARIANT(w.state == WarpState::Busy &&
                              w.ready_at <= now,
                          smCtx(sm_id_, now, w.kernel),
                          "due-wheel entry for warp slot "
                              << slot << " in state "
                              << static_cast<int>(w.state)
                              << " (ready_at " << w.ready_at << ")");
            if (w.stream_done) {
                if (w.outstanding_loads == 0) {
                    retireWarp(slot);
                } else {
                    w.state = WarpState::WaitMem;
                    syncScan(slot.idx());
                }
                continue;
            }
            w.state = WarpState::Ready;
            syncScan(slot.idx());
        }
    }
    // mem_demand falls out of the incrementally maintained counters.
    for (int k = 0; k < kMaxKernelsPerSm; ++k)
        mem_demand[static_cast<std::size_t>(k)] =
            ready_mem_[static_cast<std::size_t>(k)] > 0;
}

bool
Sm::resourcesFit(const KernelProfile &prof) const
{
    const SmConfig &sm = cfg_.sm;
    const int w = prof.warpsPerTb(sm.simd_width);
    return used_.tbs + 1 <= sm.max_tbs &&
           used_.threads + prof.threads_per_tb <= sm.max_threads &&
           used_.warps + w <= sm.max_warps &&
           used_.regs + prof.regsPerTb() <= sm.register_file &&
           used_.smem + prof.smem_per_tb <= sm.smem_bytes;
}

bool
Sm::launchTb(KernelId k)
{
    KernelCtx &c = ctx_[k.idx()];
    const KernelProfile &prof = *c.prof;
    const int warps_needed = prof.warpsPerTb(cfg_.sm.simd_width);

    // Find a TB table slot.
    int tb_index = -1;
    for (std::size_t i = 0; i < tbs_.size(); ++i) {
        if (!tbs_[i].active) {
            tb_index = static_cast<int>(i);
            break;
        }
    }
    if (tb_index < 0)
        return false;

    // Collect free warp slots.
    int found = 0;
    int slots[64];
    for (std::size_t s = 0; s < warps_.size() && found < warps_needed;
         ++s) {
        if (warps_[s].state == WarpState::Invalid)
            slots[found++] = static_cast<int>(s);
    }
    if (found < warps_needed)
        return false;

    const std::uint64_t tb_seq =
        c.tb_seq++ +
        static_cast<std::uint64_t>(sm_id_.get()) * std::uint64_t{100003};

    ThreadBlock &tb = tbs_[static_cast<std::size_t>(tb_index)];
    tb.active = true;
    tb.kernel = k;
    tb.seq = tb_seq;
    tb.num_warps = warps_needed;
    tb.warps_left = warps_needed;

    const std::uint64_t age = age_counter_++;
    for (int i = 0; i < warps_needed; ++i) {
        Warp &w = warps_[static_cast<std::size_t>(slots[i])];
        w.state = WarpState::Ready;
        w.kernel = k;
        w.tb_index = tb_index;
        w.pending_requests = 0;
        w.load_head = 0;
        w.outstanding_loads = 0;
        w.age = age;
        const std::uint64_t seed =
            cfg_.seed ^ (tb_seq * std::uint64_t{1000003}) ^
            static_cast<std::uint64_t>(i);
        w.stream.reset(prof, seed);
        w.refreshStreamCache();
        initAddrGen(w.addr, prof, k, tb_seq, i, warps_needed,
                    cfg_.seed, cfg_.l1d.line_bytes);
        syncScan(static_cast<std::size_t>(slots[i]));
    }

    used_.regs += prof.regsPerTb();
    used_.smem += prof.smem_per_tb;
    used_.threads += prof.threads_per_tb;
    used_.warps += warps_needed;
    used_.tbs += 1;
    c.resident += 1;
    return true;
}

void
Sm::tryDispatch(Cycle now)
{
    (void)now;
    // At most one TB launch per cycle, round-robin across kernels.
    const int n = numKernels();
    for (int i = 0; i < n; ++i) {
        const int ki = (dispatch_rr_ + i) % n;
        KernelCtx &c = ctx_[static_cast<std::size_t>(ki)];
        if (c.resident >= c.quota)
            continue;
        if (!resourcesFit(*c.prof))
            continue;
        if (launchTb(KernelId{ki})) {
            dispatch_rr_ = (ki + 1) % n;
            return;
        }
    }
}

void
Sm::issueFrom(WarpSlot slot, Cycle now)
{
    Warp &w = warps_[slot.idx()];
    KernelCtx &c = ctx_[w.kernel.idx()];
    const InstrKind kind = w.stream.advance();
    w.refreshStreamCache();

    ++c.stats.issued_instructions;
    ++sm_stats_.issue_slots_used;
    ++lifetime_issued_;
    controller_.onInstrIssued(w.kernel);
    if (c.issue_series)
        c.issue_series->record(now);

    switch (kind) {
      case InstrKind::Alu:
        ++c.stats.alu_instructions;
        ++sm_stats_.alu_issue_slots;
        w.state = WarpState::Busy;
        w.ready_at = now + cfg_.sm.alu_latency;
        break;
      case InstrKind::Sfu:
        ++c.stats.sfu_instructions;
        ++sm_stats_.sfu_issue_slots;
        w.state = WarpState::Busy;
        w.ready_at = now + cfg_.sm.sfu_latency;
        break;
      case InstrKind::Smem:
        ++c.stats.smem_instructions;
        w.state = WarpState::Busy;
        w.ready_at = now + cfg_.sm.smem_latency;
        break;
      case InstrKind::MemLoad:
      case InstrKind::MemStore: {
        generateLines(w.addr, *c.prof, cfg_.sm.simd_width,
                      scratch_lines_);
        const bool is_store = kind == InstrKind::MemStore;
        lsu_.enqueue(slot, w.kernel, is_store, scratch_lines_);
        controller_.onMemInstrIssued(w.kernel);
        ++c.stats.mem_instructions;
        c.stats.mem_requests += scratch_lines_.size();
        if (is_store) {
            // Stores do not block the warp.
            w.state = WarpState::Busy;
            w.ready_at = now + 1;
        } else {
            w.pending_requests +=
                static_cast<int>(scratch_lines_.size());
            w.pushLoad(static_cast<int>(scratch_lines_.size()));
            if (w.outstanding_loads >= c.prof->mlp) {
                w.state = WarpState::WaitMem;
            } else {
                // Independent loads overlap (MLP); issue-limited only.
                w.state = WarpState::Busy;
                w.ready_at = now + 1;
            }
        }
        break;
      }
    }
    if (w.state == WarpState::Busy)
        fileDue(slot, w.ready_at);
    syncScan(slot.idx());
}

void
Sm::tick(Cycle now)
{
    ProfScope prof_sm(prof_, ProfComp::SmIssue);
    now_ = now;
    drainFills(now);
    processWakes(now);

    std::array<bool, kMaxKernelsPerSm> mem_demand{};
    preScan(now, mem_demand);
    controller_.beginCycle(mem_demand);

    tryDispatch(now);

    // Issue gates per kernel: shared by every scheduler turn of this
    // cycle and re-evaluated after each issue, which moves LSU
    // occupancy, in-flight counts and quotas.
    const int num_kernels = numKernels();
    std::array<bool, kMaxKernelsPerSm> admit_any{};
    std::array<bool, kMaxKernelsPerSm> admit_mem{};
    bool gates_fresh = false;
    for (std::size_t i = 0; i < schedulers_.size(); ++i) {
        const IssueMasks &m = masks_[i];
        if (m.ready == 0)
            continue;
        if (!gates_fresh) {
            const bool lsu_room = lsu_.hasRoom();
            for (int ki = 0; ki < num_kernels; ++ki) {
                const KernelId k{ki};
                admit_any[k.idx()] = controller_.admitAnyIssue(k);
                admit_mem[k.idx()] = admit_any[k.idx()] && lsu_room &&
                                     controller_.admitMemIssue(k);
            }
            gates_fresh = true;
        }
        std::uint64_t issuable = 0;
        for (std::size_t k = 0; k < static_cast<std::size_t>(num_kernels);
             ++k) {
            if (admit_any[k])
                issuable |= admit_mem[k] ? m.kern[k] : m.kern[k] & ~m.mem;
        }
        WarpScheduler &sched = schedulers_[i];
        const WarpSlot slot = sched.pick(issuable & m.ready, m.age.data());
        if (!slot.valid())
            continue;
        issueFrom(slot, now);
        sched.onIssue(slot);
        gates_fresh = false;
    }

    // Injected fault: the head access fails reservation regardless
    // of actual resource availability (degraded-pipeline study).
    if (faults_ && !lsu_.empty() && faults_->forceRsFail(sm_id_, now)) {
        lsuReservationFailure(lsu_.headKernel(), RsFailReason::Mshr);
        ++sm_stats_.lsu_stall_cycles;
    } else {
        ProfScope prof_lsu(prof_, ProfComp::Lsu);
        if (lsu_.tick(now, l1d_, *this))
            ++sm_stats_.lsu_stall_cycles;
    }

    // Drain at most one miss-queue entry into the interconnect.
    if (const MemRequest *head = l1d_.peekMissQueue()) {
        ProfScope prof_noc(prof_, ProfComp::Noc);
        if (mem_.injectFromSm(*head, now))
            l1d_.popMissQueue();
    }

    ++sm_stats_.cycles;
}

void
Sm::drainTick(Cycle now)
{
    now_ = now;
    drainFills(now);
    processWakes(now);
    lsu_.tick(now, l1d_, *this);
    if (const MemRequest *head = l1d_.peekMissQueue()) {
        if (mem_.injectFromSm(*head, now))
            l1d_.popMissQueue();
    }
}

bool
Sm::hasWork() const
{
    if (!lsu_.empty() || l1d_.mshrsInUse() > 0 ||
        l1d_.missQueueSize() > 0 || !wakes_.empty())
        return true;
    for (const ThreadBlock &tb : tbs_)
        if (tb.active)
            return true;
    return false;
}

bool
Sm::memDrained() const
{
    if (!lsu_.empty() || l1d_.mshrsInUse() > 0 ||
        l1d_.missQueueSize() > 0 || !wakes_.empty())
        return false;
    for (const Warp &w : warps_) {
        if (w.state != WarpState::Invalid && w.pending_requests > 0)
            return false;
    }
    return true;
}

void
Sm::checkInvariants(Cycle now) const
{
    l1d_.checkInvariants(now);
    const SimCtx ctx = smCtx(sm_id_, now);
    SIM_INVARIANT(lsu_.size() <= cfg_.sm.lsu_queue_depth, ctx,
                  "LSU queue occupancy " << lsu_.size()
                                         << " exceeds depth "
                                         << cfg_.sm.lsu_queue_depth);
    SIM_INVARIANT(used_.tbs >= 0 && used_.tbs <= cfg_.sm.max_tbs, ctx,
                  "TB slot accounting out of range: " << used_.tbs);
    SIM_INVARIANT(used_.warps >= 0 && used_.warps <= cfg_.sm.max_warps,
                  ctx,
                  "warp slot accounting out of range: " << used_.warps);
    SIM_INVARIANT(used_.regs >= 0 &&
                      used_.regs <= cfg_.sm.register_file,
                  ctx, "register accounting out of range: "
                           << used_.regs);
    SIM_INVARIANT(used_.smem >= 0 && used_.smem <= cfg_.sm.smem_bytes,
                  ctx,
                  "shared-memory accounting out of range: "
                      << used_.smem);
    int resident = 0;
    for (const KernelCtx &c : ctx_) {
        SIM_INVARIANT(c.resident >= 0,
                      smCtx(sm_id_, now, KernelId{&c - ctx_.data()}),
                      "negative resident TB count " << c.resident);
        resident += c.resident;
    }
    SIM_INVARIANT(resident == used_.tbs, ctx,
                  "per-kernel resident TBs sum "
                      << resident << " != TB slots in use "
                      << used_.tbs);
    for (int ki = 0; ki < numKernels(); ++ki) {
        const KernelId k{ki};
        SIM_INVARIANT(controller_.inflight(k) >= 0,
                      smCtx(sm_id_, now, k),
                      "negative in-flight memory instruction count "
                          << controller_.inflight(k));
    }
}

void
Sm::checkDrained(Cycle now) const
{
    l1d_.checkDrained(now);
    const SimCtx ctx = smCtx(sm_id_, now);
    SIM_INVARIANT(lsu_.empty(), ctx,
                  "audit: LSU queue still holds " << lsu_.size()
                                                  << " entr(ies)");
    SIM_INVARIANT(wakes_.empty(), ctx,
                  "audit: " << wakes_.size()
                            << " hit-return wake(s) never processed");
    for (std::size_t s = 0; s < warps_.size(); ++s) {
        const Warp &w = warps_[s];
        if (w.state == WarpState::Invalid)
            continue;
        SIM_INVARIANT(w.pending_requests == 0,
                      smCtx(sm_id_, now, w.kernel),
                      "audit: warp slot "
                          << s << " still has " << w.pending_requests
                          << " pending request(s) after drain");
    }
}

std::string
Sm::describeState() const
{
    std::ostringstream os;
    os << "sm " << sm_id_ << ": lsu_q=" << lsu_.size();
    if (!lsu_.empty())
        os << " (head kernel " << lsu_.headKernel() << ")";
    os << " l1_mshr=" << l1d_.mshrsInUse()
       << " l1_missq=" << l1d_.missQueueSize()
       << " wakes=" << wakes_.size();
    for (int ki = 0; ki < numKernels(); ++ki) {
        const KernelId k{ki};
        const KernelCtx &c = ctx_[k.idx()];
        os << " | k" << k << ": tbs=" << c.resident << "/" << c.quota
           << " inflight=" << controller_.inflight(k)
           << " mil=" << controller_.milLimit(k)
           << " quota=" << controller_.qbmiQuota(k);
    }
    return os.str();
}

// ---- LsuHost ------------------------------------------------------------

void
Sm::lsuHitReturn(WarpSlot warp_slot, KernelId k, Cycle ready_at)
{
    (void)k;
    wakes_.emplace(ready_at, warp_slot);
}

void
Sm::lsuEntryDrained(WarpSlot warp_slot, KernelId k, bool is_store)
{
    (void)warp_slot;
    if (is_store)
        controller_.onMemInstrCompleted(k);
}

void
Sm::lsuAccessServiced(KernelId k, LineAddr line,
                      const L1Outcome &outcome)
{
    KernelCtx &c = ctx_[k.idx()];
    ++c.stats.l1d_accesses;
    switch (outcome.kind) {
      case L1Outcome::Kind::Hit:
        ++c.stats.l1d_hits;
        break;
      case L1Outcome::Kind::MissToL2:
      case L1Outcome::Kind::MergedMshr: // still waits for the fill
      case L1Outcome::Kind::WriteQueued:
        ++c.stats.l1d_misses;
        break;
      case L1Outcome::Kind::RsFail:
        break;
    }
    controller_.onRequestServiced(k);
    if (c.l1d_series)
        c.l1d_series->record(now_);
    if (access_observer_)
        access_observer_(access_observer_opaque_, k, line);
}

void
Sm::lsuReservationFailure(KernelId k, RsFailReason reason)
{
    KernelCtx &c = ctx_[k.idx()];
    ++c.stats.l1d_rsfails;
    switch (reason) {
      case RsFailReason::Line:
        ++c.stats.l1d_rsfail_line;
        break;
      case RsFailReason::Mshr:
        ++c.stats.l1d_rsfail_mshr;
        break;
      case RsFailReason::MissQueue:
        ++c.stats.l1d_rsfail_missq;
        break;
      case RsFailReason::None:
        break;
    }
    controller_.onRsFail(k);
}

} // namespace ckesim

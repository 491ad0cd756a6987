#include "gpu.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "sim/check.hpp"

namespace ckesim {

namespace {
SimCtx
gpuCtx(Cycle now = kNeverCycle)
{
    SimCtx ctx;
    ctx.cycle = now;
    ctx.module = "gpu";
    return ctx;
}

void
schemeFail(const std::string &field, const std::string &why)
{
    SimCtx ctx;
    ctx.module = "scheme";
    raiseSimError("ConfigError", ctx, field + ": " + why);
}
} // namespace

void
SchemeSpec::validate(const GpuConfig &cfg) const
{
    if (smk_warp_quota) {
        if (smk_epoch_cycles < Cycle{1})
            schemeFail("smk_epoch_cycles", "must be >= 1");
        if (isolated_ipc_per_sm.empty())
            schemeFail("isolated_ipc_per_sm",
                       "required when smk_warp_quota is set");
        for (double ipc : isolated_ipc_per_sm) {
            if (!(ipc >= 0.0))
                schemeFail("isolated_ipc_per_sm",
                           "entries must be non-negative");
        }
    }
    if (ucp && ucp_interval < Cycle{1})
        schemeFail("ucp_interval", "must be >= 1");
    if (partition == PartitionScheme::WarpedSlicer &&
        oracle_curves.empty() && ws_profile_window < Cycle{1})
        schemeFail("ws_profile_window",
                   "dynamic Warped-Slicer needs a positive window");
    if (global_dmil && global_dmil_interval < Cycle{1})
        schemeFail("global_dmil_interval", "must be >= 1");
    for (std::size_t k = 0; k < smil_limits.size(); ++k) {
        if (smil_limits[k] < 0)
            schemeFail("smil_limits",
                       "negative SMIL limit for kernel " +
                           std::to_string(k));
    }
    for (const FaultSpec &f : faults)
        validateFaultSpec(f, cfg.num_sms, cfg.numL2Partitions());
}

SchemeSpec
makeScheme(PartitionScheme partition, BmiMode bmi, MilMode mil)
{
    SchemeSpec spec;
    spec.partition = partition;
    spec.bmi = bmi;
    spec.mil = mil;
    return spec;
}

Gpu::Gpu(const GpuConfig &cfg, const Workload &workload,
         const SchemeSpec &spec)
    : cfg_(cfg), workload_(workload), spec_(spec), mem_(cfg)
{
    cfg.validate();
    spec.validate(cfg);
    SIM_CHECK(workload.numKernels() >= 1 &&
                  workload.numKernels() <= kMaxKernelsPerSm,
              gpuCtx(),
              "workload has " << workload.numKernels()
                              << " kernels (supported: 1.."
                              << kMaxKernelsPerSm << ")");

    IssuePolicyConfig policy;
    policy.bmi = spec.bmi;
    policy.mil = spec.mil;
    policy.static_limits = spec.smil_limits;
    policy.warp_quota_enabled = spec.smk_warp_quota;
    if (spec.smk_warp_quota) {
        policy.warp_quotas =
            smkWarpQuotas(spec.isolated_ipc_per_sm,
                          spec.smk_epoch_cycles);
    }

    sms_.reserve(static_cast<std::size_t>(cfg.num_sms));
    for (int s = 0; s < cfg.num_sms; ++s) {
        sms_.push_back(std::make_unique<Sm>(cfg, SmId{s}, mem_,
                                            workload.kernels, policy));
    }

    // Section 4.5 ablations.
    if (spec.mshr_partition) {
        const int quota =
            cfg.l1d.num_mshrs /
            std::max(workload.numKernels(), 1);
        for (auto &sm : sms_)
            for (int k = 0; k < workload.numKernels(); ++k)
                sm->l1d().setMshrQuota(KernelId{k}, quota);
    }
    for (int k = 0; k < workload.numKernels(); ++k) {
        if (spec.bypass_l1d[static_cast<std::size_t>(k)])
            for (auto &sm : sms_)
                sm->l1d().setBypass(KernelId{k}, true);
    }

    if (spec.ucp) {
        umons_.resize(sms_.size());
        taps_.resize(sms_.size());
        for (std::size_t s = 0; s < sms_.size(); ++s) {
            for (int k = 0; k < numKernels(); ++k) {
                umons_[s].emplace_back(cfg.l1d.numSets(),
                                       cfg.l1d.assoc);
            }
            taps_[s] = Tap{this, static_cast<int>(s)};
            sms_[s]->setAccessObserver(&Gpu::accessTap, &taps_[s]);
        }
    }

    if (!spec.faults.empty()) {
        fault_injector_ = FaultInjector(spec.faults);
        mem_.setFaultInjector(&fault_injector_);
        for (auto &sm : sms_)
            sm->setFaultInjector(&fault_injector_);
    }

    if (Profiler::envEnabled()) {
        owned_prof_ = std::make_unique<Profiler>();
        owned_prof_->enable();
        setProfiler(owned_prof_.get());
    }

    setupInitialPartition();
}

Gpu::~Gpu()
{
    if (owned_prof_)
        owned_prof_->report(std::cerr); // LINT-ALLOW(stdio): CKESIM_PROF teardown report
}

void
Gpu::setProfiler(Profiler *prof)
{
    cost_prof_ = prof;
    for (auto &sm : sms_)
        sm->setProfiler(prof);
    mem_.setProfiler(prof);
}

void
Gpu::accessTap(void *opaque, KernelId k, LineAddr line)
{
    Tap *tap = static_cast<Tap *>(opaque);
    tap->gpu->umons_[static_cast<std::size_t>(tap->sm)][k.idx()]
        .access(line);
}

void
Gpu::applyQuotas(const QuotaMatrix &quotas)
{
    SIM_CHECK(static_cast<int>(quotas.size()) == numSms(),
              gpuCtx(now_),
              "quota matrix has " << quotas.size() << " rows for "
                                  << numSms() << " SMs");
    for (int s = 0; s < numSms(); ++s)
        for (int k = 0; k < numKernels(); ++k)
            sms_[static_cast<std::size_t>(s)]->setTbQuota(
                KernelId{k}, quotas[static_cast<std::size_t>(s)]
                                   [static_cast<std::size_t>(k)]);
}

void
Gpu::setupInitialPartition()
{
    const auto &kernels = workload_.kernels;
    switch (spec_.partition) {
      case PartitionScheme::Leftover: {
        partition_ = leftoverPartition(kernels, cfg_.sm);
        applyQuotas(broadcastPartition(partition_, cfg_.num_sms));
        break;
      }
      case PartitionScheme::Spatial: {
        applyQuotas(spatialPartition(kernels, cfg_));
        break;
      }
      case PartitionScheme::SmkDrf: {
        partition_ = drfPartition(kernels, cfg_.sm);
        applyQuotas(broadcastPartition(partition_, cfg_.num_sms));
        break;
      }
      case PartitionScheme::WarpedSlicer: {
        if (!spec_.oracle_curves.empty()) {
            // Static Warped-Slicer: curves supplied, no online window.
            sweet_ = findSweetPoint(spec_.oracle_curves, kernels,
                                    cfg_.sm);
            partition_ = sweet_.tbs;
            applyQuotas(broadcastPartition(partition_, cfg_.num_sms));
            break;
        }
        // Dynamic profiling: SM s runs one kernel at one TB count.
        // Scalability curves are measured unthrottled; MIL resumes
        // (with fresh MILGs) for the measurement phase.
        profiling_ = true;
        profile_end_ = spec_.ws_profile_window;
        for (auto &sm : sms_)
            sm->controller().setMilBypass(true);
        profile_assign_.assign(sms_.size(), {-1, 0});
        const int n = numKernels();
        const int per = std::max(1, cfg_.num_sms / n);
        QuotaMatrix quotas(sms_.size());
        for (auto &row : quotas)
            row.fill(0);
        for (int k = 0; k < n; ++k) {
            const int max_tbs =
                kernels[static_cast<std::size_t>(k)]->maxTbsPerSm(
                    cfg_.sm);
            const std::vector<int> counts =
                profilingTbCounts(max_tbs, per);
            for (int j = 0; j < per; ++j) {
                const int s = k * per + j;
                if (s >= cfg_.num_sms)
                    break;
                const int count =
                    j < static_cast<int>(counts.size())
                        ? counts[static_cast<std::size_t>(j)]
                        : counts.back();
                quotas[static_cast<std::size_t>(s)]
                      [static_cast<std::size_t>(k)] = count;
                profile_assign_[static_cast<std::size_t>(s)] = {k,
                                                                count};
            }
        }
        // Remainder SMs: run kernel 0 at max (not used for curves).
        for (int s = n * per; s < cfg_.num_sms; ++s) {
            quotas[static_cast<std::size_t>(s)][0] =
                kernels[0]->maxTbsPerSm(cfg_.sm);
        }
        applyQuotas(quotas);
        break;
      }
    }
}

void
Gpu::finishProfiling()
{
    profiling_ = false;
    const auto &kernels = workload_.kernels;
    const int n = numKernels();

    std::vector<ScalabilityCurve> curves(
        static_cast<std::size_t>(n));
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        const auto [k, count] = profile_assign_[s];
        if (k < 0)
            continue;
        const double ipc =
            static_cast<double>(sms_[s]
                                    ->kernelStats(KernelId{k})
                                    .issued_instructions) /
            static_cast<double>(spec_.ws_profile_window.get());
        curves[static_cast<std::size_t>(k)].addPoint(count, ipc);
    }

    sweet_ = findSweetPoint(curves, kernels, cfg_.sm);
    partition_ = sweet_.tbs;
    applyQuotas(broadcastPartition(partition_, cfg_.num_sms));

    for (auto &sm : sms_) {
        sm->resetStats();
        sm->controller().setMilBypass(false);
    }
    measured_start_ = now_;
}

void
Gpu::ucpRepartition()
{
    const int assoc = cfg_.l1d.assoc;
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        std::vector<const UmonMonitor *> mons;
        for (int k = 0; k < numKernels(); ++k)
            mons.push_back(&umons_[s][static_cast<std::size_t>(k)]);

        const std::vector<int> alloc =
            ucpLookaheadPartition(mons, assoc);
        int first = 0;
        for (int k = 0; k < numKernels(); ++k) {
            sms_[s]->l1d().restrictKernelWays(
                KernelId{k}, first,
                alloc[static_cast<std::size_t>(k)]);
            first += alloc[static_cast<std::size_t>(k)];
        }
        for (auto &m : umons_[s])
            m.age();
    }
}

void
Gpu::tickComponents(Cycle at, bool drain)
{
    // THE tick ordering, shared by the run loop and the audit drain:
    // SMs first (they inject into the interconnect), then the memory
    // system below them.
    for (auto &sm : sms_)
        drain ? sm->drainTick(at) : sm->tick(at);
    mem_.tick(at);
}

void
Gpu::stepCycle()
{
    {
        ProfScope prof_scheme(cost_prof_, ProfComp::Scheme);
        if (profiling_ && now_ == profile_end_)
            finishProfiling();
        if (spec_.ucp && now_ > Cycle{} &&
            now_ % spec_.ucp_interval == 0)
            ucpRepartition();
        if (spec_.global_dmil && spec_.mil == MilMode::Dynamic &&
            !profiling_ && now_ > Cycle{} &&
            now_ % spec_.global_dmil_interval == 0) {
            // Broadcast SM 0's MILG decisions to every other SM.
            for (int ki = 0; ki < numKernels(); ++ki) {
                const KernelId k{ki};
                const int limit = sms_[0]->controller().milLimit(k);
                for (std::size_t s = 1; s < sms_.size(); ++s)
                    sms_[s]->controller().overrideMilLimit(k, limit);
            }
        }
    }
    tickComponents(now_, /*drain=*/false);

    const int interval = cfg_.integrity.check_interval;
    if (interval > 0 && now_ % interval == 0) {
        ProfScope prof_integrity(cost_prof_, ProfComp::Integrity);
        watchdogPoll();
        if (cfg_.integrity.periodic_checks)
            checkInvariants();
        if (run_control_)
            pollRunControl();
    }
}

void
Gpu::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    // Attribute the loop glue (tick dispatch, cadence checks)
    // explicitly; nested component scopes subtract, so this shows up
    // as `runloop` self-time.
    ProfScope prof_loop(cost_prof_, ProfComp::Runloop);
    while (now_ < end) {
        stepCycle();
        ++now_;
    }
}

void
Gpu::pollRunControl()
{
    // Liveness hook first: heartbeats must flow even when no budget
    // or cancellation is configured.
    run_control_->onPoll();
    if (run_control_->cancelRequested()) {
        raiseSimError("Cancelled", gpuCtx(now_),
                      "cooperative cancellation requested at cycle " +
                          std::to_string(now_.get()));
    }
    const std::uint64_t budget = run_control_->cycleBudget();
    if (budget > 0 && now_.get() >= budget) {
        raiseSimError("Timeout", gpuCtx(now_),
                      "cycle budget of " + std::to_string(budget) +
                          " cycles exhausted");
    }
    if (run_control_->wallExpired()) {
        raiseSimError("Timeout", gpuCtx(now_),
                      "wall-clock budget of " +
                          std::to_string(
                              run_control_->wallBudgetMs()) +
                          " ms exhausted at cycle " +
                          std::to_string(now_.get()));
    }
}

std::uint64_t
Gpu::progressSignature() const
{
    // Lifetime counters only: resetStats() at phase changes must not
    // look like (or hide) progress.
    std::uint64_t sig = mem_.deliveredFills();
    for (const auto &sm : sms_)
        sig += sm->progressCount();
    return sig;
}

bool
Gpu::hasPendingWork() const
{
    if (!mem_.quiescent())
        return true;
    for (const auto &sm : sms_)
        if (sm->hasWork())
            return true;
    return false;
}

void
Gpu::watchdogPoll()
{
    const std::uint64_t sig = progressSignature();
    if (sig != last_progress_sig_) {
        last_progress_sig_ = sig;
        last_progress_cycle_ = now_;
        return;
    }
    const int timeout = cfg_.integrity.watchdog_timeout;
    if (timeout <= 0)
        return;
    if (now_ - last_progress_cycle_ < Cycle{timeout})
        return;
    // A machine with nothing resident or in flight is idle, not hung.
    if (!hasPendingWork())
        return;
    // Memory pipeline stalls are the only hang mode this machine has:
    // with no memory request outstanding anywhere, a flat progress
    // signature means a long compute phase (e.g. every resident warp
    // busy on a high-latency SFU op), not a deadlock. Firing there is
    // a false positive.
    if (!memoryInFlight())
        return;
    raiseWatchdog();
}

bool
Gpu::memoryInFlight() const
{
    if (mem_.inflightReads() > 0 || !mem_.quiescent())
        return true;
    for (const auto &sm : sms_)
        if (!sm->memDrained())
            return true;
    return false;
}

void
Gpu::raiseWatchdog()
{
    std::ostringstream os;
    os << "no instruction issued, request returned or fill delivered "
          "since cycle "
       << last_progress_cycle_ << " ("
       << (now_ - last_progress_cycle_) << " cycles) with work pending\n";
    for (const auto &sm : sms_)
        os << "  " << sm->describeState() << "\n";
    os << mem_.describeState();
    raiseSimError("Watchdog", gpuCtx(now_), os.str());
}

void
Gpu::checkInvariants()
{
    mem_.checkInvariants(now_);
    for (const auto &sm : sms_)
        sm->checkInvariants(now_);
}

void
Gpu::audit()
{
    // The audit proves conservation on a healthy pipeline; detach the
    // injector so a still-armed fault cannot block the drain itself.
    // State already corrupted by fired faults (leaked MSHRs, dropped
    // fills) remains and is what checkDrained reports.
    mem_.setFaultInjector(nullptr);
    for (auto &sm : sms_)
        sm->setFaultInjector(nullptr);

    auto drained = [this] {
        if (!mem_.quiescent())
            return false;
        for (const auto &sm : sms_)
            if (!sm->memDrained())
                return false;
        return true;
    };

    Cycle spent{};
    const Cycle limit{cfg_.integrity.audit_drain_limit};
    while (spent < limit && !drained()) {
        tickComponents(now_ + spent, /*drain=*/true);
        ++spent;
    }

    // now_ stays put: the audit is bookkeeping, not simulated time,
    // and must not distort measuredCycles().
    const Cycle when = now_ + spent;
    mem_.checkDrained(when);
    for (auto &sm : sms_)
        sm->checkDrained(when);
}

double
Gpu::ipc(KernelId k) const
{
    const Cycle cycles = measuredCycles();
    if (cycles == Cycle{})
        return 0.0;
    std::uint64_t instrs = 0;
    for (const auto &sm : sms_)
        instrs += sm->kernelStats(k).issued_instructions;
    return static_cast<double>(instrs) /
           static_cast<double>(cycles.get());
}

KernelStats
Gpu::kernelStatsTotal(KernelId k) const
{
    KernelStats total;
    for (const auto &sm : sms_)
        total += sm->kernelStats(k);
    return total;
}

SmStats
Gpu::smStatsTotal() const
{
    SmStats total;
    for (const auto &sm : sms_)
        total += sm->smStats();
    return total;
}

void
Gpu::attachSeries(KernelId k, TimeSeries *issue, TimeSeries *l1d)
{
    for (auto &sm : sms_) {
        sm->setIssueSeries(k, issue);
        sm->setL1dSeries(k, l1d);
    }
}

} // namespace ckesim

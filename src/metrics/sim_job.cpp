#include "metrics/sim_job.hpp"

#include <cstring>

namespace ckesim {

std::string
schemeName(NamedScheme scheme)
{
    switch (scheme) {
      case NamedScheme::Spatial:
        return "Spatial";
      case NamedScheme::Leftover:
        return "Leftover";
      case NamedScheme::WS:
        return "WS";
      case NamedScheme::WS_RBMI:
        return "WS-RBMI";
      case NamedScheme::WS_QBMI:
        return "WS-QBMI";
      case NamedScheme::WS_DMIL:
        return "WS-DMIL";
      case NamedScheme::WS_QBMI_DMIL:
        return "WS-QBMI+DMIL";
      case NamedScheme::WS_UCP:
        return "WS-L1DPartition";
      case NamedScheme::SMK_PW:
        return "SMK-(P+W)";
      case NamedScheme::SMK_P_QBMI:
        return "SMK-(P+QBMI)";
      case NamedScheme::SMK_P_DMIL:
        return "SMK-(P+DMIL)";
    }
    return "?";
}

// ---- JobHasher ---------------------------------------------------------

JobHasher &
JobHasher::i(long long v)
{
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    for (int b = 0; b < 8; ++b) {
        h_ ^= (u >> (8 * b)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
    return *this;
}

JobHasher &
JobHasher::d(double v)
{
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    long long s;
    std::memcpy(&s, &u, sizeof(s));
    return i(s);
}

JobHasher &
JobHasher::s(const std::string &v)
{
    i(static_cast<long long>(v.size()));
    for (const char c : v) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ULL;
    }
    return *this;
}

void
hashInto(JobHasher &h, const GpuConfig &cfg)
{
    h.i(cfg.num_sms).i(static_cast<long long>(cfg.seed));
    const SmConfig &sm = cfg.sm;
    h.i(sm.simd_width)
        .i(sm.num_schedulers)
        .i(sm.max_threads)
        .i(sm.max_warps)
        .i(sm.max_tbs)
        .i(sm.register_file)
        .i(sm.smem_bytes)
        .i(static_cast<long long>(sm.sched_policy))
        .i(sm.alu_latency)
        .i(sm.sfu_latency)
        .i(sm.smem_latency)
        .i(sm.lsu_queue_depth);
    const L1dConfig &l1 = cfg.l1d;
    h.i(l1.size_bytes)
        .i(l1.line_bytes)
        .i(l1.assoc)
        .i(l1.num_mshrs)
        .i(l1.mshr_merge)
        .i(l1.miss_queue_depth)
        .i(l1.hit_latency);
    const L2Config &l2 = cfg.l2;
    h.i(l2.partition_bytes)
        .i(l2.line_bytes)
        .i(l2.assoc)
        .i(l2.num_mshrs)
        .i(l2.miss_queue_depth)
        .i(l2.latency);
    const IcntConfig &ic = cfg.icnt;
    h.i(ic.flit_bytes).i(ic.latency).i(ic.input_queue_depth);
    const DramConfig &dr = cfg.dram;
    h.i(dr.num_channels)
        .i(dr.banks_per_channel)
        .i(dr.row_bytes)
        .i(dr.access_latency)
        .i(dr.row_hit_service)
        .i(dr.row_miss_penalty)
        .i(dr.frfcfs_window)
        .i(dr.queue_depth);
    const IntegrityConfig &in = cfg.integrity;
    h.i(in.periodic_checks)
        .i(in.check_interval)
        .i(in.watchdog_timeout)
        .i(in.audit_drain_limit);
}

void
hashInto(JobHasher &h, const SchemeSpec &spec)
{
    h.i(static_cast<long long>(spec.partition))
        .i(static_cast<long long>(spec.bmi))
        .i(static_cast<long long>(spec.mil));
    for (int l : spec.smil_limits)
        h.i(l);
    h.i(spec.smk_warp_quota);
    h.i(static_cast<long long>(spec.isolated_ipc_per_sm.size()));
    for (double v : spec.isolated_ipc_per_sm)
        h.d(v);
    h.i(static_cast<long long>(spec.smk_epoch_cycles.get()));
    h.i(spec.ucp).i(static_cast<long long>(spec.ucp_interval.get()));
    h.i(static_cast<long long>(spec.ws_profile_window.get()));
    h.i(static_cast<long long>(spec.oracle_curves.size()));
    for (const ScalabilityCurve &c : spec.oracle_curves) {
        h.i(static_cast<long long>(c.points().size()));
        for (const auto &[tbs, ipc] : c.points())
            h.i(tbs).d(ipc);
    }
    h.i(spec.mshr_partition);
    for (bool b : spec.bypass_l1d)
        h.i(b);
    h.i(spec.global_dmil)
        .i(static_cast<long long>(spec.global_dmil_interval.get()));
    h.i(static_cast<long long>(spec.faults.size()));
    for (const FaultSpec &f : spec.faults) {
        h.i(static_cast<long long>(f.kind))
            .i(static_cast<long long>(f.begin.get()))
            .i(static_cast<long long>(f.end.get()))
            .i(f.target)
            .i(f.budget)
            .i(static_cast<long long>(f.delay.get()));
    }
}

void
hashInto(JobHasher &h, const KernelProfile &p)
{
    h.s(p.name)
        .i(static_cast<long long>(p.expected_class))
        .i(p.threads_per_tb)
        .i(p.regs_per_thread)
        .i(p.smem_per_tb)
        .d(p.cinst_per_minst)
        .i(p.req_per_minst)
        .d(p.sfu_fraction)
        .d(p.smem_fraction)
        .d(p.write_fraction)
        .i(static_cast<long long>(p.pattern))
        .d(p.reuse_prob)
        .i(static_cast<long long>(p.footprint_bytes))
        .i(static_cast<long long>(p.footprint_regions))
        .i(static_cast<long long>(p.stream_regions))
        .i(p.mlp)
        .i(p.instrs_per_warp);
}

void
hashInto(JobHasher &h, const Workload &workload)
{
    h.i(workload.numKernels());
    for (const KernelProfile *k : workload.kernels)
        hashInto(h, *k);
}

// ---- SimJob ------------------------------------------------------------

SimJob
SimJob::isolated(const GpuConfig &cfg, Cycle cycles,
                 const KernelProfile &prof, int tb_limit)
{
    SimJob job;
    job.kind = JobKind::Isolated;
    job.cfg = cfg;
    job.cycles = cycles;
    job.workload.kernels = {&prof};
    job.tb_limit = tb_limit;
    return job;
}

SimJob
SimJob::concurrent(const GpuConfig &cfg, Cycle cycles,
                   const Workload &workload, NamedScheme named)
{
    SimJob job;
    job.kind = JobKind::Concurrent;
    job.cfg = cfg;
    job.cycles = cycles;
    job.workload = workload;
    job.use_named = true;
    job.named = named;
    return job;
}

SimJob
SimJob::concurrent(const GpuConfig &cfg, Cycle cycles,
                   const Workload &workload, const SchemeSpec &spec)
{
    SimJob job;
    job.kind = JobKind::Concurrent;
    job.cfg = cfg;
    job.cycles = cycles;
    job.workload = workload;
    job.use_named = false;
    job.spec = spec;
    return job;
}

std::uint64_t
SimJob::key() const
{
    JobHasher h;
    h.i(static_cast<long long>(kind));
    hashInto(h, cfg);
    h.i(static_cast<long long>(cycles.get()));
    hashInto(h, workload);
    h.i(tb_limit);
    h.i(use_named);
    if (use_named)
        h.i(static_cast<long long>(named));
    else
        hashInto(h, spec);
    h.i(series.issue).i(series.l1d).i(
        static_cast<long long>(series.interval.get()));
    return h.value();
}

std::string
SimJob::describe() const
{
    if (!label.empty())
        return label;
    std::string d = kind == JobKind::Isolated ? "iso:" : "cke:";
    d += workload.name();
    if (kind == JobKind::Isolated) {
        if (tb_limit > 0) {
            d += '#';
            d += std::to_string(tb_limit);
        }
    } else if (use_named) {
        d += ':';
        d += schemeName(named);
    } else {
        d += ":spec";
    }
    return d;
}

std::uint64_t
campaignFingerprint(const std::vector<SimJob> &jobs)
{
    JobHasher h;
    h.i(static_cast<long long>(jobs.size()));
    for (const SimJob &job : jobs)
        h.i(static_cast<long long>(job.key()));
    return h.value();
}

} // namespace ckesim

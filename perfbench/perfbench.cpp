/**
 * @file
 * The repository benchmark binary. It runs one workload (or all of
 * them) against the simulator's public API and prints human-readable
 * lines followed by one machine line, "@result {json}", that
 * perfbench/run.py turns into the benchmark's result object.
 *
 *   perfbench --workload paper16|fig12-sweep|service-smoke|all
 *             --seed N --seconds S --trace 0|1
 *             [--jobs N] [--daemon PATH] [--workdir DIR]
 *
 * Every layer is measured from outside, by timing calls into public
 * functions (Gpu::run/audit/setProfiler, SweepEngine::sweep/run/stats,
 * runCampaignClient, and the ckesim-campaignd --serve process).
 * End-to-end metrics come from untraced work. With --trace 1 the same
 * work is repeated with tracing on (profiler, chunked runs, per-job
 * timers), its result digest is checked against the untraced one, and
 * the per-layer metrics are reported. A per-layer metric that a
 * workload does not exercise reads -1.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <signal.h>
#include <sstream>
#include <string>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <time.h>
#include <unistd.h>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_spec.hpp"
#include "campaign/client.hpp"
#include "campaign/wire.hpp"
#include "core/milg.hpp"
#include "gpu.hpp"
#include "kernels/workload.hpp"
#include "metrics/sim_job.hpp"
#include "metrics/sweep_engine.hpp"
#include "metrics/table.hpp"
#include "sim/check.hpp"
#include "sim/profiler.hpp"
#include "sim/stats.hpp"

namespace {

using namespace ckesim;

// ---- sizing ---------------------------------------------------------------
// Each run does a fixed amount of work, derived from --seconds and the
// constants below, so two commits compared at the same --seconds
// simulate exactly the same jobs. The per-unit estimates size the work
// to about --seconds on a 4-core x86 host; they are part of the
// benchmark's definition and must stay the same between the commits
// compared.

/** paper16: total simulated cycles per job (profiling included). */
constexpr std::uint64_t kPaper16Cycles = 5000;
/** paper16: Warped-Slicer profiling window of the WS schemes. */
constexpr std::uint64_t kPaper16ProfileWindow = 2000;
/** paper16: estimated host seconds of one pass over all jobs. */
constexpr double kPaper16PassSeconds = 24.0;
/** fig12-sweep: measurement cycles per job (WS adds its window). */
constexpr std::uint64_t kFig12Cycles = 10000;
/** fig12-sweep: estimated host seconds of one sweep. */
constexpr double kFig12SweepSeconds = 6.25;
/** service-smoke: campaigns submitted per requested second; at least
 *  kServiceMinCampaigns so ten or more samples lie beyond p95. */
constexpr double kServiceCampaignsPerSecond = 13.0;
constexpr std::size_t kServiceMinCampaigns = 200;
/** service-smoke: distinct refs checked against in-process runs. */
constexpr std::size_t kServiceReferenceRefs = 8;
/** service-smoke: concurrent closed-loop client connections. */
constexpr int kServiceClients = 2;
/** Paper Figure 12 WS gains over WS (percent). */
constexpr double kPaperQbmiGainPct = 1.5;
constexpr double kPaperDmilGainPct = 24.6;
/** fig12-sweep: engine + job-list builds timed before each sweep. */
constexpr int kSetupSamplesPerSweep = 33;
/** service-smoke: daemon starts timed for setup_s. */
constexpr int kServiceSetupTrials = 15;

/** Units of work for a run of @p seconds, at least @p min_units. */
std::size_t
unitsFor(double seconds, double unit_seconds, std::size_t min_units)
{
    return std::max(min_units, static_cast<std::size_t>(
                                   std::lround(seconds / unit_seconds)));
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU seconds used so far by the calling thread (or, with
 * CLOCK_PROCESS_CPUTIME_ID, by every thread of the process). Host time
 * in the end-to-end metrics is CPU time: on a shared virtual machine
 * the hypervisor takes the vCPUs away for stretches that inflate wall
 * time by tens of percent from one minute to the next, and the kernel
 * leaves that stolen time out of CPU time.
 */
double
cpuNow(clockid_t clock = CLOCK_THREAD_CPUTIME_ID)
{
    struct timespec t{};
    ::clock_gettime(clock, &t);
    return static_cast<double>(t.tv_sec) +
           1e-9 * static_cast<double>(t.tv_nsec);
}

double
rusageSeconds(const struct rusage &ru)
{
    auto sec = [](const struct timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Fisher-Yates shuffle driven by splitmix64(@p rng). */
template <typename T>
void
seededShuffle(std::vector<T> &v, std::uint64_t &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[splitmix64(rng) % i]);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
peakRssMb()
{
    struct rusage self{}, kids{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

int
hostCores()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

const char *
classKey(WorkloadClass cls)
{
    switch (cls) {
      case WorkloadClass::CC: return "cc";
      case WorkloadClass::CM: return "cm";
      case WorkloadClass::MM: return "mm";
    }
    return "?";
}

// ---- result ---------------------------------------------------------------

const std::vector<std::string> kFig12Schemes = {"spatial", "ws", "ws_qbmi",
                                                "ws_dmil"};
const std::vector<std::string> kMemSimulated = {
    "l1d_miss_rate",     "l1d_rsfail_per_access", "rsfail_line_share",
    "rsfail_mshr_share", "rsfail_missq_share",    "l2_miss_rate",
    "dram_row_hit_rate"};
const std::vector<std::string> kClassKeys = {"all", "cc", "cm", "mm"};

/** Every per-layer metric, in report order. */
const std::vector<std::string> &
perLayerNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n = {
            "gpu.runloop_share", "gpu.integrity_share",
            "gpu.scheme_share", "gpu.host_ns_per_sm_cycle",
            "gpu.prof_attributed_share", "gpu.prof_attributed_share_min",
            "gpu.trace_overhead", "sm.issue_share", "sm.lsu_share",
            "sm.issue_ns_per_sm_cycle", "sm.issue_slot_util",
            "sm.lsu_stall_frac", "mem.l1d_share", "mem.noc_share",
            "mem.l2_share", "mem.dram_share", "mem.noc_scopes_per_cycle",
            "mem.l1d_ns_per_probe"};
        for (const std::string &m : kMemSimulated)
            for (const std::string &c : kClassKeys)
                n.push_back("mem." + m + "." + c);
        for (const char *m : {"core.dmil_rsfail_cut",
                              "core.dmil_lsu_stall_cut",
                              "core.mil_limit_mean", "core.qbmi_quota_mean"})
            n.push_back(m);
        for (const std::string &s : kFig12Schemes)
            for (const std::string &c : kClassKeys)
                n.push_back("fig12.ws_gmean." + s + "." + c);
        for (const std::string &s : kFig12Schemes)
            n.push_back("fig12.antt_gmean." + s);
        for (const std::string &s : kFig12Schemes)
            n.push_back("fig12.fairness_gmean." + s);
        for (const char *m :
             {"fig12.qbmi_ws_gain_pct", "fig12.dmil_ws_gain_pct",
              "qbmi_ws_gain_err_pp", "dmil_ws_gain_err_pp",
              "kernels.build_ms", "metrics.sims_executed",
              "metrics.memo_hits", "metrics.memo_hit_rate",
              "metrics.isolated_runs", "metrics.job_s_max",
              "metrics.parallel_eff", "metrics.sweep_wall_s",
              "campaign.latency_p50_ms", "campaign.latency_p95_ms",
              "campaign.latency_fresh_p50_ms",
              "campaign.latency_replay_p50_ms", "campaign.dispatched",
              "campaign.journal_hits", "campaign.dedupe_hits",
              "campaign.rejected", "campaign.redispatched",
              "campaign.client_attempts", "campaign.fleet_ready_ms",
              "failed_share"})
            n.push_back(m);
        return n;
    }();
    return names;
}

struct Result
{
    std::string workload;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    std::map<std::string, double> e2e;
    std::map<std::string, double> layer;

    Result()
    {
        for (const std::string &n : perLayerNames())
            layer[n] = -1.0;
    }

    /** Count one checked operation; print the story when it fails. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("CHECK FAILED [%s] %s\n", workload.c_str(),
                        what.c_str());
        }
    }

    /** Count n operations that all failed (n may be 0). */
    void
    failures(std::uint64_t n, const std::string &what)
    {
        attempted += n;
        failed += n;
        if (n > 0)
            std::printf("CHECK FAILED [%s] %" PRIu64 " x %s\n",
                        workload.c_str(), n, what.c_str());
    }
};

// ---- profiler report parsing ------------------------------------------------

/** Per-component totals read back from Profiler::report(). */
struct ProfTotals
{
    double wall_ms = 0.0;
    double attributed_ms = 0.0;
    std::map<std::string, double> ms;
    std::map<std::string, double> scopes;

    void
    add(const Profiler &prof)
    {
        std::ostringstream os;
        prof.report(os);
        std::istringstream in(os.str());
        std::string line;
        std::getline(in, line);
        double wall = 0.0, pct = 0.0;
        std::sscanf(line.c_str(), "profile: wall %lf ms, attributed %lf%%",
                    &wall, &pct);
        wall_ms += wall;
        attributed_ms += wall * pct / 100.0;
        std::getline(in, line); // column header
        while (std::getline(in, line)) {
            char name[32] = {0};
            double comp_ms = 0.0, comp_pct = 0.0, calls = 0.0;
            if (std::sscanf(line.c_str(), " %31s %lf %lf%% %lf", name,
                            &comp_ms, &comp_pct, &calls) == 4) {
                ms[name] += comp_ms;
                scopes[name] += calls;
            }
        }
    }

    double
    share(const std::string &comp) const
    {
        const auto it = ms.find(comp);
        return wall_ms > 0.0 && it != ms.end() ? it->second / wall_ms
                                               : 0.0;
    }
};

/** Fill the host-time per-layer metrics from profiler totals. */
void
reportProfile(Result &res, const ProfTotals &prof, double sm_cycles,
              double cycles, double min_attributed)
{
    auto get = [&](const std::map<std::string, double> &m,
                   const char *k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    res.layer["gpu.runloop_share"] = prof.share("runloop");
    res.layer["gpu.integrity_share"] = prof.share("integrity");
    res.layer["gpu.scheme_share"] = prof.share("scheme");
    res.layer["gpu.prof_attributed_share"] =
        prof.wall_ms > 0.0 ? prof.attributed_ms / prof.wall_ms : 0.0;
    res.layer["gpu.prof_attributed_share_min"] = min_attributed;
    res.layer["sm.issue_share"] = prof.share("sm_issue");
    res.layer["sm.lsu_share"] = prof.share("lsu");
    res.layer["sm.issue_ns_per_sm_cycle"] =
        get(prof.ms, "sm_issue") * 1e6 / std::max(sm_cycles, 1.0);
    res.layer["mem.l1d_share"] = prof.share("l1d");
    res.layer["mem.noc_share"] = prof.share("noc");
    res.layer["mem.l2_share"] = prof.share("l2");
    res.layer["mem.dram_share"] = prof.share("dram");
    res.layer["mem.noc_scopes_per_cycle"] =
        get(prof.scopes, "noc") / std::max(cycles, 1.0);
    res.layer["mem.l1d_ns_per_probe"] =
        get(prof.ms, "l1d") * 1e6 / std::max(get(prof.scopes, "l1d"), 1.0);
}

// ---- simulated-statistics aggregation ---------------------------------------

/** The simulated statistics of one run, and their digest. */
struct RunStats
{
    std::vector<KernelStats> kernels;
    SmStats sm;
    MemSideStats mem;

    void
    hashInto(JobHasher &h) const
    {
        for (const KernelStats &s : kernels)
            h.i(static_cast<long long>(fingerprint(s)));
        h.i(static_cast<long long>(fingerprint(sm)));
        h.d(mem.l2_miss_rate);
        h.d(mem.dram_row_hit_rate);
    }

    std::uint64_t
    digest() const
    {
        JobHasher h;
        hashInto(h);
        return h.value();
    }
};

RunStats
runStats(Gpu &gpu)
{
    RunStats r;
    for (int k = 0; k < gpu.numKernels(); ++k)
        r.kernels.push_back(gpu.kernelStatsTotal(KernelId{k}));
    r.sm = gpu.smStatsTotal();
    r.mem.l2_miss_rate = gpu.memsys().l2MissRate();
    const int channels = gpu.config().dram.num_channels;
    for (int c = 0; c < channels; ++c)
        r.mem.dram_row_hit_rate += gpu.memsys().channel(c).rowHitRate();
    r.mem.dram_row_hit_rate /= std::max(channels, 1);
    return r;
}

RunStats
runStats(const ConcurrentResult &r)
{
    return {r.stats, r.sm_stats, r.mem};
}

/** Memory-pipeline counters pooled over runs of one pair class. */
struct MemPool
{
    KernelStats k;
    double l2_miss = 0.0;
    double row_hit = 0.0;
    int runs = 0;

    void
    add(const RunStats &r)
    {
        for (const KernelStats &s : r.kernels)
            k += s;
        l2_miss += r.mem.l2_miss_rate;
        row_hit += r.mem.dram_row_hit_rate;
        ++runs;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
reportMemPools(Result &res, const std::map<std::string, MemPool> &pools)
{
    for (const auto &[cls, p] : pools) {
        const double rsf = static_cast<double>(p.k.l1d_rsfails);
        const std::string sfx = "." + cls;
        res.layer["mem.l1d_miss_rate" + sfx] = p.k.l1dMissRate();
        res.layer["mem.l1d_rsfail_per_access" + sfx] = p.k.l1dRsFailRate();
        res.layer["mem.rsfail_line_share" + sfx] =
            ratio(static_cast<double>(p.k.l1d_rsfail_line), rsf);
        res.layer["mem.rsfail_mshr_share" + sfx] =
            ratio(static_cast<double>(p.k.l1d_rsfail_mshr), rsf);
        res.layer["mem.rsfail_missq_share" + sfx] =
            ratio(static_cast<double>(p.k.l1d_rsfail_missq), rsf);
        res.layer["mem.l2_miss_rate" + sfx] = ratio(p.l2_miss, p.runs);
        res.layer["mem.dram_row_hit_rate" + sfx] = ratio(p.row_hit, p.runs);
    }
}

/** DMIL's cut in rsfail rate and LSU stall fraction against WS. */
void
reportDmilCuts(Result &res, const KernelStats &ws_k, const SmStats &ws_sm,
               const KernelStats &dmil_k, const SmStats &dmil_sm)
{
    res.layer["core.dmil_rsfail_cut"] =
        1.0 - ratio(dmil_k.l1dRsFailRate(), ws_k.l1dRsFailRate());
    res.layer["core.dmil_lsu_stall_cut"] =
        1.0 - ratio(dmil_sm.lsuStallFraction(), ws_sm.lsuStallFraction());
}

/** Issue-controller state sampled between run() chunks. */
struct IssueSamples
{
    double mil_sum = 0.0, mil_n = 0.0;     ///< finite MIL limits
    double quota_sum = 0.0, quota_n = 0.0; ///< QBMI quotas

    void
    report(Result &res) const
    {
        res.layer["core.mil_limit_mean"] =
            mil_n > 0.0 ? mil_sum / mil_n : -1.0;
        res.layer["core.qbmi_quota_mean"] =
            quota_n > 0.0 ? quota_sum / quota_n : -1.0;
    }
};

/**
 * Run @p gpu for @p cycles in 1000-cycle chunks, sampling every SM's
 * finite MIL limits (DMIL state) and, for a QBMI scheme, its quotas
 * between chunks.
 */
void
runChunked(Gpu &gpu, Cycle cycles, bool qbmi, IssueSamples &samples)
{
    constexpr std::uint64_t kChunk = 1000;
    std::uint64_t left = cycles.get();
    while (left > 0) {
        const std::uint64_t step = std::min(left, kChunk);
        gpu.run(Cycle{step});
        left -= step;
        for (int s = 0; s < gpu.numSms(); ++s)
            for (int k = 0; k < gpu.numKernels(); ++k) {
                const IssueController &ctl = gpu.sm(s).controller();
                const int lim = ctl.milLimit(KernelId{k});
                if (lim < Milg::kUnlimited) {
                    samples.mil_sum += lim;
                    samples.mil_n += 1.0;
                }
                if (qbmi) {
                    samples.quota_sum += ctl.qbmiQuota(KernelId{k});
                    samples.quota_n += 1.0;
                }
            }
    }
}

// ---- paper16 ----------------------------------------------------------------

std::vector<std::pair<std::string, SchemeSpec>>
paper16Schemes()
{
    auto ws = [](BmiMode bmi, MilMode mil) {
        SchemeSpec s = makeScheme(PartitionScheme::WarpedSlicer, bmi, mil);
        s.ws_profile_window = Cycle{kPaper16ProfileWindow};
        return s;
    };
    SchemeSpec ucp = ws(BmiMode::None, MilMode::None);
    ucp.ucp = true;
    return {{"WS", ws(BmiMode::None, MilMode::None)},
            {"WS-QBMI-DMIL", ws(BmiMode::QBMI, MilMode::Dynamic)},
            {"SMK-DRF", makeScheme(PartitionScheme::SmkDrf, BmiMode::None,
                                   MilMode::None)},
            {"WS+UCP", ucp}};
}

/** One paper16 job and its untraced results. */
struct Paper16Job
{
    Workload wl;
    std::string scheme;
    SchemeSpec spec;
    double run_s = 0.0; ///< CPU seconds of Gpu::run in the first pass
    RunStats stats;     ///< first pass's; later passes must match
};

Result
runPaper16(std::uint64_t seed, double seconds, bool trace)
{
    Result res;
    res.workload = "paper16";
    GpuConfig cfg;
    std::uint64_t rng = seed;
    cfg.seed = splitmix64(rng);
    const Cycle cycles{kPaper16Cycles};

    // A pass runs every suite pair under every scheme, so every seed
    // simulates the same mix; the seed sets the order.
    std::vector<Paper16Job> jobs;
    for (const Workload &w : allSuitePairs())
        for (const auto &[name, spec] : paper16Schemes()) {
            Paper16Job j;
            j.wl = w;
            j.scheme = name;
            j.spec = spec;
            jobs.push_back(std::move(j));
        }

    // Host time is summed over the whole run. On a shared host the
    // speed of a fixed job moves between a common slow state and a rarer
    // fast one every few seconds; the total over many jobs averages over
    // those states, where the fastest of a few repeats chases the rare
    // fast one and spreads more from run to run.
    std::vector<double> setup, build_ms;
    double run_total = 0.0, pass_total = 0.0, cycles_total = 0.0;
    JobHasher digest;
    const std::size_t passes = unitsFor(seconds, kPaper16PassSeconds, 1);
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (std::size_t pass = 0; pass < passes; ++pass) {
        seededShuffle(order, rng);
        for (std::size_t idx : order) {
            Paper16Job &j = jobs[idx];
            const double t0 = cpuNow();
            const Workload wl = makeWorkload(
                {j.wl.kernels[0]->name, j.wl.kernels[1]->name});
            build_ms.push_back((cpuNow() - t0) * 1e3);
            Gpu gpu(cfg, wl, j.spec);
            setup.push_back(cpuNow() - t0);
            const double t1 = cpuNow();
            gpu.run(cycles);
            const double run = cpuNow() - t1;
            run_total += run;
            pass_total += setup.back() + run;
            cycles_total += static_cast<double>(cycles.get());

            RunStats stats = runStats(gpu);
            bool audited = true;
            std::string why;
            try {
                gpu.audit();
            } catch (const SimError &e) {
                audited = false;
                why = e.what();
            }
            res.check(audited, "audit " + wl.name() + " " + j.scheme +
                                   ": " + why);
            if (pass == 0) {
                j.run_s = run;
                j.stats = std::move(stats);
            } else {
                res.check(stats.digest() == j.stats.digest(),
                          wl.name() + " " + j.scheme +
                              " differs between passes");
            }
        }
    }
    for (const Paper16Job &j : jobs)
        j.stats.hashInto(digest);
    res.digest = digest.value();

    res.e2e["sim_cycles_per_s"] = cycles_total / run_total;
    res.e2e["jobs_per_s"] =
        static_cast<double>(jobs.size() * passes) / run_total;
    res.e2e["cpu_s"] = pass_total / static_cast<double>(passes);
    res.e2e["setup_s"] = median(setup);
    res.e2e["peak_rss_mb"] = peakRssMb();
    std::printf("paper16: %zu jobs x %zu passes (%d SMs, %" PRIu64
                " cycles each), Gpu::run %.2f CPU s\n",
                jobs.size(), passes, cfg.num_sms, cycles.get(), run_total);

    // Simulated per-layer statistics (deterministic; same traced or not).
    std::map<std::string, MemPool> pools;
    KernelStats ws_k, dmil_k;
    SmStats ws_sm, dmil_sm, all_sm;
    for (const Paper16Job &d : jobs) {
        pools["all"].add(d.stats);
        pools[classKey(d.wl.cls())].add(d.stats);
        all_sm += d.stats.sm;
        if (d.scheme == "WS" || d.scheme == "WS-QBMI-DMIL") {
            const bool dmil = d.scheme != "WS";
            for (const KernelStats &s : d.stats.kernels)
                (dmil ? dmil_k : ws_k) += s;
            (dmil ? dmil_sm : ws_sm) += d.stats.sm;
        }
    }
    reportMemPools(res, pools);
    reportDmilCuts(res, ws_k, ws_sm, dmil_k, dmil_sm);
    res.layer["sm.issue_slot_util"] =
        ratio(static_cast<double>(all_sm.issue_slots_used),
              static_cast<double>(all_sm.cycles) * cfg.sm.num_schedulers);
    res.layer["sm.lsu_stall_frac"] = all_sm.lsuStallFraction();
    res.layer["kernels.build_ms"] = median(build_ms);
    res.layer["gpu.host_ns_per_sm_cycle"] =
        run_total * 1e9 / (cycles_total * cfg.num_sms);

    if (!trace)
        return res;

    // Traced pass: every job again, with a profiler attached and runs
    // chunked so MIL and QBMI state can be sampled between chunks.
    ProfTotals prof;
    IssueSamples issue;
    double traced_run = 0.0, untraced_run = 0.0, traced_cycles = 0.0;
    double min_attr = 1.0;
    for (const Paper16Job &d : jobs) {
        Gpu gpu(cfg, d.wl, d.spec);
        Profiler p;
        p.enable();
        gpu.setProfiler(&p);
        const double t1 = cpuNow();
        runChunked(gpu, cycles, d.spec.bmi == BmiMode::QBMI, issue);
        traced_run += cpuNow() - t1;
        untraced_run += d.run_s;
        traced_cycles += static_cast<double>(cycles.get());
        const double attr = p.attributedFraction();
        min_attr = std::min(min_attr, attr);
        std::printf("  traced %-6s %-13s attributed %.1f%%\n",
                    d.wl.name().c_str(), d.scheme.c_str(), 100.0 * attr);
        prof.add(p);
        gpu.setProfiler(nullptr);
        res.check(runStats(gpu).digest() == d.stats.digest(),
                  "traced digest of " + d.wl.name() + " " + d.scheme +
                      " differs from untraced");
    }
    reportProfile(res, prof, traced_cycles * cfg.num_sms, traced_cycles,
                  min_attr);
    res.layer["gpu.trace_overhead"] = traced_run / untraced_run - 1.0;
    issue.report(res);
    return res;
}

// ---- fig12-sweep ------------------------------------------------------------

const NamedScheme kFig12Named[] = {NamedScheme::Spatial, NamedScheme::WS,
                                   NamedScheme::WS_QBMI,
                                   NamedScheme::WS_DMIL};

std::vector<SimJob>
fig12Jobs(const GpuConfig &cfg, const std::vector<Workload> &pairs)
{
    std::vector<SimJob> jobs;
    for (const Workload &w : pairs)
        for (NamedScheme s : kFig12Named)
            jobs.push_back(SimJob::concurrent(cfg, Cycle{kFig12Cycles}, w, s));
    return jobs;
}

std::uint64_t
fig12Digest(const std::vector<SimResult> &results)
{
    JobHasher h;
    for (const SimResult &r : results) {
        if (!r.concurrent) {
            h.i(-1);
            continue;
        }
        const ConcurrentResult &c = *r.concurrent;
        runStats(c).hashInto(h);
        for (double v : c.ipc)
            h.d(v);
        h.d(c.weighted_speedup);
        h.d(c.antt_value);
        h.d(c.fairness);
    }
    return h.value();
}

/** Does a named scheme run a Warped-Slicer profiling window first? */
bool
profilesFirst(NamedScheme s)
{
    switch (s) {
      case NamedScheme::Spatial:
      case NamedScheme::Leftover:
      case NamedScheme::SMK_PW:
      case NamedScheme::SMK_P_QBMI:
      case NamedScheme::SMK_P_DMIL:
        return false;
      default:
        return true;
    }
}

/** Simulated cycles one job executes, its profiling window included
 *  (isolated baselines a concurrent job pulls in are not counted). */
double
jobSimCycles(const SimJob &job)
{
    double c = static_cast<double>(job.cycles.get());
    if (job.kind == JobKind::Concurrent && job.use_named &&
        profilesFirst(job.named))
        c += static_cast<double>(SchemeSpec{}.ws_profile_window.get());
    return c;
}

void
reportFig12Simulated(Result &res, const GpuConfig &cfg,
                     const std::vector<Workload> &pairs,
                     const std::vector<SimResult> &results)
{
    const std::vector<std::string> cols(kFig12Schemes.begin(),
                                        kFig12Schemes.end());
    ClassTable ws("ws", cols), antt_t("antt", cols), fair("fair", cols);
    std::map<std::string, MemPool> pools;
    KernelStats ws_k, dmil_k;
    SmStats ws_sm, dmil_sm, all_sm;
    std::size_t idx = 0;
    for (const Workload &w : pairs) {
        for (std::size_t s = 0; s < std::size(kFig12Named); ++s) {
            const ConcurrentResult &r = *results[idx++].concurrent;
            ws.add(w.cls(), s, r.weighted_speedup);
            antt_t.add(w.cls(), s, r.antt_value);
            fair.add(w.cls(), s, r.fairness);
            pools["all"].add(runStats(r));
            pools[classKey(w.cls())].add(runStats(r));
            all_sm += r.sm_stats;
            if (kFig12Named[s] == NamedScheme::WS ||
                kFig12Named[s] == NamedScheme::WS_DMIL) {
                const bool dmil = kFig12Named[s] == NamedScheme::WS_DMIL;
                for (const KernelStats &k : r.stats)
                    (dmil ? dmil_k : ws_k) += k;
                (dmil ? dmil_sm : ws_sm) += r.sm_stats;
            }
        }
    }
    const WorkloadClass classes[] = {WorkloadClass::CC, WorkloadClass::CM,
                                     WorkloadClass::MM};
    for (std::size_t s = 0; s < kFig12Schemes.size(); ++s) {
        const std::string base = "fig12.ws_gmean." + kFig12Schemes[s];
        res.layer[base + ".all"] = ws.geomeanAll(s);
        for (WorkloadClass c : classes)
            res.layer[base + "." + classKey(c)] = ws.geomean(c, s);
        res.layer["fig12.antt_gmean." + kFig12Schemes[s]] =
            antt_t.geomeanAll(s);
        res.layer["fig12.fairness_gmean." + kFig12Schemes[s]] =
            fair.geomeanAll(s);
    }
    const double qbmi = 100.0 * (ws.geomeanAll(2) / ws.geomeanAll(1) - 1.0);
    const double dmil = 100.0 * (ws.geomeanAll(3) / ws.geomeanAll(1) - 1.0);
    res.layer["fig12.qbmi_ws_gain_pct"] = qbmi;
    res.layer["fig12.dmil_ws_gain_pct"] = dmil;
    res.layer["qbmi_ws_gain_err_pp"] = std::fabs(qbmi - kPaperQbmiGainPct);
    res.layer["dmil_ws_gain_err_pp"] = std::fabs(dmil - kPaperDmilGainPct);
    reportMemPools(res, pools);
    reportDmilCuts(res, ws_k, ws_sm, dmil_k, dmil_sm);
    res.layer["sm.issue_slot_util"] =
        ratio(static_cast<double>(all_sm.issue_slots_used),
              static_cast<double>(all_sm.cycles) * cfg.sm.num_schedulers);
    res.layer["sm.lsu_stall_frac"] = all_sm.lsuStallFraction();
    std::printf("fig12: WS gmean spatial %.3f ws %.3f ws-qbmi %.3f "
                "ws-dmil %.3f; gain over WS: QBMI %+.2f%% DMIL %+.2f%% "
                "(paper %+.1f%% %+.1f%%)\n",
                ws.geomeanAll(0), ws.geomeanAll(1), ws.geomeanAll(2),
                ws.geomeanAll(3), qbmi, dmil, kPaperQbmiGainPct,
                kPaperDmilGainPct);
}

Result
runFig12(std::uint64_t seed, double seconds, bool trace, int jobs)
{
    Result res;
    res.workload = "fig12-sweep";
    GpuConfig cfg;
    std::uint64_t rng = seed;
    cfg.seed = splitmix64(rng);

    std::vector<double> setup, sweep_s, sweep_cpu, build_ms;
    std::vector<Workload> pairs;
    std::vector<std::uint64_t> digests;
    std::vector<SimResult> results;
    SweepStats stats;
    const std::size_t sweeps = unitsFor(seconds, kFig12SweepSeconds, 1);
    for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
        // Set-up takes tens of microseconds, so it is sampled many times
        // before each sweep; the sweep uses the last engine built.
        std::unique_ptr<SweepEngine> engine;
        std::vector<SimJob> job_list;
        for (int i = 0; i < kSetupSamplesPerSweep; ++i) {
            engine.reset();
            const auto t0 = Clock::now();
            engine = std::make_unique<SweepEngine>(jobs);
            const auto tb = Clock::now();
            pairs = representativePairs();
            job_list = fig12Jobs(cfg, pairs);
            build_ms.push_back(secondsSince(tb) * 1e3);
            setup.push_back(secondsSince(t0));
        }
        const auto t1 = Clock::now();
        const double c1 = cpuNow(CLOCK_PROCESS_CPUTIME_ID);
        bool ok = true;
        std::string why;
        try {
            results = engine->sweep(job_list);
        } catch (const SimError &e) {
            ok = false;
            why = e.what();
        }
        sweep_cpu.push_back(cpuNow(CLOCK_PROCESS_CPUTIME_ID) - c1);
        sweep_s.push_back(secondsSince(t1));
        res.check(ok, "sweep failed: " + why);
        if (!ok)
            return res;
        bool all_set = true;
        for (const SimResult &r : results)
            all_set = all_set && r.concurrent != nullptr;
        res.check(all_set, "sweep returned an empty result");
        digests.push_back(fig12Digest(results));
        stats = engine->stats();
    }

    res.digest = digests.front();
    for (std::size_t i = 1; i < digests.size(); ++i)
        res.check(digests[i] == digests[0],
                  "sweep digest differs between repeats");

    const std::size_t njobs = pairs.size() * std::size(kFig12Named);
    std::set<std::string> kernels;
    for (const Workload &w : pairs)
        for (const KernelProfile *k : w.kernels)
            kernels.insert(k->name);
    double sim_cycles =
        static_cast<double>(kernels.size() * kFig12Cycles);
    for (const SimJob &j : fig12Jobs(cfg, pairs))
        sim_cycles += jobSimCycles(j);
    res.check(stats.sims_executed == njobs + kernels.size(),
              "memo: " + std::to_string(stats.sims_executed) +
                  " sims executed, expected " +
                  std::to_string(njobs + kernels.size()));

    const double wall = median(sweep_s);
    double cpu = 0.0;
    for (double c : sweep_cpu)
        cpu += c / static_cast<double>(sweep_cpu.size());
    res.e2e["cpu_s"] = cpu;
    res.e2e["sim_cycles_per_s"] = sim_cycles / cpu;
    res.e2e["jobs_per_s"] = static_cast<double>(njobs) / cpu;
    // Engine construction is mostly thread creation, whose cost shifts
    // by about 20% with host state for whole sweeps at a time; the
    // fastest set-up of the run is steady where the median is not.
    res.e2e["setup_s"] = *std::min_element(setup.begin(), setup.end());
    res.e2e["peak_rss_mb"] = peakRssMb();
    std::printf("fig12-sweep: %zu sweeps of %zu jobs at jobs=%d, "
                "%" PRIu64 " sims + %" PRIu64 " memo hits per sweep, "
                "median %.2f s wall, mean %.2f CPU s\n",
                sweep_s.size(), njobs, jobs, stats.sims_executed,
                stats.memo_hits, wall, cpu);

    reportFig12Simulated(res, cfg, pairs, results);
    res.layer["kernels.build_ms"] = median(build_ms);
    res.layer["metrics.sims_executed"] =
        static_cast<double>(stats.sims_executed);
    res.layer["metrics.memo_hits"] = static_cast<double>(stats.memo_hits);
    res.layer["metrics.memo_hit_rate"] = stats.hitRate();
    res.layer["metrics.isolated_runs"] =
        static_cast<double>(stats.isolated_runs);
    res.layer["metrics.sweep_wall_s"] = wall;
    res.layer["gpu.host_ns_per_sm_cycle"] =
        cpu * 1e9 / (sim_cycles * cfg.num_sms);
    if (!trace)
        return res;

    // Traced pass 1: the same sweep on a fresh engine, each job timed
    // around its own SweepEngine::run call on a pool of the same size.
    {
        SweepEngine engine(jobs);
        const std::vector<SimJob> job_list = fig12Jobs(cfg, pairs);
        std::vector<SimResult> traced(job_list.size());
        std::vector<double> job_s(job_list.size(), 0.0);
        std::vector<std::string> errors(job_list.size());
        std::vector<std::function<void()>> tasks;
        for (std::size_t i = 0; i < job_list.size(); ++i)
            tasks.push_back([&, i] {
                const auto t0 = Clock::now();
                try {
                    traced[i] = engine.run(job_list[i]);
                } catch (const SimError &e) {
                    errors[i] = e.what();
                }
                job_s[i] = secondsSince(t0);
            });
        WorkStealingPool pool(jobs - 1);
        const auto t0 = Clock::now();
        const double c0 = cpuNow(CLOCK_PROCESS_CPUTIME_ID);
        pool.run(std::move(tasks));
        const double traced_cpu = cpuNow(CLOCK_PROCESS_CPUTIME_ID) - c0;
        const double traced_wall = secondsSince(t0);
        for (const std::string &e : errors)
            res.check(e.empty(), "traced job failed: " + e);
        res.check(fig12Digest(traced) == res.digest,
                  "traced sweep digest differs from untraced");
        double busy = 0.0;
        for (double s : job_s)
            busy += s;
        res.layer["metrics.job_s_max"] =
            *std::max_element(job_s.begin(), job_s.end());
        res.layer["metrics.parallel_eff"] = busy / (jobs * traced_wall);
        res.layer["gpu.trace_overhead"] = traced_cpu / cpu - 1.0;
    }

    // Traced pass 2: host-time attribution. The engine builds its own
    // Gpus, so one WS-DMIL job per pair class is replayed serially
    // with a profiler attached; its statistics must match the sweep's.
    {
        SweepEngine engine(1);
        ProfTotals prof;
        IssueSamples issue;
        double cycles = 0.0, min_attr = 1.0;
        std::set<WorkloadClass> seen;
        for (std::size_t p = 0; p < pairs.size(); ++p) {
            const Workload &w = pairs[p];
            if (!seen.insert(w.cls()).second)
                continue;
            const SchemeSpec spec = engine.makeNamedScheme(
                cfg, Cycle{kFig12Cycles}, NamedScheme::WS_DMIL, w);
            const Cycle total{kFig12Cycles +
                              spec.ws_profile_window.get()};
            Gpu gpu(cfg, w, spec);
            Profiler pr;
            pr.enable();
            gpu.setProfiler(&pr);
            runChunked(gpu, total, false, issue);
            cycles += static_cast<double>(total.get());
            min_attr = std::min(min_attr, pr.attributedFraction());
            std::printf("  traced %-6s %-13s attributed %.1f%%\n",
                        w.name().c_str(), "WS-DMIL",
                        100.0 * pr.attributedFraction());
            prof.add(pr);
            const ConcurrentResult &ref =
                *results[p * std::size(kFig12Named) + 3].concurrent;
            res.check(runStats(gpu).digest() == runStats(ref).digest(),
                      "profiled replay of " + w.name() +
                          " WS-DMIL differs from the sweep result");
        }
        reportProfile(res, prof, cycles * cfg.num_sms, cycles, min_attr);
        issue.report(res);
    }
    return res;
}

// ---- service-smoke ----------------------------------------------------------

/** One closed-loop submission's outcome. */
struct Submission
{
    std::uint64_t cycles = 0;
    double latency_ms = 0.0;
    bool replayed = false;
    bool ok = false;
    std::string table;
    ClientReport report;
};

/** Fork/exec the daemon with stderr to @p err_path; dies with us. */
pid_t
spawnDaemon(const std::string &daemon, int workers,
            const std::string &journal, const std::string &err_path)
{
    const std::string w = std::to_string(workers);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent)
        ::_exit(127);
    const int fd = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd >= 0) {
        ::dup2(fd, 2);
        ::close(fd);
    }
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
        ::dup2(devnull, 1);
        ::close(devnull);
    }
    ::execl(daemon.c_str(), daemon.c_str(), "--serve", "svc.sock",
            "--workers", w.c_str(), "--journal", journal.c_str(),
            static_cast<char *>(nullptr));
    ::_exit(127);
}

int
connectRetry(const std::string &path, double timeout_s)
{
    const auto t0 = Clock::now();
    while (secondsSince(t0) < timeout_s) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        struct sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
        if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof addr) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return -1;
}

/**
 * Stop the daemon with a drain and reap it; returns its stderr. With
 * @p cpu_s, also the CPU seconds the daemon and the workers it reaped
 * used over its life.
 */
std::string
stopDaemon(pid_t pid, const std::string &err_path, bool &clean,
           double *cpu_s = nullptr)
{
    ::kill(pid, SIGTERM);
    int status = 0;
    struct rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (cpu_s != nullptr)
        *cpu_s = rusageSeconds(ru);
    std::string out;
    if (FILE *f = std::fopen(err_path.c_str(), "r")) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            out.append(buf, n);
        std::fclose(f);
    }
    return out;
}

double
reportField(const std::string &text, const std::string &key)
{
    const std::string pat = key + "=";
    std::size_t pos = text.find(pat);
    while (pos != std::string::npos && pos > 0 && text[pos - 1] != ' ' &&
           text[pos - 1] != '\n')
        pos = text.find(pat, pos + 1);
    return pos == std::string::npos
               ? -1.0
               : std::strtod(text.c_str() + pos + pat.size(), nullptr);
}

/** CPU seconds @p pid has run, from /proc/PID/schedstat; 0 if gone. */
double
schedstatSeconds(pid_t pid)
{
    const std::string path =
        "/proc/" + std::to_string(pid) + "/schedstat";
    double ns = 0.0;
    if (FILE *f = std::fopen(path.c_str(), "r")) {
        if (std::fscanf(f, "%lf", &ns) != 1)
            ns = 0.0;
        std::fclose(f);
    }
    return ns * 1e-9;
}

/** CPU seconds run so far by @p pid and its live children. */
double
processTreeSeconds(pid_t pid)
{
    double total = schedstatSeconds(pid);
    const std::string path = "/proc/" + std::to_string(pid) + "/task/" +
                             std::to_string(pid) + "/children";
    if (FILE *f = std::fopen(path.c_str(), "r")) {
        long child = 0;
        while (std::fscanf(f, "%ld", &child) == 1)
            total += schedstatSeconds(static_cast<pid_t>(child));
        std::fclose(f);
    }
    return total;
}

/**
 * Start a daemon and time it to its first SubmitAck (the warm-up
 * campaign, streamed to CampaignDone but not measured). The set-up
 * cost is CPU time: this thread's, from the fork to the SubmitAck,
 * plus what the daemon and its worker fleet had run by then.
 */
struct DaemonStart
{
    pid_t pid = -1;
    double ready_s = 0.0;
    double ack_s = 0.0;
    double ack_cpu_s = 0.0;
    bool ok = false;
};

DaemonStart
startDaemon(const std::string &daemon, int workers,
            const std::string &journal, const std::string &err_path,
            std::uint64_t warm_cycles)
{
    DaemonStart d;
    ::unlink("svc.sock");
    const auto t0 = Clock::now();
    const double c0 = cpuNow();
    d.pid = spawnDaemon(daemon, workers, journal, err_path);
    if (d.pid < 0)
        return d;
    const int fd = connectRetry("svc.sock", 20.0);
    if (fd < 0)
        return d;
    d.ready_s = secondsSince(t0);
    Frame submit;
    submit.type = FrameType::SubmitCampaign;
    submit.payload = encodeCampaignRef(CampaignRef{"smoke", warm_cycles});
    if (writeFrame(fd, submit)) {
        Frame f;
        while (readFrameBlocking(fd, f) == WireStatus::Ok) {
            if (f.type == FrameType::SubmitAck) {
                d.ack_s = secondsSince(t0);
                d.ack_cpu_s = cpuNow() - c0 + processTreeSeconds(d.pid);
            }
            if (f.type == FrameType::CampaignDone) {
                d.ok = d.ack_s > 0.0;
                break;
            }
            if (f.type == FrameType::Reject)
                break;
        }
    }
    ::close(fd);
    return d;
}

Result
runService(std::uint64_t seed, double seconds, const std::string &daemon,
           int cores)
{
    Result res;
    res.workload = "service-smoke";
    const int workers = std::max(1, cores - 1);

    // Seeded submission list of distinct fresh cycle counts. One entry
    // in each block of four, at a seeded position, repeats an earlier
    // ref, so every seed has the same fresh/repeat mix.
    std::uint64_t rng = seed;
    std::vector<std::uint64_t> fresh_pool;
    for (std::uint64_t c = 2000; c < 6000; ++c)
        fresh_pool.push_back(c);
    seededShuffle(fresh_pool, rng);
    std::vector<std::uint64_t> list;
    std::vector<std::uint64_t> fresh_order;
    std::size_t next_fresh = 0;
    while (next_fresh + 4 <= fresh_pool.size()) {
        const std::uint64_t repeat_at = splitmix64(rng) % 4;
        for (std::uint64_t slot = 0; slot < 4; ++slot) {
            if (slot == repeat_at && !fresh_order.empty()) {
                list.push_back(
                    fresh_order[splitmix64(rng) % fresh_order.size()]);
            } else {
                fresh_order.push_back(fresh_pool[next_fresh++]);
                list.push_back(fresh_order.back());
            }
        }
    }

    // Untimed in-process reference tables for the first distinct refs.
    std::map<std::uint64_t, std::string> reference;
    {
        std::vector<std::uint64_t> refs(
            fresh_order.begin(),
            fresh_order.begin() + static_cast<long>(kServiceReferenceRefs));
        std::vector<SimJob> all;
        std::vector<std::vector<SimJob>> per_ref;
        for (std::uint64_t c : refs) {
            per_ref.push_back(buildNamedCampaign("smoke", Cycle{c}));
            all.insert(all.end(), per_ref.back().begin(),
                       per_ref.back().end());
        }
        SweepEngine engine(cores);
        const std::vector<SimResult> results = engine.sweep(all);
        std::size_t idx = 0;
        JobHasher digest;
        for (std::size_t r = 0; r < refs.size(); ++r) {
            std::vector<CampaignJobOutcome> outcomes;
            for (std::size_t j = 0; j < per_ref[r].size(); ++j) {
                CampaignJobOutcome o;
                o.state = CampaignJobState::Completed;
                o.result = results[idx++];
                outcomes.push_back(std::move(o));
            }
            reference[refs[r]] =
                formatCampaignTable("smoke", refs[r], per_ref[r], outcomes);
            digest.s(reference[refs[r]]);
        }
        res.digest = digest.value();
    }

    // Set-up, several times: daemon start to the first SubmitAck.
    std::vector<double> setup, ready;
    DaemonStart live;
    std::string err_path;
    for (int t = 0; t < kServiceSetupTrials; ++t) {
        const std::string journal = "journal" + std::to_string(t);
        err_path = "daemon" + std::to_string(t) + ".err";
        const DaemonStart d =
            startDaemon(daemon, workers, journal, err_path, 1500);
        res.check(d.ok, "daemon start " + std::to_string(t) +
                            " did not acknowledge the warm-up campaign");
        if (!d.ok) {
            if (d.pid > 0) {
                bool clean = false;
                stopDaemon(d.pid, err_path, clean);
            }
            return res;
        }
        setup.push_back(d.ack_cpu_s);
        ready.push_back(d.ready_s);
        if (t + 1 < kServiceSetupTrials) {
            bool clean = false;
            stopDaemon(d.pid, err_path, clean);
            res.check(clean, "daemon did not drain cleanly");
        } else {
            live = d;
        }
    }

    // Measured: closed-loop clients pulling refs off the shared list.
    std::mutex mu;
    std::vector<Submission> subs;
    double client_cpu = 0.0;
    std::atomic<std::size_t> next{0};
    const std::size_t campaigns =
        std::min(list.size(), unitsFor(seconds, 1.0 / kServiceCampaignsPerSecond,
                                       kServiceMinCampaigns));
    const auto t_measure = Clock::now();
    auto client = [&] {
        const double c0 = cpuNow();
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= campaigns) {
                std::lock_guard<std::mutex> lk(mu);
                client_cpu += cpuNow() - c0;
                break;
            }
            ClientOptions opts;
            opts.socket_path = "svc.sock";
            opts.ref = CampaignRef{"smoke", list[i]};
            Submission s;
            s.cycles = list[i];
            const auto t0 = Clock::now();
            ClientOutcome out = runCampaignClient(opts);
            s.latency_ms = secondsSince(t0) * 1e3;
            s.ok = out.ok();
            s.report = out.report;
            s.replayed = out.report.replayed == out.jobs.size();
            if (s.ok)
                s.table = formatCampaignTable("smoke", list[i], out.jobs,
                                              out.outcomes);
            else
                s.table = std::string(clientStatusName(out.status)) +
                          ": " + out.report.error;
            std::lock_guard<std::mutex> lk(mu);
            subs.push_back(std::move(s));
        }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kServiceClients; ++c)
        threads.emplace_back(client);
    for (std::thread &t : threads)
        t.join();
    const double span = secondsSince(t_measure);

    bool clean = false;
    double service_cpu = 0.0;
    const std::string report =
        stopDaemon(live.pid, err_path, clean, &service_cpu);
    res.check(clean, "daemon did not drain cleanly");
    // The live daemon's life also holds its start and warm-up campaign,
    // the same work in every run.
    const double cpu = service_cpu + client_cpu;

    std::map<std::uint64_t, std::string> first_table;
    std::vector<double> lat, fresh_lat, replay_lat;
    double jobs_done = 0.0, attempts = 0.0;
    for (const Submission &s : subs) {
        res.check(s.ok, "campaign smoke@" + std::to_string(s.cycles) +
                            " not Completed: " + s.table);
        // A Reject the client retried through, or a JobFailed frame,
        // is a failed operation even when the campaign completes.
        res.failures(s.report.rejects,
                     "Reject for smoke@" + std::to_string(s.cycles));
        res.failures(s.report.failures,
                     "JobFailed for smoke@" + std::to_string(s.cycles));
        if (!s.ok)
            continue;
        const auto ref = reference.find(s.cycles);
        if (ref != reference.end())
            res.check(s.table == ref->second,
                      "campaign smoke@" + std::to_string(s.cycles) +
                          " table differs from the in-process reference");
        const auto [it, first] = first_table.emplace(s.cycles, s.table);
        if (!first)
            res.check(s.table == it->second,
                      "campaign smoke@" + std::to_string(s.cycles) +
                          " table differs between submissions");
        lat.push_back(s.latency_ms);
        (s.replayed ? replay_lat : fresh_lat).push_back(s.latency_ms);
        jobs_done += static_cast<double>(s.report.results);
        attempts += s.report.attempts;
    }

    res.e2e["cpu_s"] = cpu;
    res.e2e["jobs_per_s"] = jobs_done / cpu;
    res.e2e["setup_s"] = median(setup);
    res.e2e["peak_rss_mb"] = peakRssMb();
    // Only the first submission of a ref is simulated; repeats replay.
    double cyc = 0.0;
    std::set<std::uint64_t> seen;
    for (const Submission &s : subs)
        if (s.ok && seen.insert(s.cycles).second)
            for (const SimJob &j :
                 buildNamedCampaign("smoke", Cycle{s.cycles}))
                cyc += jobSimCycles(j);
    res.e2e["sim_cycles_per_s"] = cyc / cpu;
    std::printf("service-smoke: %zu campaigns (%zu fresh, %zu replayed) "
                "over %d clients and %d workers in %.2f s (%.2f CPU s); "
                "p95 has %zu samples beyond it\n",
                subs.size(), fresh_lat.size(), replay_lat.size(),
                kServiceClients, workers, span, cpu,
                lat.size() - static_cast<std::size_t>(std::ceil(
                                 0.95 * static_cast<double>(lat.size()))));

    res.layer["campaign.latency_p50_ms"] = median(lat);
    res.layer["campaign.latency_p95_ms"] = percentile(lat, 0.95);
    res.layer["campaign.latency_fresh_p50_ms"] = median(fresh_lat);
    res.layer["campaign.latency_replay_p50_ms"] =
        replay_lat.empty() ? -1.0 : median(replay_lat);
    for (const char *key : {"dispatched", "journal_hits", "dedupe_hits",
                            "rejected", "redispatched"}) {
        const double v = reportField(report, key);
        res.check(v >= 0.0,
                  std::string("daemon drain report lacks ") + key + "=");
        res.layer[std::string("campaign.") + key] = v;
    }
    res.layer["campaign.client_attempts"] = attempts;
    res.layer["campaign.fleet_ready_ms"] = median(ready) * 1e3;
    return res;
}

// ---- output -----------------------------------------------------------------

void
printResult(const Result &r)
{
    const double failed_share =
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 1.0;
    std::string json = "{\"workload\": \"" + r.workload + "\"";
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                  ", \"digest\": \"%016" PRIx64 "\"",
                  r.attempted, r.failed, r.digest);
    json += buf;
    auto section = [&](const char *name,
                       const std::map<std::string, double> &m) {
        json += std::string(", \"") + name + "\": {";
        bool first = true;
        for (const auto &[k, v] : m) {
            std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g",
                          first ? "" : ", ", k.c_str(),
                          std::isfinite(v) ? v : -1.0);
            json += buf;
            first = false;
        }
        json += "}";
    };
    std::map<std::string, double> layer = r.layer;
    layer["failed_share"] = failed_share;
    section("e2e", r.e2e);
    section("layer", layer);
    json += "}";
    std::printf("%s: digest %016" PRIx64 ", %" PRIu64
                " checks, %" PRIu64 " failed (failed_share %.4f)\n",
                r.workload.c_str(), r.digest, r.attempted, r.failed,
                failed_share);
    std::printf("@result %s\n", json.c_str());
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper16|fig12-sweep|service-smoke|all --seed N "
                 "--seconds S --trace 0|1 [--jobs N] [--daemon PATH] "
                 "[--workdir DIR]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, daemon, workdir = ".";
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1, jobs = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        errno = 0;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            trace = static_cast<int>(std::strtol(v, &end, 10));
        } else if (a == "--jobs") {
            jobs = static_cast<int>(std::strtol(v, &end, 10));
        } else if (a == "--daemon") {
            daemon = v;
        } else if (a == "--workdir") {
            workdir = v;
        } else {
            usage(("unknown flag " + a).c_str());
        }
        if (end != nullptr && (*end != '\0' || errno != 0))
            usage(("bad value for " + a).c_str());
    }
    if (workload.empty() || seconds <= 0.0 || (trace != 0 && trace != 1))
        usage("--workload, --seconds > 0 and --trace 0|1 are required");
    const int cores = hostCores();
    if (jobs <= 0)
        jobs = cores;

    const std::vector<std::string> known = {"paper16", "fig12-sweep",
                                            "service-smoke"};
    std::vector<std::string> todo;
    if (workload == "all")
        todo = known;
    else if (std::find(known.begin(), known.end(), workload) != known.end())
        todo = {workload};
    else
        usage(("unknown workload " + workload).c_str());
    if (std::find(todo.begin(), todo.end(), "service-smoke") != todo.end() &&
        daemon.empty())
        usage("service-smoke needs --daemon PATH");

    std::printf("perfbench: seed %" PRIu64 ", %.1f s, trace %d, %d cores, "
                "build %s\n",
                seed, seconds, trace, cores, PERFBENCH_BUILD_TYPE);
    for (const std::string &w : todo) {
        try {
            if (w == "paper16") {
                printResult(runPaper16(seed, seconds, trace == 1));
            } else if (w == "fig12-sweep") {
                printResult(runFig12(seed, seconds, trace == 1, jobs));
            } else {
                if (::chdir(workdir.c_str()) != 0)
                    usage(("cannot enter workdir " + workdir).c_str());
                printResult(runService(seed, seconds, daemon, cores));
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s failed: %s\n", w.c_str(),
                         e.what());
            return 1;
        }
        std::fflush(stdout);
    }
    return 0;
}

/**
 * @file
 * Property-based sweeps: invariants that must hold for every kernel
 * and every scheme, exercised with parameterized gtest suites.
 */

#include <gtest/gtest.h>

#include "metrics/runner.hpp"

namespace ckesim {
namespace {

GpuConfig
smallCfg()
{
    return makeSmallConfig(4, 4);
}

// ---- per-kernel isolated invariants ----------------------------------

class IsolatedInvariants
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(IsolatedInvariants, HoldForKernel)
{
    Runner runner(smallCfg(), Cycle{8000});
    const KernelProfile &p = findProfile(GetParam());
    const IsolatedResult &res = runner.isolated(p);
    const KernelStats &s = res.stats;

    // The kernel makes progress.
    EXPECT_GT(res.ipc, 0.0);
    EXPECT_GT(s.issued_instructions, 100u);

    // Accounting identities.
    EXPECT_EQ(s.l1d_hits + s.l1d_misses, s.l1d_accesses);
    EXPECT_EQ(s.l1d_rsfail_line + s.l1d_rsfail_mshr +
                  s.l1d_rsfail_missq,
              s.l1d_rsfails);
    EXPECT_EQ(s.alu_instructions + s.sfu_instructions +
                  s.smem_instructions + s.mem_instructions,
              s.issued_instructions);

    // Every generated request is eventually serviced or retried;
    // serviced accesses can never exceed generated requests.
    EXPECT_LE(s.l1d_accesses, s.mem_requests);

    // Rates are probabilities / bounded.
    EXPECT_GE(s.l1dMissRate(), 0.0);
    EXPECT_LE(s.l1dMissRate(), 1.0);
    EXPECT_GE(res.sm_stats.lsuStallFraction(), 0.0);
    EXPECT_LE(res.sm_stats.lsuStallFraction(), 1.0);

    // Mix parameters track the profile. Heavily throttled kernels
    // (ks/ax) end the window with many memory instructions still
    // blocked, which biases the issued-mix ratio upward, so the
    // bound is loose.
    EXPECT_GT(s.cinstPerMinst(), 0.5 * p.cinst_per_minst);
    EXPECT_LT(s.cinstPerMinst(), 2.0 * p.cinst_per_minst + 1.5);
    EXPECT_LE(s.reqPerMinst(), p.req_per_minst + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, IsolatedInvariants,
    ::testing::Values("cp", "hs", "dc", "pf", "bp", "bs", "st", "3m",
                      "sv", "cd", "s2", "ks", "ax"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string n = info.param;
        if (n == "3m")
            n = "mm3";
        return n;
    });

// ---- per-scheme concurrent invariants --------------------------------

class SchemeInvariants
    : public ::testing::TestWithParam<NamedScheme>
{
};

TEST_P(SchemeInvariants, HoldForBpSv)
{
    Runner runner(smallCfg(), Cycle{8000});
    const Workload w = makeWorkload({"bp", "sv"});
    const ConcurrentResult res = runner.run(w, GetParam());

    ASSERT_EQ(res.norm_ipc.size(), 2u);
    for (double v : res.norm_ipc) {
        EXPECT_GT(v, 0.0);
        EXPECT_LT(v, 1.3); // cannot beat isolated by much
    }
    EXPECT_LE(res.weighted_speedup, 2.0 * 1.3);
    EXPECT_GE(res.antt_value, 0.75);
    EXPECT_GT(res.fairness, 0.0);
    EXPECT_LE(res.fairness, 1.0 + 1e-12);
    for (const KernelStats &s : res.stats) {
        EXPECT_EQ(s.l1d_hits + s.l1d_misses, s.l1d_accesses);
        EXPECT_GT(s.issued_instructions, 0u);
    }
}

// Leftover is excluded: by design it can starve the second kernel
// entirely (its norm IPC is legitimately 0), which is exactly the
// behaviour the paper's Section 1 criticizes.
INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeInvariants,
    ::testing::Values(NamedScheme::Spatial,
                      NamedScheme::WS, NamedScheme::WS_RBMI,
                      NamedScheme::WS_QBMI, NamedScheme::WS_DMIL,
                      NamedScheme::WS_QBMI_DMIL, NamedScheme::WS_UCP,
                      NamedScheme::SMK_PW, NamedScheme::SMK_P_QBMI,
                      NamedScheme::SMK_P_DMIL),
    [](const ::testing::TestParamInfo<NamedScheme> &info) {
        std::string n = schemeName(info.param);
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// ---- determinism -------------------------------------------------------

TEST(Determinism, IdenticalRunsProduceIdenticalStats)
{
    const Workload w = makeWorkload({"bp", "ks"});
    auto run_once = [&] {
        Runner runner(smallCfg(), Cycle{6000});
        return runner.run(w, NamedScheme::WS_DMIL);
    };
    const ConcurrentResult a = run_once();
    const ConcurrentResult b = run_once();
    ASSERT_EQ(a.norm_ipc.size(), b.norm_ipc.size());
    for (std::size_t i = 0; i < a.norm_ipc.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.ipc[i], b.ipc[i]);
        EXPECT_EQ(a.stats[i].l1d_accesses, b.stats[i].l1d_accesses);
        EXPECT_EQ(a.stats[i].l1d_rsfails, b.stats[i].l1d_rsfails);
    }
    EXPECT_EQ(a.partition, b.partition);
}

TEST(Determinism, SameSeedAndConfigProduceIdenticalFingerprints)
{
    const Workload w = makeWorkload({"sv", "ks"});
    auto hash_once = [&] {
        Runner runner(smallCfg(), Cycle{6000});
        const ConcurrentResult res =
            runner.run(w, NamedScheme::WS_QBMI_DMIL);
        std::uint64_t h = fingerprint(res.sm_stats);
        for (const KernelStats &s : res.stats)
            h = fingerprint(s, h);
        return h;
    };
    EXPECT_EQ(hash_once(), hash_once());
}

TEST(Determinism, SplitRunsMatchOneRun)
{
    // run(a); run(b) must end exactly where one run(a + b) does: the
    // profiling end, UCP repartitions and global-DMIL broadcasts all
    // fire on both sides of the split, and so do injected faults
    // whose windows straddle it. Trace sampling between run() chunks
    // relies on this.
    const Workload w = makeWorkload({"sv", "ks"});
    struct Case
    {
        std::string name;
        SchemeSpec spec;
        Cycle split;
    };
    std::vector<Case> schemes;
    schemes.push_back({"smk-drf",
                       makeScheme(PartitionScheme::SmkDrf,
                                  BmiMode::None, MilMode::None),
                       Cycle{4000}});
    {
        SchemeSpec s = makeScheme(PartitionScheme::WarpedSlicer,
                                  BmiMode::None, MilMode::None);
        s.ws_profile_window = Cycle{2000};
        s.ucp = true;
        s.ucp_interval = Cycle{3000};
        schemes.push_back({"ws-ucp", s, Cycle{4000}});
    }
    {
        SchemeSpec s = makeScheme(PartitionScheme::WarpedSlicer,
                                  BmiMode::QBMI, MilMode::Dynamic);
        s.ws_profile_window = Cycle{2000};
        s.global_dmil = true;
        schemes.push_back({"ws-qbmi-dmil-global", s, Cycle{4000}});
    }
    {
        // Delayed fills and forced reservation failures under the full
        // QBMI+DMIL mechanism; the split falls inside both windows.
        SchemeSpec s = makeScheme(PartitionScheme::WarpedSlicer,
                                  BmiMode::QBMI, MilMode::Dynamic);
        s.ws_profile_window = Cycle{2000};
        FaultSpec delay;
        delay.kind = FaultKind::DelayFill;
        delay.begin = Cycle{2000};
        delay.end = Cycle{9000};
        delay.budget = 64;
        delay.delay = Cycle{150};
        s.faults.push_back(delay);
        FaultSpec rsfail;
        rsfail.kind = FaultKind::ForceRsFail;
        rsfail.begin = Cycle{4000};
        rsfail.end = Cycle{6000};
        rsfail.budget = 128;
        s.faults.push_back(rsfail);
        schemes.push_back({"qbmi-faulted", s, Cycle{5000}});
    }
    {
        // A DRAM channel frozen across the split under SMK-DRF.
        SchemeSpec s = makeScheme(PartitionScheme::SmkDrf,
                                  BmiMode::None, MilMode::None);
        FaultSpec freeze;
        freeze.kind = FaultKind::FreezeDram;
        freeze.begin = Cycle{3000};
        freeze.end = Cycle{5000};
        freeze.target = 0;
        s.faults.push_back(freeze);
        schemes.push_back({"smk-faulted", s, Cycle{4000}});
    }

    auto hash = [](const Gpu &gpu) {
        std::uint64_t h = fingerprint(gpu.smStatsTotal());
        for (int k = 0; k < gpu.numKernels(); ++k)
            h = fingerprint(gpu.kernelStatsTotal(KernelId{k}), h);
        return h;
    };
    for (const auto &[name, spec, at] : schemes) {
        Gpu once(smallCfg(), w, spec);
        once.run(Cycle{10000});
        Gpu split(smallCfg(), w, spec);
        split.run(at);
        split.run(Cycle{10000} - at);
        EXPECT_EQ(once.measuredCycles(), split.measuredCycles())
            << name;
        EXPECT_EQ(hash(once), hash(split)) << name;
        EXPECT_GT(once.smStatsTotal().cycles, 0u) << name;
        for (int k = 0; k < kNumFaultKinds; ++k)
            EXPECT_EQ(once.faultInjector().firedCount(FaultKind(k)),
                      split.faultInjector().firedCount(FaultKind(k)))
                << name;
        EXPECT_EQ(once.faultInjector().anyFired(), !spec.faults.empty())
            << name;
    }
}

TEST(Determinism, FingerprintSeparatesDifferentStats)
{
    KernelStats a;
    KernelStats b;
    b.l1d_hits = 1;
    EXPECT_NE(fingerprint(a), fingerprint(b));
    // Order-sensitive: swapping counter values must change the hash.
    KernelStats c;
    c.l1d_hits = 2;
    c.l1d_misses = 3;
    KernelStats d;
    d.l1d_hits = 3;
    d.l1d_misses = 2;
    EXPECT_NE(fingerprint(c), fingerprint(d));
}

TEST(Determinism, SeedChangesChangeOutcome)
{
    const Workload w = makeWorkload({"bp", "sv"});
    GpuConfig c1 = smallCfg();
    GpuConfig c2 = smallCfg();
    c2.seed = 0xdeadbeef;
    Runner r1(c1, Cycle{6000}), r2(c2, Cycle{6000});
    const ConcurrentResult a = r1.run(w, NamedScheme::WS);
    const ConcurrentResult b = r2.run(w, NamedScheme::WS);
    EXPECT_NE(a.stats[0].l1d_accesses, b.stats[0].l1d_accesses);
}

// ---- cross-scheme sanity ----------------------------------------------

TEST(SchemeSanity, MilLimitsAreRespectedThroughout)
{
    GpuConfig cfg = smallCfg();
    Workload w = makeWorkload({"sv", "ks"});
    SchemeSpec spec = makeScheme(PartitionScheme::SmkDrf,
                                 BmiMode::None, MilMode::Static);
    spec.smil_limits[0] = 3;
    spec.smil_limits[1] = 1;
    Gpu gpu(cfg, w, spec);
    for (Cycle t{}; t < Cycle{4000}; ++t) {
        gpu.run(Cycle{1});
        for (int s = 0; s < gpu.numSms(); ++s) {
            ASSERT_LE(gpu.sm(s).controller().inflight(KernelId{0}), 3);
            ASSERT_LE(gpu.sm(s).controller().inflight(KernelId{1}), 1);
        }
    }
}

TEST(SchemeSanity, DmilReducesReservationFailures)
{
    // The core claim of Section 3.3: limiting in-flight memory
    // instructions cuts rsfail rates for memory-intensive pairs.
    Runner runner(smallCfg(), Cycle{12000});
    const Workload w = makeWorkload({"sv", "ks"});
    const ConcurrentResult base = runner.run(w, NamedScheme::WS);
    const ConcurrentResult dmil =
        runner.run(w, NamedScheme::WS_DMIL);
    const double base_rsfail = base.stats[0].l1dRsFailRate() +
                               base.stats[1].l1dRsFailRate();
    const double dmil_rsfail = dmil.stats[0].l1dRsFailRate() +
                               dmil.stats[1].l1dRsFailRate();
    EXPECT_LT(dmil_rsfail, base_rsfail);
}

TEST(SchemeSanity, QbmiBalancesRequestVolume)
{
    // QBMI should narrow the gap between the kernels' serviced
    // request volumes relative to unmanaged WS.
    Runner runner(smallCfg(), Cycle{12000});
    const Workload w = makeWorkload({"bp", "ks"});
    const ConcurrentResult base = runner.run(w, NamedScheme::WS);
    const ConcurrentResult qbmi =
        runner.run(w, NamedScheme::WS_QBMI);
    auto imbalance = [](const ConcurrentResult &r) {
        const double a =
            static_cast<double>(r.stats[0].l1d_accesses);
        const double b =
            static_cast<double>(r.stats[1].l1d_accesses);
        return std::max(a, b) / std::max(1.0, std::min(a, b));
    };
    EXPECT_LT(imbalance(qbmi), imbalance(base));
}

} // namespace
} // namespace ckesim

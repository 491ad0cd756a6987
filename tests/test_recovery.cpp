/**
 * @file
 * Crash-recovery soak for the sweep layer: a journaled sweep killed
 * mid-flight must resume to a byte-identical final table at any
 * worker count; job budgets must produce structured Timeout errors;
 * retries must be bounded; and a failed job must never poison the
 * memo cache for an identical resubmission.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "metrics/experiment.hpp"
#include "metrics/journal.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"
#include "sim/procfault.hpp"

namespace ckesim {
namespace {

class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_(std::string(::testing::TempDir()) +
                "ckesim_recovery_" + tag + ".bin")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

GpuConfig
recoveryCfg()
{
    return makeSmallConfig(2, 2);
}

/**
 * A mixed sweep: isolated baselines, three scheme families, and a
 * recoverable fault-injection job — the job population a real bench
 * binary submits.
 */
std::vector<SimJob>
buildJobs()
{
    const GpuConfig cfg = recoveryCfg();
    const Cycle cycles{4000};
    const Workload mixed = makeWorkload({"bp", "sv"});
    const Workload mem = makeWorkload({"sv", "ks"});

    std::vector<SimJob> jobs;
    jobs.push_back(
        SimJob::isolated(cfg, cycles, *mixed.kernels[0]));
    jobs.push_back(
        SimJob::isolated(cfg, cycles, *mixed.kernels[1]));
    jobs.push_back(
        SimJob::concurrent(cfg, cycles, mixed, NamedScheme::WS));
    jobs.push_back(SimJob::concurrent(cfg, cycles, mixed,
                                      NamedScheme::WS_QBMI_DMIL));
    jobs.push_back(
        SimJob::concurrent(cfg, cycles, mem, NamedScheme::SMK_PW));

    SchemeSpec faulted = makeScheme(PartitionScheme::Spatial,
                                    BmiMode::None, MilMode::None);
    faulted.faults.push_back({FaultKind::DelayFill, Cycle{200},
                              Cycle{2000}, -1, 16, Cycle{100}});
    jobs.push_back(SimJob::concurrent(cfg, cycles, mem, faulted));
    return jobs;
}

/** Byte-exact encoding of a whole result table. */
std::vector<std::vector<std::uint8_t>>
encodeTable(const std::vector<SimResult> &results)
{
    std::vector<std::vector<std::uint8_t>> table;
    table.reserve(results.size());
    for (const SimResult &r : results)
        table.push_back(encodeSimResult(r));
    return table;
}

// ---- journaled resume --------------------------------------------------

TEST(Recovery, KilledSweepResumesToByteIdenticalTable)
{
    const std::vector<SimJob> jobs = buildJobs();

    // Ground truth: one uninterrupted, unjournaled sweep.
    SweepEngine baseline(2);
    const auto want = encodeTable(baseline.sweep(jobs));

    // First attempt: journaled, killed (cooperatively cancelled —
    // the in-process stand-in for SIGKILL, since a real kill would
    // take the test runner with it) once at least one result is
    // durable. The journal's fsync contract makes this equivalent to
    // dying at an arbitrary instruction boundary; torn-tail handling
    // is covered separately in test_journal.
    TempFile tmp("resume");
    std::uint64_t first_pass_completed = 0;
    {
        SweepEngine engine(2);
        ResultJournal journal;
        journal.open(tmp.path());
        engine.setJournal(&journal);

        std::thread killer([&] {
            while (journal.size() == 0)
                std::this_thread::yield();
            engine.cancelAll();
        });
        try {
            (void)engine.sweep(jobs);
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), "Cancelled") << e.what();
        }
        killer.join();
        first_pass_completed = engine.resilience().completed;
        EXPECT_GE(first_pass_completed, 1u);
    }

    // Every run the engine counted as completed was journaled before
    // the count moved, nested isolated runs (isolated ks, run inside
    // the sv+ks schemes) included, each under its own key. The resume
    // copies below hold only the records of `jobs`, so they are served
    // that many hits.
    std::uint64_t journaled_jobs = 0;
    {
        ResultJournal crash;
        crash.open(tmp.path());
        EXPECT_EQ(crash.stats().loaded, first_pass_completed);
        EXPECT_EQ(crash.size(), first_pass_completed);
        SimResult r;
        for (const SimJob &job : jobs)
            if (crash.find(job.key(), r))
                ++journaled_jobs;
    }

    // Resume with various worker counts: completed work must be
    // served from the journal and the final table must be
    // byte-identical to the uninterrupted run.
    for (const int workers : {1, 2, 4}) {
        TempFile copy("resume_w" + std::to_string(workers));
        // Each resume gets its own copy of the crash-time journal so
        // the three worker counts start from the same crash state.
        {
            ResultJournal src;
            src.open(tmp.path());
            ResultJournal dst;
            dst.open(copy.path());
            SimResult r;
            for (const SimJob &job : jobs)
                if (src.find(job.key(), r))
                    dst.append(job.key(), r);
        }
        SweepEngine engine(workers);
        ResultJournal journal;
        journal.open(copy.path());
        EXPECT_EQ(journal.stats().loaded, journaled_jobs);
        engine.setJournal(&journal);
        const auto got = encodeTable(engine.sweep(jobs));
        EXPECT_EQ(got, want) << "resume with " << workers
                             << " workers diverged";
        EXPECT_EQ(engine.resilience().journal_hits, journaled_jobs);
        // Second run over the now-complete journal simulates nothing.
        SweepEngine replay(workers);
        ResultJournal full;
        full.open(copy.path());
        replay.setJournal(&full);
        EXPECT_EQ(encodeTable(replay.sweep(jobs)), want);
        EXPECT_EQ(replay.stats().sims_executed, 0u);
    }
}

TEST(Recovery, JournaledRunIsByteIdenticalForAnyWorkerCount)
{
    const std::vector<SimJob> jobs = buildJobs();
    SweepEngine baseline(1);
    const auto want = encodeTable(baseline.sweep(jobs));
    for (const int workers : {2, 4}) {
        TempFile tmp("jobs" + std::to_string(workers));
        SweepEngine engine(workers);
        ResultJournal journal;
        journal.open(tmp.path());
        engine.setJournal(&journal);
        EXPECT_EQ(encodeTable(engine.sweep(jobs)), want);
        // Nested sub-jobs (isolated baselines pulled in by the
        // concurrent jobs) are journaled too, so >= not ==.
        EXPECT_GE(journal.size(), jobs.size());
    }
}

// ---- budgets, retries, cache hygiene -----------------------------------

TEST(Recovery, CycleBudgetRaisesStructuredTimeout)
{
    SweepEngine engine(1);
    JobBudget budget;
    budget.cycle_budget = 1000; // the job wants 4000 cycles
    engine.setJobBudget(budget);
    const std::vector<SimJob> jobs = buildJobs();
    try {
        (void)engine.run(jobs[2]);
        FAIL() << "cycle budget never tripped";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "Timeout") << e.what();
    }
    const ResilienceReport r = engine.resilience();
    EXPECT_EQ(r.timed_out, 1u);
    EXPECT_EQ(r.abandoned, 1u);
    EXPECT_EQ(r.retried, 0u);
}

TEST(Recovery, TimeoutsRetryBoundedTimes)
{
    SweepEngine engine(1);
    JobBudget budget;
    budget.cycle_budget = 1000;
    engine.setJobBudget(budget);
    RetryPolicy retry;
    retry.max_retries = 2;
    engine.setRetryPolicy(retry);
    const std::vector<SimJob> jobs = buildJobs();
    EXPECT_THROW((void)engine.run(jobs[3]), SimError);
    const ResilienceReport r = engine.resilience();
    EXPECT_EQ(r.retried, 2u);   // bounded: initial + 2 retries
    EXPECT_EQ(r.timed_out, 3u); // every attempt timed out
    EXPECT_EQ(r.abandoned, 1u); // but the job failed exactly once
}

TEST(Recovery, FailedJobDoesNotPoisonTheMemoCache)
{
    // A job that fails under a budget must be recomputable: lifting
    // the budget and resubmitting the IDENTICAL job (same key) has to
    // re-run it, not replay the memoized exception.
    const std::vector<SimJob> jobs = buildJobs();
    SweepEngine engine(2);
    JobBudget tight;
    tight.cycle_budget = 1000;
    engine.setJobBudget(tight);
    EXPECT_THROW((void)engine.run(jobs[2]), SimError);

    engine.setJobBudget(JobBudget{}); // unlimited again
    SimResult result;
    EXPECT_NO_THROW(result = engine.run(jobs[2]));
    ASSERT_NE(result.concurrent, nullptr);
    EXPECT_GT(result.concurrent->weighted_speedup, 0.0);
}

TEST(Recovery, CancelAllStopsInFlightJobsAndClearCancelRearms)
{
    const std::vector<SimJob> jobs = buildJobs();
    SweepEngine engine(1);
    engine.cancelAll(); // pre-cancelled: every job dies immediately
    try {
        (void)engine.run(jobs[2]);
        FAIL() << "cancelled engine still ran a job";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "Cancelled") << e.what();
    }
    EXPECT_EQ(engine.resilience().cancelled, 1u);

    engine.clearCancel();
    SimResult result;
    EXPECT_NO_THROW(result = engine.run(jobs[2]));
    EXPECT_NE(result.concurrent, nullptr);
}

TEST(Recovery, FaultJobFailuresAreRetriedThenSurfaced)
{
    // A hard fault (dropped fills deadlock the SM) fails the same way
    // every attempt; the retry layer must try max_retries times and
    // then surface the ORIGINAL watchdog error, not mask it.
    const GpuConfig cfg = recoveryCfg();
    SchemeSpec dead = makeScheme(PartitionScheme::Spatial,
                                 BmiMode::None, MilMode::None);
    dead.faults.push_back({FaultKind::DropFill, Cycle{0}, kNeverCycle,
                           -1, -1, Cycle{}});
    const SimJob job = SimJob::concurrent(
        cfg, Cycle{16000}, makeWorkload({"sv", "ks"}), dead);

    SweepEngine engine(1);
    RetryPolicy retry;
    retry.max_retries = 1;
    engine.setRetryPolicy(retry);
    try {
        (void)engine.run(job);
        FAIL() << "deadlocked fault job completed";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "Watchdog") << e.what();
    }
    const ResilienceReport r = engine.resilience();
    EXPECT_EQ(r.retried, 1u);
    EXPECT_EQ(r.abandoned, 1u);
}

// ---- deterministic jittered backoff ------------------------------------

TEST(Recovery, RetryBackoffIsDeterministicAndBounded)
{
    RetryPolicy policy;
    policy.backoff_ms = 100;
    policy.jitter_pct = 50;
    for (const std::uint64_t key :
         {0x1ULL, 0xdeadbeefULL, 0xffffffffffffffffULL}) {
        for (int attempt = 0; attempt < 6; ++attempt) {
            const std::uint64_t base = policy.backoff_ms
                                       << static_cast<unsigned>(
                                              attempt);
            const std::uint64_t ms =
                retryBackoffMs(policy, key, attempt);
            // Same (key, attempt) -> same backoff, every time.
            EXPECT_EQ(ms, retryBackoffMs(policy, key, attempt));
            // Bounded: base <= ms <= base + jitter_pct% of base.
            EXPECT_GE(ms, base);
            EXPECT_LE(ms, base + base * policy.jitter_pct / 100);
        }
    }
    // Distinct keys must desynchronize (not retry in lockstep).
    EXPECT_NE(retryBackoffMs(policy, 0x1ULL, 3),
              retryBackoffMs(policy, 0xdeadbeefULL, 3));
}

TEST(Recovery, RetryBackoffZeroJitterIsExact)
{
    RetryPolicy policy;
    policy.backoff_ms = 40;
    policy.jitter_pct = 0;
    EXPECT_EQ(retryBackoffMs(policy, 0xabcULL, 0), 40u);
    EXPECT_EQ(retryBackoffMs(policy, 0xabcULL, 1), 80u);
    EXPECT_EQ(retryBackoffMs(policy, 0xabcULL, 2), 160u);
    // Zero base: always immediate, jitter or not.
    policy.backoff_ms = 0;
    policy.jitter_pct = 50;
    EXPECT_EQ(retryBackoffMs(policy, 0xabcULL, 4), 0u);
}

// ---- campaign shard-merge determinism ----------------------------------

/** Raw bytes of a file (empty if absent). */
std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return bytes;
    std::uint8_t chunk[4096];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    std::fclose(f);
    return bytes;
}

TEST(Recovery, CampaignMergeIsByteIdenticalAcrossWorkersAndKills)
{
    // Workers=1 without faults is the ground truth; 2 and 4 workers
    // run the same campaign while every worker touching job 1 is
    // SIGKILLed on the first dispatch attempt. The merged journal and
    // the outcome table must be byte-identical in all cases — the
    // core promise of submission-order merge + kill-and-redispatch.
    const std::vector<SimJob> jobs = buildJobs();

    std::vector<std::uint8_t> want_merged;
    std::vector<std::vector<std::uint8_t>> want_table;
    for (const int workers : {1, 2, 4}) {
        TempFile tmp("campaign_w" + std::to_string(workers));
        CampaignOptions opts;
        opts.workers = workers;
        opts.journal_base = tmp.path();
        opts.heartbeat_ms = 5;
        if (workers > 1) {
            ProcFaultSpec kill;
            kill.kind = ProcFaultKind::KillWorkerMidJob;
            kill.job_index = 1;
            kill.attempts = 1;
            opts.faults = ProcFaultPlan({kill});
        }
        CampaignEngine engine(opts);
        const CampaignOutcome outcome = engine.run(jobs);
        ASSERT_TRUE(outcome.allCompleted())
            << workers << " workers";
        if (workers > 1) {
            EXPECT_GE(outcome.report.worker_deaths, 1u);
        }

        std::vector<std::vector<std::uint8_t>> table;
        for (const CampaignJobOutcome &job : outcome.jobs)
            table.push_back(encodeSimResult(job.result));
        const std::vector<std::uint8_t> merged = fileBytes(
            CampaignEngine::mergedPath(tmp.path()));
        ASSERT_FALSE(merged.empty());
        if (workers == 1) {
            want_merged = merged;
            want_table = table;
        } else {
            EXPECT_EQ(merged, want_merged)
                << workers
                << "-worker merged journal diverged from the "
                   "single-worker ground truth";
            EXPECT_EQ(table, want_table)
                << workers << "-worker table diverged";
        }
        // Cleanup the shards TempFile does not know about.
        for (int slot = 0; slot < workers; ++slot)
            std::remove(CampaignEngine::shardPath(tmp.path(), slot)
                            .c_str());
        std::remove(
            CampaignEngine::mergedPath(tmp.path()).c_str());
    }
}

// ---- the bench CLI plumbing --------------------------------------------

TEST(Recovery, ParseBenchArgsExtractsResume)
{
    const char *argv_in[] = {"bench", "--resume", "sweep.journal",
                             "--jobs=2", nullptr};
    char *argv[5];
    for (int i = 0; i < 4; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    argv[4] = nullptr;
    int argc = 4;
    const BenchOptions opts = parseBenchArgs(argc, argv);
    EXPECT_EQ(opts.resume, "sweep.journal");
    EXPECT_EQ(opts.jobs, 2);
    EXPECT_EQ(argc, 1); // both flags consumed
}

} // namespace
} // namespace ckesim

/**
 * @file
 * SweepEngine: executes SimJobs across a work-stealing thread pool
 * with a content-hash-keyed memo cache, so isolated baselines,
 * scalability points and Req/Minst profiles are simulated once and
 * shared by every scheme in a sweep. Results are returned in
 * submission order and are bit-identical for any worker count: each
 * simulation is single-threaded and deterministic, and cross-job
 * coupling goes only through memoized (deterministic) results.
 */

#ifndef CKESIM_METRICS_SWEEP_ENGINE_HPP
#define CKESIM_METRICS_SWEEP_ENGINE_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/warped_slicer.hpp"
#include "metrics/sim_job.hpp"
#include "sim/run_control.hpp"

namespace ckesim {

class ResultJournal;

/** Memo-cache and execution accounting for one engine. */
struct SweepStats
{
    std::uint64_t jobs_submitted = 0; ///< jobs handed to run()/sweep()
    std::uint64_t sims_executed = 0;  ///< Gpu simulations actually run
    std::uint64_t memo_hits = 0;      ///< jobs served from the cache
    std::uint64_t isolated_runs = 0;  ///< executed isolated sims
    std::uint64_t isolated_hits = 0;  ///< isolated sims reused

    double
    hitRate() const
    {
        const std::uint64_t total = memo_hits + sims_executed;
        return total == 0
                   ? 0.0
                   : static_cast<double>(memo_hits) /
                         static_cast<double>(total);
    }
};

/** Bounded re-execution of failed jobs (resilience layer). */
struct RetryPolicy
{
    int max_retries = 0;          ///< extra attempts after the first
    std::uint64_t backoff_ms = 0; ///< base sleep; doubles per attempt
    /** Jitter added on top of the doubled base, as a percentage of
     *  it, drawn deterministically from the job's content hash — so
     *  identical jobs back off identically across runs while
     *  distinct jobs desynchronize instead of retrying in lockstep. */
    std::uint32_t jitter_pct = 50;
};

/**
 * Deterministic jittered backoff for attempt @p attempt (0-based) of
 * the job whose content hash is @p key: base << attempt, plus up to
 * jitter_pct% of that, mixed from (key, attempt). Pure function —
 * reproducible anywhere (the campaign layer reuses it for
 * re-dispatch backoff).
 */
std::uint64_t retryBackoffMs(const RetryPolicy &policy,
                             std::uint64_t key, int attempt);

/** Per-job execution budgets; 0 disables either cap. */
struct JobBudget
{
    std::uint64_t cycle_budget = 0;   ///< max simulated cycles per job
    std::uint64_t wall_budget_ms = 0; ///< max host wall time per job
};

/** What became of the jobs an engine executed. */
struct ResilienceReport
{
    std::uint64_t completed = 0;    ///< jobs that produced a result
    std::uint64_t retried = 0;      ///< re-attempts performed
    std::uint64_t timed_out = 0;    ///< Timeout errors observed
    std::uint64_t cancelled = 0;    ///< Cancelled errors observed
    std::uint64_t abandoned = 0;    ///< jobs that failed permanently
    std::uint64_t journal_hits = 0; ///< results served from a journal
};

/**
 * Minimal work-stealing pool: each worker owns a deque (LIFO for the
 * owner, FIFO for thieves); run() distributes a batch round-robin and
 * the calling thread participates by stealing until the batch drains,
 * so nested run() calls from inside a task cannot deadlock.
 */
class WorkStealingPool
{
  public:
    /** @p workers extra threads; 0 = run everything on the caller. */
    explicit WorkStealingPool(int workers);
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    int workers() const { return static_cast<int>(threads_.size()); }

    /** Execute @p tasks, blocking until all complete. Tasks must not
     *  throw (wrap exceptions into captured slots). */
    void run(std::vector<std::function<void()>> tasks);

  private:
    struct Batch
    {
        std::atomic<std::size_t> remaining{0};
        std::mutex m;
        std::condition_variable done;
    };
    struct Task
    {
        std::function<void()> fn;
        Batch *batch = nullptr;
    };

    void workerLoop(std::size_t self);
    bool trySteal(std::size_t first, Task &out);
    static void finish(Task &task);

    std::mutex mu_; ///< guards all queues (batches are coarse)
    std::condition_variable work_cv_;
    std::vector<std::deque<Task>> queues_; ///< one per worker
    std::vector<std::thread> threads_;
    bool stop_ = false;
};

/**
 * Runs SimJobs with memoization and parallelism. The engine is
 * config-agnostic: every job carries its own GpuConfig, so one engine
 * serves a whole bench binary (including multi-config sensitivity
 * sweeps) with a single shared cache.
 */
class SweepEngine
{
  public:
    /** @p jobs worker count; <=0 = hardware concurrency. */
    explicit SweepEngine(int jobs = 0);

    /** Worker count (including the participating caller). */
    int jobs() const { return jobs_; }

    /** Run a batch; results come back in submission order. */
    std::vector<SimResult> sweep(const std::vector<SimJob> &jobs);

    /** Run (or fetch) one job. */
    SimResult run(const SimJob &job);

    /** Memoized isolated baseline of one kernel. */
    std::shared_ptr<const IsolatedResult>
    isolated(const GpuConfig &cfg, Cycle cycles,
             const KernelProfile &prof, int tb_limit = 0);

    /** Memoized concurrent run of a named scheme. */
    std::shared_ptr<const ConcurrentResult>
    concurrent(const GpuConfig &cfg, Cycle cycles,
               const Workload &workload, NamedScheme named);

    /** Memoized concurrent run of an explicit spec. */
    std::shared_ptr<const ConcurrentResult>
    concurrent(const GpuConfig &cfg, Cycle cycles,
               const Workload &workload, const SchemeSpec &spec);

    /** Per-SM IPC-vs-TB-count curve, points fanned out in parallel. */
    ScalabilityCurve scalability(const GpuConfig &cfg, Cycle cycles,
                                 const KernelProfile &prof);

    /** Build the SchemeSpec for a named scheme (SMK quota schemes
     *  pull memoized isolated baselines). */
    SchemeSpec makeNamedScheme(const GpuConfig &cfg, Cycle cycles,
                               NamedScheme named,
                               const Workload &workload);

    SweepStats stats() const;
    void clearCache();

    // ---- resilience layer -----------------------------------------------

    /** Attach a write-ahead results journal (nullptr detaches): run()
     *  serves journaled results without simulating and durably records
     *  every fresh result before returning it. */
    void setJournal(ResultJournal *journal) { journal_ = journal; }
    ResultJournal *journal() const { return journal_; }

    /** Retry failed jobs (Timeout errors, and any failure of a
     *  fault-injection job) up to policy.max_retries times. */
    void setRetryPolicy(const RetryPolicy &policy) { retry_ = policy; }

    /** Apply cycle/wall budgets to every subsequently started job. */
    void setJobBudget(const JobBudget &budget) { budget_ = budget; }

    /** Cooperatively cancel every in-flight and future job; each dies
     *  with SimError kind "Cancelled" at its next control poll. */
    void cancelAll();

    /** Re-arm after cancelAll() so new jobs run again. */
    void clearCancel();

    /**
     * Install a liveness hook copied into every subsequently started
     * job's RunControl and invoked at the simulator's control-poll
     * cadence (see RunControl::setPollHook). Set before submitting
     * jobs; not synchronized against in-flight ones.
     */
    void setPollHook(std::function<void()> hook)
    {
        poll_hook_ = std::move(hook);
    }

    ResilienceReport resilience() const;

  private:
    class ActiveControl;

    SimResult compute(const SimJob &job);
    SimResult computeWithResilience(const SimJob &job);
    std::shared_ptr<const IsolatedResult>
    computeIsolated(const SimJob &job, RunControl *rc);
    std::shared_ptr<const ConcurrentResult>
    computeConcurrent(const SimJob &job, RunControl *rc);

    int jobs_;
    WorkStealingPool pool_;

    std::mutex cache_mu_;
    std::unordered_map<std::uint64_t, std::shared_future<SimResult>>
        cache_;

    std::atomic<std::uint64_t> jobs_submitted_{0};
    std::atomic<std::uint64_t> sims_executed_{0};
    std::atomic<std::uint64_t> memo_hits_{0};
    std::atomic<std::uint64_t> isolated_runs_{0};
    std::atomic<std::uint64_t> isolated_hits_{0};

    // Resilience state.
    ResultJournal *journal_ = nullptr;
    RetryPolicy retry_;
    JobBudget budget_;
    std::function<void()> poll_hook_;
    std::mutex rc_mu_; ///< guards active_rcs_ and cancel_all_
    std::vector<RunControl *> active_rcs_;
    bool cancel_all_ = false;
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> retried_{0};
    std::atomic<std::uint64_t> timed_out_{0};
    std::atomic<std::uint64_t> cancelled_jobs_{0};
    std::atomic<std::uint64_t> abandoned_{0};
    std::atomic<std::uint64_t> journal_hits_{0};
};

} // namespace ckesim

#endif // CKESIM_METRICS_SWEEP_ENGINE_HPP

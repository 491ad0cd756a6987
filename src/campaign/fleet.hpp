/**
 * @file
 * The worker fleet both campaign front ends drive: the batch
 * CampaignEngine (campaign_engine.hpp) and the --serve daemon
 * CampaignService (service.hpp). One Fleet owns
 *
 *  - the forked worker slots: spawn, bounded respawn, the Hello
 *    fingerprint check, heartbeat liveness kills, reap, and Shutdown
 *    with a grace period;
 *  - the job table, deduplicated on SimJob::key(), with one reclaim
 *    policy for a job whose worker was lost: re-dispatch, or end it
 *    Drained (drain requested), Poisoned (poison_worker_deaths worker
 *    deaths) or Exhausted (max_dispatch_attempts dispatches);
 *  - the per-slot journal shards: open, wipe, resume probe, and an
 *    fsync'd append before any subscriber hears of a result;
 *  - one poll step, into which a front end adds its own descriptors.
 *
 * A front end submits (key, dispatch index, campaign-ref payload,
 * token) tuples; each token is answered exactly once through the
 * FleetSink, with the job's terminal CampaignJobOutcome. Workers are
 * forked with the fleet's inherited job list (batch: the campaign;
 * service: empty), so a Dispatch names jobs[index] of that list, or
 * of the campaign its ref payload rebuilds, and the worker verifies
 * the content hash either way.
 *
 * Single-threaded: every decision is taken inside submit(), step(),
 * drain() or resolveInProcess(), in event order.
 */

#ifndef CKESIM_CAMPAIGN_FLEET_HPP
#define CKESIM_CAMPAIGN_FLEET_HPP

#include <poll.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/wire.hpp"
#include "metrics/journal.hpp"
#include "metrics/sim_job.hpp"
#include "sim/procfault.hpp"

namespace ckesim {

/** Worker respawns one fleet may make over its lifetime. */
inline constexpr int kMaxWorkerRespawns = 64;

/** Fleet shape, liveness policy and durability, shared by the batch
 *  and service front ends. */
struct FleetOptions
{
    /** Worker processes to fork; values < 1 are clamped to 1. */
    int workers = 1;

    /** Journal base; one shard per worker slot at <base>.shard<N>
     *  (batch also writes <base>.merged). Empty = no durability. */
    std::string journal_base;

    /** Serve keys found in existing shards (and the merged journal)
     *  instead of wiping them at start. */
    bool resume = true;

    /** Minimum gap between worker heartbeats. */
    std::uint64_t heartbeat_ms = 25;

    /** No frame for this long while owning a job (or before the
     *  Hello) = hung worker: SIGKILL and reclaim. */
    std::uint64_t liveness_deadline_ms = 5000;

    /** Dispatches per job before it ends Exhausted. */
    int max_dispatch_attempts = 4;

    /** Worker deaths one job may cause before it ends Poisoned. */
    int poison_worker_deaths = 2;

    /** Fleet-fault injection plan (kill/stall/corrupt/drop/spawn). */
    ProcFaultPlan faults;
};

/** Terminal state of one campaign job. */
enum class CampaignJobState : std::uint8_t {
    Completed = 0, ///< result is valid
    Failed,        ///< structured SimError from the simulation
    Poisoned,      ///< quarantined after killing K workers
    Exhausted,     ///< max_dispatch_attempts spent without a result
    Drained,       ///< drain requested before the job finished
};

/** Display name of a CampaignJobState. */
const char *campaignJobStateName(CampaignJobState state);

/** What became of one job. */
struct CampaignJobOutcome
{
    CampaignJobState state = CampaignJobState::Drained;
    SimResult result;         ///< set when state == Completed
    std::string error_kind;   ///< SimError kind / "Poisoned" / ...
    std::string error_detail; ///< human-readable failure story
    int attempts = 0;         ///< dispatch attempts consumed
    bool from_journal = false; ///< served from a shard/merged journal

    bool ok() const { return state == CampaignJobState::Completed; }
};

/** Fleet accounting; CampaignReport and ServiceReport extend it. */
struct FleetReport
{
    std::uint64_t dispatched = 0;       ///< dispatch frames sent
    std::uint64_t redispatched = 0;     ///< dispatches after a loss
    std::uint64_t journal_hits = 0;     ///< tokens served by a journal
    std::uint64_t dedupe_hits = 0;      ///< tokens sharing a live key
    std::uint64_t worker_deaths = 0;    ///< workers lost (any cause)
    std::uint64_t workers_respawned = 0;
    std::uint64_t hung_workers_killed = 0; ///< liveness deadline kills
    std::uint64_t corrupt_frames = 0;   ///< bad or unexpected frames
    std::uint64_t heartbeats = 0;       ///< heartbeat frames seen
    std::uint64_t poisoned = 0;         ///< jobs quarantined
    bool drain_requested = false;
};

/** One line of `key=value` fleet counters for stderr reports. */
std::string formatFleetReport(const FleetReport &report);

/** Answers one submission token with its job's terminal outcome.
 *  @p replay: the outcome existed before the token subscribed. */
using FleetSink =
    std::function<void(std::uint64_t token, std::uint64_t key,
                       const CampaignJobOutcome &outcome, bool replay)>;

/** The forked worker fleet with its job table and journal shards. */
class Fleet
{
  public:
    /**
     * Open (or wipe, without opts.resume) the journal shards. Workers
     * are not forked until start(). @p inherited is the job list
     * forked workers inherit; it must outlive the fleet.
     */
    Fleet(const FleetOptions &opts, const std::vector<SimJob> &inherited,
          FleetReport &report, FleetSink sink);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Clamp counts to >= 1 and validate the fault plan (SimError
     *  kind "Config" on nonsense). */
    static void normalize(FleetOptions &opts);

    static std::string shardPath(const std::string &base, int slot);
    static std::string mergedPath(const std::string &base);

    /** Fork every worker slot; returns how many are alive. Worker
     *  children close @p front_fds, the front end's descriptors. */
    int start(const std::vector<int> &front_fds);

    /**
     * Subscribe @p token to job @p key, which is jobs[@p index] of the
     * inherited list or of the campaign @p ref_payload names. A key
     * already resolved, or found in the journal, answers the token
     * before this returns; a new key is queued for dispatch.
     */
    void submit(std::uint64_t key, std::uint32_t index,
                const std::vector<std::uint8_t> &ref_payload,
                std::uint64_t token);

    /** The key is in the job table or a journal: submitting it
     *  queues no new work. */
    bool known(std::uint64_t key) const;

    /**
     * Dispatch queued jobs to idle workers (refilling dead slots),
     * poll the worker sockets together with @p extra (whose revents
     * are filled in), then handle worker frames and liveness. Worker
     * children close every descriptor in @p extra.
     */
    void step(std::vector<struct pollfd> &extra, int timeout_ms);

    /**
     * Stop dispatching: queued jobs end Drained now, jobs reclaimed
     * later end Drained, and dead workers are not replaced. Jobs in
     * flight finish. Idempotent.
     */
    void drain();

    /** Resolve a queued job computed outside the fleet (degraded
     *  mode); a result is journaled to shard 0 first. */
    void resolveInProcess(std::uint64_t key, CampaignJobOutcome outcome);

    /** Send Shutdown, wait out the grace period, then SIGKILL and
     *  reap stragglers. The destructor does this too. */
    void shutdown();

    std::size_t queued() const { return queue_.size(); }
    /** Jobs queued or running. */
    std::size_t live() const { return live_; }
    int aliveWorkers() const;
    /** A dead slot could still be refilled. */
    bool canRespawn() const { return !draining_ && respawns_left_ > 0; }

  private:
    using Clock = std::chrono::steady_clock; // LINT-ALLOW(determinism): fleet liveness timing, never simulated state

    enum class Phase : std::uint8_t { Queued, Running, Resolved };

    struct Job
    {
        Phase phase = Phase::Queued;
        std::uint32_t index = 0;           ///< Dispatch job_index
        std::vector<std::uint8_t> ref;     ///< Dispatch payload
        int deaths = 0;                    ///< workers lost running it
        CampaignJobOutcome outcome;        ///< attempts live; rest final
        std::vector<std::uint64_t> tokens; ///< waiting subscribers
    };

    struct Slot
    {
        pid_t pid = -1;
        int fd = -1;
        bool hello_seen = false;
        bool busy = false;
        std::uint64_t key = 0; ///< job owned while busy
        FrameParser parser;
        Clock::time_point last_frame{};

        bool alive() const { return fd >= 0; }
    };

    bool spawn(int slot, bool respawn);
    void pump();
    void readWorker(int slot);
    void handleFrame(int slot, const Frame &frame);
    /** SIGKILL, reap, reclaim the slot's job. */
    void lose(int slot);
    void reclaim(Job &job, std::uint64_t key);
    void finish(Job &job, std::uint64_t key, CampaignJobOutcome outcome,
                int shard);
    bool journalFind(std::uint64_t key, SimResult &out) const;

    FleetOptions opts_;
    ProcFaultPlan faults_; ///< the orchestrator's own firing state
    const std::vector<SimJob> &inherited_;
    const std::uint64_t fingerprint_;
    FleetReport &report_;
    FleetSink sink_;

    std::vector<Slot> slots_;
    int respawns_left_ = kMaxWorkerRespawns;
    bool draining_ = false;
    std::vector<int> front_fds_; ///< closed in forked children

    // Ordered so every drain sweep runs in a data-determined order.
    std::map<std::uint64_t, Job> jobs_;
    std::deque<std::uint64_t> queue_; ///< Queued keys, FIFO
    std::size_t live_ = 0;

    /** Append targets (one per slot) first, then read-only resume
     *  sources (shards of a larger fleet, the merged journal). */
    std::vector<std::unique_ptr<ResultJournal>> journals_;
};

} // namespace ckesim

#endif // CKESIM_CAMPAIGN_FLEET_HPP

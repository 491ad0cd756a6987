/**
 * @file
 * Batch campaign front end: run one job list to terminal states over
 * the forked worker Fleet (campaign/fleet.hpp) and return the outcome
 * table.
 *
 * The workers inherit the job list at fork, so a dispatch names a job
 * by index and content hash with an empty payload. Every job is
 * submitted once; the fleet's journal probe, dedupe, liveness and
 * reclaim policy decide the rest (DESIGN.md section 12). When no
 * worker can be spawned the campaign runs in-process through a serial
 * SweepEngine. With a journal base, results land in per-slot shards
 * as they arrive, and a completed run rewrites <base>.merged in
 * submission order, duplicate keys collapsed, so its bytes are
 * identical for any worker count and any crash/redispatch history.
 */

#ifndef CKESIM_CAMPAIGN_CAMPAIGN_ENGINE_HPP
#define CKESIM_CAMPAIGN_CAMPAIGN_ENGINE_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/fleet.hpp"
#include "metrics/sim_job.hpp"

namespace ckesim {

/** Fleet shape and durability of one batch campaign. */
struct CampaignOptions : FleetOptions
{
    /** Skip the fleet entirely and run in-process (degraded mode). */
    bool force_in_process = false;
};

/** Per-job accounting of one campaign run, on top of the fleet's. */
struct CampaignReport : FleetReport
{
    std::uint64_t completed = 0;      ///< jobs with results
    std::uint64_t failed = 0;         ///< structured job failures
    std::uint64_t drained = 0;        ///< jobs drained unfinished
    bool degraded_in_process = false; ///< fleet unavailable
};

/** Everything a campaign run produced. */
struct CampaignOutcome
{
    std::vector<CampaignJobOutcome> jobs; ///< submission order
    CampaignReport report;

    bool allCompleted() const;
};

/** Stable 32-bit fingerprint of a result (CRC of its canonical
 *  encoding — the same bytes the journal stores). */
std::uint32_t resultFingerprint(const SimResult &result);

/**
 * The diff-stable campaign result table: header (name, cycles, job
 * count, campaign fingerprint) plus one line per job with its content
 * key, terminal state and result fingerprint (or error kind). One
 * formatter shared by ckesim-campaignd and ckesim-campaign-client so
 * "byte-identical tables" is a property of the data, not of two
 * printf copies staying in sync.
 */
std::string formatCampaignTable(
    const std::string &name, std::uint64_t cycles,
    const std::vector<SimJob> &jobs,
    const std::vector<CampaignJobOutcome> &outcomes);

/** Orchestrates one campaign at a time over a forked worker fleet. */
class CampaignEngine
{
  public:
    explicit CampaignEngine(CampaignOptions opts);

    const CampaignOptions &options() const { return opts_; }

    /**
     * Run @p jobs to terminal states (fork the fleet, dispatch,
     * recover, merge). Not reentrant; one campaign per call.
     */
    CampaignOutcome run(const std::vector<SimJob> &jobs);

    /**
     * Ask the running campaign to drain: in-flight jobs finish (still
     * under liveness supervision), the rest end Drained, workers shut
     * down cleanly. Async-signal-safe (an atomic store), so a
     * SIGTERM handler may call it directly.
     */
    void requestDrain()
    {
        drain_.store(true, std::memory_order_relaxed);
    }

    /** Shard journal path for worker slot @p slot. */
    static std::string shardPath(const std::string &base, int slot)
    {
        return Fleet::shardPath(base, slot);
    }

    /** Merged (canonical) journal path. */
    static std::string mergedPath(const std::string &base)
    {
        return Fleet::mergedPath(base);
    }

  private:
    class Run; // all per-campaign state lives in campaign_engine.cpp

    CampaignOptions opts_;
    std::atomic<bool> drain_{false};
};

} // namespace ckesim

#endif // CKESIM_CAMPAIGN_CAMPAIGN_ENGINE_HPP

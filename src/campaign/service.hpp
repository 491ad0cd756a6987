/**
 * @file
 * Campaign service front end: a daemon that listens on an AF_UNIX
 * stream socket, accepts concurrent client connections, and runs
 * their campaigns on the same worker Fleet (campaign/fleet.hpp) the
 * batch CampaignEngine drives.
 *
 * Protocol: clients speak the CRC-framed campaign/wire format.
 * SubmitCampaign carries a named-campaign ref (name + cycles, never
 * serialized SimJobs; both sides rebuild the job list locally and
 * content hashes verify they agree). The service answers SubmitAck
 * (key = campaign fingerprint), streams JobResult / JobFailed frames
 * as jobs reach terminal states, and finishes with CampaignDone.
 * Ping/Pong probes refresh the idle timeout.
 *
 * What the front end adds to the fleet (DESIGN.md section 12.3):
 *
 *  - listen and accept inside the fleet's one poll step: no threads,
 *    so forking workers stays safe;
 *  - a FrameParser per client connection: sticky corruption on one
 *    client's stream drops THAT client only;
 *  - admission control: a bounded pending-job queue (overflow =>
 *    Reject with a retry-after hint), a per-client in-flight campaign
 *    cap, and an idle-client timeout;
 *  - fan-out: every job enters the fleet as a campaign-ref dispatch
 *    keyed by content hash, so a job submitted by N clients runs once
 *    and its result reaches every subscriber;
 *  - client disconnect orphans nothing: the dead client's jobs keep
 *    running into the journal shards, so an idempotent resubmission
 *    replays them (JobResult aux bit 0 set);
 *  - drain: SIGTERM (requestDrain()) refuses new submissions and
 *    drains the fleet; every client hears how its jobs ended.
 *
 * SIGKILL loses nothing durable: `--serve --resume` replays the
 * journal shards.
 */

#ifndef CKESIM_CAMPAIGN_SERVICE_HPP
#define CKESIM_CAMPAIGN_SERVICE_HPP

#include <atomic>
#include <cstdint>
#include <string>

#include "campaign/fleet.hpp"

namespace ckesim {

/** Socket and admission limits of one campaign service. */
struct ServiceOptions : FleetOptions
{
    /** AF_UNIX socket path to listen on (unlinked + rebound). */
    std::string socket_path;

    /** Admission control: queued-but-undispatched jobs beyond this
     *  Reject the submission with a retry-after hint. */
    std::size_t max_pending_jobs = 256;

    /** Admission control: in-flight campaigns per client connection
     *  beyond this are Rejected. */
    std::size_t max_client_campaigns = 4;

    /** Clients silent for longer than this are disconnected
     *  (Ping refreshes it). 0 disables the timeout. */
    std::uint64_t idle_timeout_ms = 30000;
};

/** Retry-after hint attached to overload Rejects. */
inline constexpr std::uint64_t kRejectRetryMs = 200;

/** Service-lifetime accounting, on top of the fleet's. */
struct ServiceReport : FleetReport
{
    std::uint64_t connections = 0;       ///< clients accepted
    std::uint64_t submissions = 0;       ///< SubmitCampaign admitted
    std::uint64_t rejected = 0;          ///< SubmitCampaign refused
    std::uint64_t campaigns_done = 0;    ///< CampaignDone sent
    std::uint64_t client_corrupt = 0;    ///< client streams dropped
    std::uint64_t client_disconnects = 0; ///< EOF/error/timeout drops
    std::uint64_t pings = 0;
};

/**
 * The daemon: listen, admit, dedupe, dispatch, journal, stream.
 * Construct, install a SIGTERM handler that calls requestDrain(),
 * then serve() until drained.
 */
class CampaignService
{
  public:
    explicit CampaignService(ServiceOptions opts);

    const ServiceOptions &options() const { return opts_; }

    /**
     * Bind the socket and run the poll loop until a drain completes.
     * Returns the lifetime report. Throws SimError (kind "Service")
     * when the socket cannot be bound or the fleet cannot start.
     */
    ServiceReport serve();

    /**
     * Ask the running service to drain: refuse new submissions, end
     * queued jobs Drained, finish in-flight jobs, notify clients,
     * shut the fleet down. Async-signal-safe (an atomic store).
     */
    void requestDrain()
    {
        drain_.store(true, std::memory_order_relaxed);
    }

  private:
    class Loop; // all serving state lives in service.cpp

    ServiceOptions opts_;
    std::atomic<bool> drain_{false};
};

} // namespace ckesim

#endif // CKESIM_CAMPAIGN_SERVICE_HPP

/**
 * @file
 * Campaign service client: submit a named-campaign ref to a running
 * ckesim-campaignd --serve daemon, stream the results back, and end
 * with the same outcome vector an in-process CampaignEngine run
 * would produce — so the caller can print the shared
 * formatCampaignTable and diff it byte-for-byte against any other
 * path to the same campaign.
 *
 * Robustness contract:
 *
 *  - all socket I/O is EINTR-safe and partial-transfer-safe (the
 *    shared readFully/writeFully helpers);
 *  - receives run a poll(2)-driven inactivity timeout; a service
 *    that goes silent mid-stream is a bounded failure, not a hang;
 *  - Reject frames with a retry-after hint and lost connections are
 *    retried with deterministic jittered backoff (retryBackoffMs
 *    keyed by the campaign fingerprint — reproducible, and distinct
 *    campaigns desynchronize instead of stampeding);
 *  - resubmission after a lost connection is idempotent: the service
 *    replays completed jobs from its journal/table (JobResult aux
 *    bit 0) instead of re-running them;
 *  - the client-side chaos plan can corrupt the submission frame
 *    (the service must drop this client only) or abruptly close the
 *    socket after N streamed results (the service must finish the
 *    orphaned jobs into its journal).
 */

#ifndef CKESIM_CAMPAIGN_CLIENT_HPP
#define CKESIM_CAMPAIGN_CLIENT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/wire.hpp"
#include "metrics/sim_job.hpp"
#include "sim/procfault.hpp"

namespace ckesim {

/** Jitter percentage on top of the client's doubled backoff base. */
inline constexpr std::uint32_t kClientBackoffJitterPct = 50;

/** One submission attempt's shape and persistence. */
struct ClientOptions
{
    /** AF_UNIX socket path of the service. */
    std::string socket_path;

    /** What to submit (name + cycles; the job list is rebuilt
     *  locally and verified against the service's SubmitAck). */
    CampaignRef ref;

    /** Max silence between frames before the connection is declared
     *  lost. */
    std::uint64_t timeout_ms = 30000;

    /** Extra attempts after the first (connect failures, lost
     *  connections, retryable Rejects). */
    int retries = 3;

    /** Base for the deterministic jittered retry backoff. */
    std::uint64_t backoff_ms = 50;

    /** Client-side chaos plan (CorruptClientFrame /
     *  DropClientMidStream). */
    ProcFaultPlan faults;
};

/** How a client run ended. */
enum class ClientStatus : std::uint8_t {
    Completed = 0,  ///< CampaignDone, every job produced a result
    JobFailures,    ///< CampaignDone, but some jobs failed
    Rejected,       ///< service refused and retries are exhausted
    ConnectionLost, ///< could not (re)establish a working stream
    ProtocolError,  ///< the service broke the protocol contract
};

/** Display name of a ClientStatus. */
const char *clientStatusName(ClientStatus status);

/** Accounting of one runCampaignClient call. */
struct ClientReport
{
    int attempts = 0;            ///< submission attempts made
    std::uint64_t results = 0;   ///< JobResult frames accepted
    std::uint64_t replayed = 0;  ///< results served from the journal
    std::uint64_t failures = 0;  ///< JobFailed frames accepted
    std::uint64_t rejects = 0;   ///< Reject frames received
    std::string error;           ///< failure story (non-Completed)
};

/** Everything one submission produced. */
struct ClientOutcome
{
    ClientStatus status = ClientStatus::ConnectionLost;
    std::vector<SimJob> jobs; ///< locally rebuilt job list
    std::vector<CampaignJobOutcome> outcomes; ///< aligned with jobs
    ClientReport report;

    bool ok() const { return status == ClientStatus::Completed; }
};

/**
 * Submit opts.ref and stream results until CampaignDone (or a
 * terminal failure). Throws SimError (kind "Config") only for a ref
 * the client itself cannot build — every service-side problem is a
 * status, not an exception.
 */
ClientOutcome runCampaignClient(const ClientOptions &opts);

} // namespace ckesim

#endif // CKESIM_CAMPAIGN_CLIENT_HPP

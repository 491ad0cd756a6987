/**
 * @file
 * ckesim-campaignd: command-line front end of the campaign worker
 * fleet. Two modes over the same Fleet:
 *
 *  - batch (default): build a named campaign, run it over the forked
 *    worker fleet (or in-process), print a diff-stable result table;
 *  - service (--serve SOCKET): listen on an AF_UNIX socket as a
 *    long-lived daemon, accept concurrent ckesim-campaign-client
 *    submissions, dedupe jobs across campaigns by content hash, and
 *    stream results back (DESIGN.md section 12.3).
 *
 * Output contract (batch): stdout carries ONLY the table — the
 * shared formatCampaignTable, byte-identical for any worker count,
 * chaos plan or crash/redispatch history that reaches the same
 * terminal states, and byte-identical to the table a service client
 * prints for the same campaign. Fleet accounting goes to stderr.
 * The CI kill-soak leans on this: `campaignd ... > table.txt` then
 * diff.
 *
 * Usage:
 *   ckesim-campaignd [--campaign smoke] [--cycles N] [--in-process]
 *                    [--chaos kill-worker] FLEET-FLAGS
 *   ckesim-campaignd --serve SOCKET [--max-pending-jobs N]
 *                    [--max-client-campaigns N] [--idle-timeout-ms N]
 *                    FLEET-FLAGS
 *
 *   FLEET-FLAGS: [--workers N] [--journal BASE] [--resume]
 *                [--heartbeat-ms N] [--liveness-ms N]
 *                [--max-attempts N] [--poison-deaths N]
 *
 *   --journal BASE   durable shard journals at BASE.shard<N>
 *   --resume         keep existing journals (default wipes them);
 *                    completed results replay instead of re-running
 *   --chaos MODE     inject fleet faults; kill-worker = SIGKILL the
 *                    worker on every job's first dispatch attempt
 *
 * A flag of the other mode is a usage error (exit 2), not ignored.
 *
 * SIGTERM/SIGINT drain either mode: in-flight jobs finish, pending
 * jobs end Drained, workers shut down cleanly; the service also
 * refuses new submissions while draining.
 *
 * Exit codes: 0 = all jobs completed (batch) / clean drain (serve),
 * 1 = failures (failed, poisoned or exhausted jobs), 2 =
 * usage/config error, 3 = drained (batch, with unstarted jobs).
 */

#include <signal.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_spec.hpp"
#include "campaign/service.hpp"
#include "sim/check.hpp"

namespace {

using namespace ckesim;

CampaignEngine *g_engine = nullptr;
CampaignService *g_service = nullptr;

void
onDrainSignal(int)
{
    // Both are atomic stores: signal-safe.
    if (g_engine != nullptr)
        g_engine->requestDrain();
    if (g_service != nullptr)
        g_service->requestDrain();
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ckesim-campaignd [--campaign smoke|pairs] [--cycles N] "
        "[--in-process]\n"
        "                        [--chaos kill-worker] FLEET-FLAGS\n"
        "       ckesim-campaignd --serve SOCKET [--max-pending-jobs N]\n"
        "                        [--max-client-campaigns N] "
        "[--idle-timeout-ms N] FLEET-FLAGS\n"
        "FLEET-FLAGS: [--workers N] [--journal BASE] [--resume] "
        "[--heartbeat-ms N]\n"
        "             [--liveness-ms N] [--max-attempts N] "
        "[--poison-deaths N]\n");
}

/** Parse a count in [@p lo, @p hi]. */
bool
parseCount(const char *s, long long lo, long long hi, long long &out)
{
    char *end = nullptr;
    out = std::strtoll(s, &end, 10);
    return end != s && *end == '\0' && out >= lo && out <= hi;
}

/** Validate a campaign name up front so a typo is a usage error
 *  with the accepted names listed, not a late SimError. */
bool
knownCampaign(const std::string &name)
{
    for (const std::string &known : namedCampaigns())
        if (known == name)
            return true;
    std::fprintf(stderr, "unknown campaign '%s' (known:",
                 name.c_str());
    for (const std::string &known : namedCampaigns())
        std::fprintf(stderr, " %s", known.c_str());
    std::fprintf(stderr, ")\n");
    return false;
}

void
installDrainHandler()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onDrainSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

int
runService(const ServiceOptions &opts)
{
    try {
        CampaignService service(opts);
        g_service = &service;
        installDrainHandler();
        const ServiceReport r = service.serve();
        g_service = nullptr;
        std::fprintf(stderr,
                     "connections=%" PRIu64 " submissions=%" PRIu64
                     " rejected=%" PRIu64 " campaigns_done=%" PRIu64
                     " client_corrupt=%" PRIu64
                     " client_disconnects=%" PRIu64 " pings=%" PRIu64
                     "\n%s\n",
                     r.connections, r.submissions, r.rejected,
                     r.campaigns_done, r.client_corrupt,
                     r.client_disconnects, r.pings,
                     formatFleetReport(r).c_str());
        return 0;
    } catch (const SimError &e) {
        std::fprintf(stderr, "campaignd: [%s] %s\n",
                     e.kind().c_str(), e.what());
        return 2;
    }
}

int
runBatch(const CampaignOptions &opts, const std::string &campaign,
         long long cycles)
{
    try {
        const std::vector<SimJob> jobs =
            buildNamedCampaign(campaign, Cycle{
                static_cast<std::uint64_t>(cycles)});

        CampaignEngine engine(opts);
        g_engine = &engine;
        installDrainHandler();
        const CampaignOutcome outcome = engine.run(jobs);
        g_engine = nullptr;

        // ---- diff-stable table (stdout) ----------------------------
        std::fputs(
            formatCampaignTable(campaign,
                                static_cast<std::uint64_t>(cycles),
                                jobs, outcome.jobs)
                .c_str(),
            stdout);

        // ---- fleet accounting (stderr) -----------------------------
        const CampaignReport &r = outcome.report;
        std::fprintf(stderr,
                     "workers=%d%s completed=%" PRIu64
                     " failed=%" PRIu64 " drained=%" PRIu64 "%s\n%s\n",
                     opts.workers,
                     r.degraded_in_process ? " (degraded in-process)"
                                           : "",
                     r.completed, r.failed, r.drained,
                     outcome.allCompleted() ? " ALL-COMPLETED" : "",
                     formatFleetReport(r).c_str());

        if (outcome.allCompleted())
            return 0;
        if (r.drain_requested && r.poisoned == 0 && r.failed == 0)
            return 3;
        return 1;
    } catch (const SimError &e) {
        std::fprintf(stderr, "campaignd: [%s] %s\n",
                     e.kind().c_str(), e.what());
        return 2;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Flags that take a value, with the mode they belong to.
    enum class Mode { Both, Batch, Serve };
    struct Flag
    {
        const char *name;
        Mode mode;
    };
    static const Flag kValued[] = {
        {"--serve", Mode::Both}, // selects the mode
        {"--campaign", Mode::Batch},
        {"--cycles", Mode::Batch},
        {"--chaos", Mode::Batch},
        {"--max-pending-jobs", Mode::Serve},
        {"--max-client-campaigns", Mode::Serve},
        {"--idle-timeout-ms", Mode::Serve},
        {"--workers", Mode::Both},
        {"--journal", Mode::Both},
        {"--heartbeat-ms", Mode::Both},
        {"--liveness-ms", Mode::Both},
        {"--max-attempts", Mode::Both},
        {"--poison-deaths", Mode::Both},
    };

    std::string campaign = "smoke";
    std::string chaos;
    std::string serve_socket;
    long long cycles = 20000;
    bool in_process = false;
    FleetOptions fleet;
    fleet.resume = false; // the CLI starts fresh unless --resume
    ServiceOptions sopts;
    const char *batch_only = nullptr; // first batch-only flag seen
    const char *serve_only = nullptr; // first serve-only flag seen

    const auto bad = [](const std::string &why) {
        std::fprintf(stderr, "%s\n", why.c_str());
        usage();
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        }
        if (arg == "--resume") {
            fleet.resume = true;
            continue;
        }
        if (arg == "--in-process") {
            in_process = true;
            batch_only = batch_only ? batch_only : argv[i];
            continue;
        }
        const Flag *flag = nullptr;
        for (const Flag &f : kValued)
            if (arg == f.name)
                flag = &f;
        if (flag == nullptr)
            return bad("unknown argument '" + arg + "'");
        if (i + 1 >= argc)
            return bad("missing value for " + arg);
        if (flag->mode == Mode::Batch && batch_only == nullptr)
            batch_only = flag->name;
        if (flag->mode == Mode::Serve && serve_only == nullptr)
            serve_only = flag->name;
        const char *value = argv[++i];
        long long v = 0;
        if (arg == "--serve") {
            serve_socket = value;
        } else if (arg == "--campaign") {
            campaign = value;
        } else if (arg == "--chaos") {
            chaos = value;
        } else if (arg == "--journal") {
            fleet.journal_base = value;
        } else if (arg == "--cycles") {
            if (!parseCount(value, 1, INT64_MAX, cycles))
                return bad("--cycles wants a positive count");
        } else if (arg == "--workers") {
            if (!parseCount(value, 1, 256, v))
                return bad("--workers wants a count in [1, 256]");
            fleet.workers = static_cast<int>(v);
        } else if (arg == "--idle-timeout-ms") {
            if (!parseCount(value, 0, INT64_MAX, v))
                return bad("--idle-timeout-ms wants a count >= 0 "
                           "(0 disables)");
            sopts.idle_timeout_ms = static_cast<std::uint64_t>(v);
        } else {
            if (!parseCount(value, 1, INT64_MAX, v))
                return bad(arg + " wants a positive count");
            if (arg == "--heartbeat-ms")
                fleet.heartbeat_ms = static_cast<std::uint64_t>(v);
            else if (arg == "--liveness-ms")
                fleet.liveness_deadline_ms =
                    static_cast<std::uint64_t>(v);
            else if (arg == "--max-attempts")
                fleet.max_dispatch_attempts = static_cast<int>(v);
            else if (arg == "--poison-deaths")
                fleet.poison_worker_deaths = static_cast<int>(v);
            else if (arg == "--max-pending-jobs")
                sopts.max_pending_jobs = static_cast<std::size_t>(v);
            else
                sopts.max_client_campaigns =
                    static_cast<std::size_t>(v);
        }
    }

    const bool serve = !serve_socket.empty();
    if (serve && batch_only != nullptr)
        return bad(std::string(batch_only) +
                   " applies to batch mode only");
    if (!serve && serve_only != nullptr)
        return bad(std::string(serve_only) +
                   " applies to --serve mode only");

    if (serve) {
        static_cast<FleetOptions &>(sopts) = fleet;
        sopts.socket_path = serve_socket;
        return runService(sopts);
    }

    if (!chaos.empty()) {
        if (chaos != "kill-worker") {
            std::fprintf(stderr,
                         "unknown chaos mode '%s' (try: "
                         "kill-worker)\n",
                         chaos.c_str());
            return 2;
        }
        // SIGKILL the worker on every job's FIRST dispatch attempt;
        // re-dispatches (attempt >= 1) run clean. The terminal states
        // — and therefore the stdout table — match an unharassed run
        // exactly.
        ProcFaultSpec spec;
        spec.kind = ProcFaultKind::KillWorkerMidJob;
        spec.attempts = 1;
        fleet.faults = ProcFaultPlan({spec});
    }
    if (!knownCampaign(campaign)) {
        usage();
        return 2;
    }
    return runBatch(CampaignOptions{fleet, in_process}, campaign, cycles);
}

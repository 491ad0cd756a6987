#include "campaign/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/wire.hpp"
#include "metrics/journal.hpp"
#include "sim/check.hpp"

namespace ckesim {

namespace {

using Clock = std::chrono::steady_clock; // LINT-ALLOW(determinism): host-side client idle timing, never simulated state
using Millis = std::chrono::milliseconds;

[[noreturn]] void
raiseService(const std::string &detail)
{
    SimCtx ctx;
    ctx.module = "campaign.service";
    raiseSimError("Service", ctx, detail);
}

/** One admitted submission. */
struct Campaign
{
    int client_fd = -1; ///< -1 = orphaned (client disconnected)
    std::uint64_t fingerprint = 0; ///< campaignFingerprint of its jobs
    std::uint64_t jobs = 0;      ///< job count
    std::uint64_t resolved = 0;  ///< jobs at a terminal state
    std::uint64_t completed = 0; ///< jobs that produced a result
};

/** One client connection. */
struct Client
{
    int fd = -1;
    FrameParser parser;
    Clock::time_point last_activity{};
    std::vector<std::uint64_t> campaigns; ///< in-flight submissions
};

/** Bind and listen on @p path (unlinked first); non-blocking. */
int
bindListener(const std::string &path)
{
    struct sockaddr_un addr;
    if (path.empty() || path.size() >= sizeof addr.sun_path)
        raiseService("socket path empty or longer than " +
                     std::to_string(sizeof addr.sun_path - 1) +
                     " bytes: '" + path + "'");

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        raiseService(std::string("socket(): ") +
                     std::strerror(errno));
    // A stale socket file from a killed predecessor must not block
    // the rebind; --resume recovery depends on it.
    (void)::unlink(path.c_str());

    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof addr) != 0)
        raiseService("bind('" + path +
                     "'): " + std::strerror(errno));
    if (::listen(fd, 16) != 0)
        raiseService(std::string("listen(): ") +
                     std::strerror(errno));
    const int flags = ::fcntl(fd, F_GETFL, 0);
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return fd;
}

/** Fleet token of job @p index of campaign @p id. */
std::uint64_t
jobToken(std::uint64_t id, std::uint32_t index)
{
    return id << 32 | index;
}

} // namespace

/** All serving state; one instance per serve() call. */
class CampaignService::Loop
{
  public:
    Loop(const ServiceOptions &opts, const std::atomic<bool> &drain)
        : opts_(opts), drain_flag_(drain),
          // Bound before the fleet opens its journals and forks, so
          // clients connect into the backlog while it starts.
          listen_fd_(bindListener(opts.socket_path)),
          fleet_(opts_, no_jobs_, report_,
                 [this](std::uint64_t token, std::uint64_t key,
                        const CampaignJobOutcome &outcome, bool replay) {
                     onJob(token, key, outcome, replay);
                 })
    {
    }

    ServiceReport run();

  private:
    // ---- jobs ------------------------------------------------------------
    void onJob(std::uint64_t token, std::uint64_t key,
               const CampaignJobOutcome &outcome, bool replay);
    void resolveOne(std::uint64_t campaign_id, bool completed);

    // ---- clients ---------------------------------------------------------
    void acceptClients();
    void handleClientInput(int fd);
    void handleClientFrame(int fd, const Frame &frame);
    void handleSubmit(int fd, const Frame &frame);
    void rejectSubmit(int fd, const std::string &reason,
                      std::uint64_t retry_after_ms);
    void dropClient(int fd, const char *why);
    void checkClientIdle(Clock::time_point now);
    bool sendToCampaign(std::uint64_t campaign_id, const Frame &frame);

    const ServiceOptions &opts_;
    const std::atomic<bool> &drain_flag_;
    bool draining_ = false;
    const int listen_fd_;

    // std::map keeps every fan-out and drain sweep in deterministic
    // order: the frame stream a client sees must not depend on hash
    // layout.
    std::map<int, Client> clients_;
    std::map<std::uint64_t, Campaign> campaigns_;
    std::uint64_t next_campaign_id_ = 1;

    ServiceReport report_;
    /** Service workers inherit no job list: every dispatch carries
     *  the campaign ref its index belongs to. */
    const std::vector<SimJob> no_jobs_;
    Fleet fleet_;
};

// ---- jobs ----------------------------------------------------------------

void
CampaignService::Loop::onJob(std::uint64_t token, std::uint64_t key,
                             const CampaignJobOutcome &outcome,
                             bool replay)
{
    const std::uint64_t id = token >> 32;
    Frame frame;
    frame.job_index = static_cast<std::uint32_t>(token);
    frame.key = key;
    if (outcome.ok()) {
        frame.type = FrameType::JobResult;
        frame.aux = replay ? 1u : 0u;
        frame.payload = encodeSimResult(outcome.result);
    } else {
        frame.type = FrameType::JobFailed;
        frame.payload =
            encodeJobError(outcome.error_kind, outcome.error_detail);
    }
    (void)sendToCampaign(id, frame);
    resolveOne(id, outcome.ok());
}

void
CampaignService::Loop::resolveOne(std::uint64_t campaign_id,
                                  bool completed)
{
    auto it = campaigns_.find(campaign_id);
    if (it == campaigns_.end())
        return;
    Campaign &c = it->second;
    ++c.resolved;
    if (completed)
        ++c.completed;
    if (c.resolved < c.jobs)
        return;

    Frame done;
    done.type = FrameType::CampaignDone;
    done.aux = static_cast<std::uint32_t>(c.completed);
    done.key = c.fingerprint;
    (void)sendToCampaign(campaign_id, done);
    ++report_.campaigns_done;

    auto cit = clients_.find(c.client_fd);
    if (cit != clients_.end()) {
        auto &list = cit->second.campaigns;
        list.erase(
            std::remove(list.begin(), list.end(), campaign_id),
            list.end());
    }
    campaigns_.erase(it);
}

// ---- clients -------------------------------------------------------------

void
CampaignService::Loop::acceptClients()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or transient accept failure
        }
        const int flags = ::fcntl(fd, F_GETFL, 0);
        (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        Client &client = clients_[fd];
        client.fd = fd;
        client.last_activity = Clock::now(); // idle-timeout basis
        ++report_.connections;
    }
}

void
CampaignService::Loop::handleClientInput(int fd)
{
    auto it = clients_.find(fd);
    if (it == clients_.end())
        return;
    Client &client = it->second;
    client.last_activity = Clock::now(); // traffic refreshes idle

    std::uint8_t buf[65536];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            client.parser.feed(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof buf)
                break;
            continue;
        }
        if (n == 0) {
            dropClient(fd, "disconnected");
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        dropClient(fd, "read error");
        return;
    }
    Frame frame;
    while (clients_.count(fd) != 0 && client.parser.next(frame))
        handleClientFrame(fd, frame);
    if (clients_.count(fd) != 0 && client.parser.corrupt()) {
        // Sticky corruption poisons THIS stream only; every other
        // client keeps its connection.
        ++report_.client_corrupt;
        std::fprintf(stderr,
                     "campaignd: dropping corrupt client (%s)\n",
                     client.parser.corruptReason().c_str());
        dropClient(fd, "corrupt stream");
    }
}

void
CampaignService::Loop::handleClientFrame(int fd, const Frame &frame)
{
    switch (frame.type) {
      case FrameType::SubmitCampaign:
        handleSubmit(fd, frame);
        return;
      case FrameType::Ping: {
        ++report_.pings;
        Frame pong;
        pong.type = FrameType::Pong;
        pong.job_index = frame.job_index;
        pong.aux = frame.aux;
        pong.key = frame.key;
        auto it = clients_.find(fd);
        if (it != clients_.end() &&
            !writeFrame(fd, pong))
            dropClient(fd, "pong failed");
        return;
      }
      default:
        return; // tolerate unknown-but-valid traffic
    }
}

void
CampaignService::Loop::rejectSubmit(int fd, const std::string &reason,
                                    std::uint64_t retry_after_ms)
{
    ++report_.rejected;
    RejectInfo info;
    info.reason = reason;
    info.retry_after_ms = retry_after_ms;
    Frame frame;
    frame.type = FrameType::Reject;
    frame.payload = encodeReject(info);
    if (!writeFrame(fd, frame))
        dropClient(fd, "reject failed");
}

void
CampaignService::Loop::handleSubmit(int fd, const Frame &frame)
{
    if (draining_) {
        rejectSubmit(fd, "service is draining", 0);
        return;
    }

    std::vector<SimJob> built;
    try {
        const CampaignRef ref = decodeCampaignRef(frame.payload);
        if (ref.cycles == 0)
            raiseService("submission cycles must be positive");
        built = buildNamedCampaign(ref.name, Cycle{ref.cycles});
    } catch (const SimError &e) {
        rejectSubmit(fd,
                     std::string("[") + e.kind() + "] " + e.what(),
                     0);
        return;
    }

    auto cit = clients_.find(fd);
    if (cit == clients_.end())
        return;
    if (cit->second.campaigns.size() >= opts_.max_client_campaigns) {
        rejectSubmit(fd,
                     "client already has " +
                         std::to_string(
                             cit->second.campaigns.size()) +
                         " campaigns in flight",
                     kRejectRetryMs);
        return;
    }

    // Admission: count the NEW work this submission would queue
    // (deduped and journal-served jobs are free).
    std::vector<std::uint64_t> keys;
    std::set<std::uint64_t> fresh;
    for (const SimJob &job : built) {
        keys.push_back(job.key());
        if (!fleet_.known(keys.back()))
            fresh.insert(keys.back());
    }
    if (fleet_.queued() + fresh.size() > opts_.max_pending_jobs) {
        rejectSubmit(fd,
                     "queue full (" + std::to_string(fleet_.queued()) +
                         " pending, +" + std::to_string(fresh.size()) +
                         " would exceed " +
                         std::to_string(opts_.max_pending_jobs) + ")",
                     kRejectRetryMs);
        return;
    }

    Frame ack;
    ack.type = FrameType::SubmitAck;
    ack.key = campaignFingerprint(built);
    ack.aux = static_cast<std::uint32_t>(keys.size());
    if (!writeFrame(fd, ack)) {
        dropClient(fd, "ack failed");
        return;
    }
    const std::uint64_t id = next_campaign_id_++;
    Campaign &c = campaigns_[id];
    c.client_fd = fd;
    c.fingerprint = ack.key;
    c.jobs = keys.size();
    cit->second.campaigns.push_back(id);
    ++report_.submissions;

    // Known jobs are answered inside submit(), and the answer to the
    // last one closes and erases the campaign: no reference into
    // campaigns_ may be held across these calls.
    for (std::size_t i = 0; i < keys.size(); ++i)
        fleet_.submit(keys[i], static_cast<std::uint32_t>(i),
                      frame.payload,
                      jobToken(id, static_cast<std::uint32_t>(i)));
}

bool
CampaignService::Loop::sendToCampaign(std::uint64_t campaign_id,
                                      const Frame &frame)
{
    auto it = campaigns_.find(campaign_id);
    if (it == campaigns_.end() || it->second.client_fd < 0)
        return false; // orphaned: result stays in journal/table
    const int fd = it->second.client_fd;
    if (clients_.count(fd) == 0)
        return false;
    if (!writeFrame(fd, frame)) {
        dropClient(fd, "send failed");
        return false;
    }
    return true;
}

void
CampaignService::Loop::dropClient(int fd, const char *why)
{
    auto it = clients_.find(fd);
    if (it == clients_.end())
        return;
    std::fprintf(stderr, "campaignd: client dropped (%s)\n", why);
    ++report_.client_disconnects;
    // Orphan the client's campaigns instead of cancelling them:
    // their jobs keep running and the results land in the journal,
    // so an idempotent resubmission replays instead of re-running.
    for (const std::uint64_t id : it->second.campaigns) {
        auto cit = campaigns_.find(id);
        if (cit != campaigns_.end())
            cit->second.client_fd = -1;
    }
    ::close(fd);
    clients_.erase(it);
}

void
CampaignService::Loop::checkClientIdle(Clock::time_point now)
{
    if (opts_.idle_timeout_ms == 0)
        return;
    std::vector<int> idle;
    for (const auto &entry : clients_)
        if (now - entry.second.last_activity >
            Millis(opts_.idle_timeout_ms))
            idle.push_back(entry.first);
    for (const int fd : idle)
        dropClient(fd, "idle timeout");
}

// ---- the loop ------------------------------------------------------------

ServiceReport
CampaignService::Loop::run()
{
    if (fleet_.start({listen_fd_}) == 0) {
        ::close(listen_fd_);
        (void)::unlink(opts_.socket_path.c_str());
        raiseService("could not spawn any of " +
                     std::to_string(opts_.workers) + " workers");
    }
    std::fprintf(stderr,
                 "campaignd: serving on %s (workers=%d%s)\n",
                 opts_.socket_path.c_str(), opts_.workers,
                 opts_.journal_base.empty() ? "" : ", journaled");

    while (!draining_ || fleet_.live() > 0) {
        if (drain_flag_.load(std::memory_order_relaxed) && !draining_) {
            // Refuse new submissions; the fleet ends queued jobs
            // Drained now and lets in-flight ones finish.
            draining_ = true;
            fleet_.drain();
        }

        std::vector<struct pollfd> fds;
        fds.push_back({listen_fd_, POLLIN, 0});
        for (const auto &entry : clients_)
            fds.push_back({entry.first, POLLIN, 0});
        fleet_.step(fds, 50);

        const Clock::time_point now = Clock::now(); // client idle timing
        if (fds[0].revents & POLLIN)
            acceptClients();
        for (std::size_t i = 1; i < fds.size(); ++i)
            if (fds[i].revents != 0)
                handleClientInput(fds[i].fd);
        checkClientIdle(now);
    }

    fleet_.shutdown();
    for (const auto &entry : clients_)
        ::close(entry.first);
    clients_.clear();
    ::close(listen_fd_);
    (void)::unlink(opts_.socket_path.c_str());
    return report_;
}

// ---- public surface ------------------------------------------------------

CampaignService::CampaignService(ServiceOptions opts)
    : opts_(std::move(opts))
{
    Fleet::normalize(opts_);
}

ServiceReport
CampaignService::serve()
{
    Loop loop(opts_, drain_);
    return loop.run();
}

} // namespace ckesim

#include "campaign/fleet.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "campaign/worker.hpp"
#include "sim/check.hpp"

namespace ckesim {

namespace {

using Millis = std::chrono::milliseconds;

/** Largest shard slot probed or wiped beyond the current worker
 *  count, so shrinking the fleet never loses results. */
constexpr int kMaxShards = 256;

/** How long shutdown() waits for workers to exit on their own. */
constexpr Millis kShutdownGrace{2000};

std::string
jobName(std::uint64_t key)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "job %016" PRIx64, key);
    return buf;
}

CampaignJobOutcome
failure(CampaignJobState state, const char *kind, std::string detail,
        int attempts)
{
    CampaignJobOutcome out;
    out.state = state;
    out.error_kind = kind;
    out.error_detail = std::move(detail);
    out.attempts = attempts;
    return out;
}

CampaignJobOutcome
drainedOutcome(int attempts)
{
    return failure(CampaignJobState::Drained, "Drained",
                   "drained before the job finished", attempts);
}

} // namespace

const char *
campaignJobStateName(CampaignJobState state)
{
    switch (state) {
      case CampaignJobState::Completed:
        return "completed";
      case CampaignJobState::Failed:
        return "failed";
      case CampaignJobState::Poisoned:
        return "poisoned";
      case CampaignJobState::Exhausted:
        return "exhausted";
      case CampaignJobState::Drained:
        return "drained";
    }
    return "unknown";
}

std::string
formatFleetReport(const FleetReport &r)
{
    char line[512];
    std::snprintf(
        line, sizeof line,
        "dispatched=%" PRIu64 " redispatched=%" PRIu64
        " journal_hits=%" PRIu64 " dedupe_hits=%" PRIu64
        " worker_deaths=%" PRIu64 " respawned=%" PRIu64
        " hung_killed=%" PRIu64 " corrupt_frames=%" PRIu64
        " heartbeats=%" PRIu64 " poisoned=%" PRIu64 "%s",
        r.dispatched, r.redispatched, r.journal_hits, r.dedupe_hits,
        r.worker_deaths, r.workers_respawned, r.hung_workers_killed,
        r.corrupt_frames, r.heartbeats, r.poisoned,
        r.drain_requested ? " drain_requested" : "");
    return line;
}

// ---- setup / teardown ----------------------------------------------------

void
Fleet::normalize(FleetOptions &opts)
{
    opts.workers = std::max(opts.workers, 1);
    opts.max_dispatch_attempts = std::max(opts.max_dispatch_attempts, 1);
    opts.poison_worker_deaths = std::max(opts.poison_worker_deaths, 1);
    for (const ProcFaultSpec &spec : opts.faults.specs())
        validateProcFaultSpec(spec);
}

std::string
Fleet::shardPath(const std::string &base, int slot)
{
    return base + ".shard" + std::to_string(slot);
}

std::string
Fleet::mergedPath(const std::string &base)
{
    return base + ".merged";
}

Fleet::Fleet(const FleetOptions &opts,
             const std::vector<SimJob> &inherited, FleetReport &report,
             FleetSink sink)
    : opts_(opts), inherited_(inherited),
      fingerprint_(campaignFingerprint(inherited)), report_(report),
      sink_(std::move(sink))
{
    normalize(opts_);
    faults_ = opts_.faults;
    slots_.resize(static_cast<std::size_t>(opts_.workers));
    const std::string &base = opts_.journal_base;
    if (base.empty())
        return;

    // A shard slot below the worker count may be missing (that slot
    // never finished a job); past it, the first gap ends the set.
    const auto beyond = [this, &base](int slot) {
        return slot >= opts_.workers &&
               ::access(shardPath(base, slot).c_str(), F_OK) != 0;
    };
    if (!opts_.resume) {
        // A fresh fleet must not be satisfied by an earlier run.
        (void)::unlink(mergedPath(base).c_str());
        for (int slot = 0; slot < kMaxShards && !beyond(slot); ++slot)
            (void)::unlink(shardPath(base, slot).c_str());
    }
    // Append targets first (journals_[slot]), then read-only resume
    // sources.
    for (int slot = 0; slot < kMaxShards && !beyond(slot); ++slot) {
        journals_.push_back(std::make_unique<ResultJournal>());
        journals_.back()->open(shardPath(base, slot));
    }
    if (::access(mergedPath(base).c_str(), F_OK) == 0) {
        journals_.push_back(std::make_unique<ResultJournal>());
        journals_.back()->open(mergedPath(base));
    }
}

Fleet::~Fleet()
{
    shutdown();
}

int
Fleet::start(const std::vector<int> &front_fds)
{
    front_fds_ = front_fds;
    for (int slot = 0; slot < opts_.workers; ++slot)
        (void)spawn(slot, /*respawn=*/false);
    return aliveWorkers();
}

int
Fleet::aliveWorkers() const
{
    int alive = 0;
    for (const Slot &ws : slots_)
        alive += ws.alive() ? 1 : 0;
    return alive;
}

void
Fleet::shutdown()
{
    Frame bye;
    bye.type = FrameType::Shutdown;
    for (const Slot &ws : slots_)
        if (ws.alive())
            (void)writeFrame(ws.fd, bye);
    const auto deadline = Clock::now() + kShutdownGrace; // shutdown grace period
    for (Slot &ws : slots_) {
        if (!ws.alive())
            continue;
        int status = 0;
        while (::waitpid(ws.pid, &status, WNOHANG) == 0) {
            if (Clock::now() >= deadline) { // shutdown grace period
                ::kill(ws.pid, SIGKILL);
                (void)::waitpid(ws.pid, &status, 0);
                break;
            }
            struct timespec ts = {0, 5 * 1000 * 1000};
            ::nanosleep(&ts, nullptr);
        }
        ::close(ws.fd);
        ws = Slot{};
    }
}

// ---- workers -------------------------------------------------------------

bool
Fleet::spawn(int slot, bool respawn)
{
    if (faults_.fire(ProcFaultKind::FailSpawn, slot, -1, respawn ? 1 : 0))
        return false;
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        return false;
    }
    if (pid == 0) {
        // Child: drop every orchestrator-side fd (siblings, the front
        // end's sockets), serve the socket, and leave without running
        // atexit machinery.
        ::close(sv[0]);
        for (const Slot &other : slots_)
            if (other.alive())
                ::close(other.fd);
        for (const int fd : front_fds_)
            ::close(fd);
        ::signal(SIGTERM, SIG_DFL);
        ::signal(SIGINT, SIG_DFL);
        WorkerConfig wc;
        wc.fd = sv[1];
        wc.worker_index = slot;
        wc.heartbeat_ms = opts_.heartbeat_ms;
        wc.faults = opts_.faults;
        int status = 1;
        try {
            status = runCampaignWorker(wc, inherited_);
        } catch (...) {
            status = 1;
        }
        ::_exit(status);
    }
    ::close(sv[1]);
    const int flags = ::fcntl(sv[0], F_GETFL, 0);
    (void)::fcntl(sv[0], F_SETFL, flags | O_NONBLOCK);

    Slot &ws = slots_[static_cast<std::size_t>(slot)];
    ws = Slot{};
    ws.pid = pid;
    ws.fd = sv[0];
    ws.last_frame = Clock::now(); // fleet liveness timing
    if (respawn)
        ++report_.workers_respawned;
    return true;
}

void
Fleet::lose(int slot)
{
    Slot &ws = slots_[static_cast<std::size_t>(slot)];
    if (!ws.alive())
        return;
    // Killing an already-exited (zombie) worker is harmless; killing
    // a live one is the point.
    ::kill(ws.pid, SIGKILL);
    int status = 0;
    (void)::waitpid(ws.pid, &status, 0);
    ::close(ws.fd);
    const bool busy = ws.busy;
    const std::uint64_t key = ws.key;
    ws = Slot{};
    ++report_.worker_deaths;
    if (!busy)
        return;
    const auto it = jobs_.find(key);
    if (it != jobs_.end() && it->second.phase == Phase::Running)
        reclaim(it->second, key);
}

void
Fleet::pump()
{
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        while (!queue_.empty() &&
               jobs_.find(queue_.front())->second.phase != Phase::Queued)
            queue_.pop_front(); // resolved while waiting
        if (queue_.empty())
            return;
        Slot &ws = slots_[s];
        if (!ws.alive()) {
            // Refill a dead slot while there is work for it; the new
            // worker takes jobs once its Hello is checked.
            if (canRespawn()) {
                --respawns_left_;
                (void)spawn(static_cast<int>(s), /*respawn=*/true);
            }
            continue;
        }
        if (!ws.hello_seen || ws.busy)
            continue;
        const std::uint64_t key = queue_.front();
        Job &job = jobs_.find(key)->second;
        Frame dispatch;
        dispatch.type = FrameType::Dispatch;
        dispatch.job_index = job.index;
        dispatch.aux = static_cast<std::uint32_t>(job.outcome.attempts);
        dispatch.key = key;
        dispatch.payload = job.ref;
        if (!writeFrame(ws.fd, dispatch)) {
            lose(static_cast<int>(s));
            continue;
        }
        queue_.pop_front();
        job.phase = Phase::Running;
        ++job.outcome.attempts;
        ws.busy = true;
        ws.key = key;
        ws.last_frame = Clock::now(); // dispatch restarts the clock
        ++report_.dispatched;
        if (job.outcome.attempts > 1)
            ++report_.redispatched;
    }
}

void
Fleet::readWorker(int slot)
{
    Slot &ws = slots_[static_cast<std::size_t>(slot)];
    std::uint8_t buf[1 << 16];
    bool gone = false;
    for (;;) {
        const ssize_t n = ::read(ws.fd, buf, sizeof buf);
        if (n > 0) {
            ws.parser.feed(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof buf)
                break;
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        gone = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
        break;
    }
    // Frames that arrived before an EOF still count: a result sent
    // just before the worker died is not re-run.
    Frame frame;
    while (ws.alive() && ws.parser.next(frame))
        handleFrame(slot, frame);
    if (ws.alive() && ws.parser.corrupt()) {
        // After a misaligned frame nothing this worker sends can be
        // trusted.
        ++report_.corrupt_frames;
        lose(slot);
    }
    if (gone)
        lose(slot);
}

void
Fleet::handleFrame(int slot, const Frame &frame)
{
    Slot &ws = slots_[static_cast<std::size_t>(slot)];
    switch (frame.type) {
      case FrameType::Hello:
        // A worker that disagrees about the inherited job list cannot
        // be trusted with index-based dispatch.
        if (frame.key != fingerprint_)
            break;
        ws.hello_seen = true;
        ws.last_frame = Clock::now(); // fleet liveness timing
        return;
      case FrameType::Heartbeat:
        ++report_.heartbeats;
        ws.last_frame = Clock::now(); // fleet liveness timing
        return;
      case FrameType::Result:
      case FrameType::JobError: {
        const auto it = ws.busy ? jobs_.find(ws.key) : jobs_.end();
        if (it == jobs_.end() || frame.key != ws.key ||
            frame.job_index != it->second.index)
            break;
        CampaignJobOutcome out;
        out.attempts = it->second.outcome.attempts;
        try {
            if (frame.type == FrameType::Result) {
                out.state = CampaignJobState::Completed;
                out.result = decodeSimResult(frame.payload);
            } else {
                out.state = CampaignJobState::Failed;
                decodeJobError(frame.payload, out.error_kind,
                               out.error_detail);
            }
        } catch (const SimError &) {
            break;
        }
        ws.busy = false;
        ws.key = 0;
        ws.last_frame = Clock::now(); // fleet liveness timing
        finish(it->second, frame.key, std::move(out), slot);
        return;
      }
      default:
        // Worker streams never carry dispatch, shutdown or
        // submission-protocol frames.
        break;
    }
    // Unexpected, mismatched or undecodable: kill and reclaim.
    ++report_.corrupt_frames;
    lose(slot);
}

// ---- jobs ----------------------------------------------------------------

bool
Fleet::journalFind(std::uint64_t key, SimResult &out) const
{
    for (const auto &journal : journals_)
        if (journal->find(key, out))
            return true;
    return false;
}

bool
Fleet::known(std::uint64_t key) const
{
    SimResult scratch;
    return jobs_.count(key) != 0 || journalFind(key, scratch);
}

void
Fleet::submit(std::uint64_t key, std::uint32_t index,
              const std::vector<std::uint8_t> &ref_payload,
              std::uint64_t token)
{
    const auto [it, fresh] = jobs_.try_emplace(key);
    Job &job = it->second;
    if (fresh) {
        job.index = index;
        job.ref = ref_payload;
        if (journalFind(key, job.outcome.result)) {
            job.phase = Phase::Resolved;
            job.outcome.state = CampaignJobState::Completed;
            job.outcome.from_journal = true;
        } else {
            ++live_;
            queue_.push_back(key);
        }
    }
    if (job.phase == Phase::Resolved) {
        ++(job.outcome.from_journal ? report_.journal_hits
                                    : report_.dedupe_hits);
        sink_(token, key, job.outcome, /*replay=*/true);
        return;
    }
    if (!fresh)
        ++report_.dedupe_hits;
    job.tokens.push_back(token);
    if (draining_ && job.phase == Phase::Queued)
        finish(job, key, drainedOutcome(job.outcome.attempts), -1);
}

void
Fleet::reclaim(Job &job, std::uint64_t key)
{
    const int deaths = ++job.deaths;
    const int attempts = job.outcome.attempts;
    CampaignJobOutcome out;
    if (draining_) {
        out = drainedOutcome(attempts);
    } else if (deaths >= opts_.poison_worker_deaths) {
        ++report_.poisoned;
        out = failure(CampaignJobState::Poisoned, "Poisoned",
                      jobName(key) + " killed " + std::to_string(deaths) +
                          " worker(s); quarantined instead of "
                          "re-dispatched",
                      attempts);
    } else if (attempts >= opts_.max_dispatch_attempts) {
        out = failure(CampaignJobState::Exhausted, "Exhausted",
                      jobName(key) + " spent all " +
                          std::to_string(attempts) +
                          " dispatch attempts without a result",
                      attempts);
    } else {
        job.phase = Phase::Queued;
        queue_.push_front(key); // reclaimed work goes first
        return;
    }
    finish(job, key, std::move(out), -1);
}

void
Fleet::finish(Job &job, std::uint64_t key, CampaignJobOutcome outcome,
              int shard)
{
    if (job.phase == Phase::Resolved)
        return;
    // Durable before visible: a result is fsync'd to its shard before
    // any subscriber hears of it, so a crash between the two cannot
    // report a result that a resume would not replay.
    if (outcome.ok() && shard >= 0 && shard < opts_.workers &&
        !journals_.empty())
        journals_[static_cast<std::size_t>(shard)]->append(key,
                                                          outcome.result);
    job.phase = Phase::Resolved;
    --live_;
    job.outcome = std::move(outcome);
    std::vector<std::uint64_t> tokens;
    tokens.swap(job.tokens);
    for (const std::uint64_t token : tokens)
        sink_(token, key, job.outcome, /*replay=*/false);
}

void
Fleet::drain()
{
    if (draining_)
        return;
    draining_ = true;
    report_.drain_requested = true;
    std::deque<std::uint64_t> queued;
    queued.swap(queue_);
    for (const std::uint64_t key : queued) {
        Job &job = jobs_.find(key)->second;
        if (job.phase == Phase::Queued)
            finish(job, key, drainedOutcome(job.outcome.attempts), -1);
    }
}

void
Fleet::resolveInProcess(std::uint64_t key, CampaignJobOutcome outcome)
{
    const auto it = jobs_.find(key);
    if (it != jobs_.end() && it->second.phase == Phase::Queued)
        finish(it->second, key, std::move(outcome), 0);
}

// ---- the poll step -------------------------------------------------------

void
Fleet::step(std::vector<struct pollfd> &extra, int timeout_ms)
{
    front_fds_.clear();
    for (const struct pollfd &pfd : extra)
        front_fds_.push_back(pfd.fd);
    pump();

    std::vector<struct pollfd> fds;
    std::vector<int> owner;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (!slots_[s].alive())
            continue;
        fds.push_back({slots_[s].fd, POLLIN, 0});
        owner.push_back(static_cast<int>(s));
    }
    const std::size_t workers = fds.size();
    fds.insert(fds.end(), extra.begin(), extra.end());
    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (rc < 0 && errno != EINTR) {
        SimCtx ctx;
        ctx.module = "campaign.fleet";
        raiseSimError("Campaign", ctx,
                      std::string("poll(): ") + std::strerror(errno));
    }
    for (std::size_t i = 0; i < extra.size(); ++i)
        extra[i].revents = rc < 0 ? 0 : fds[workers + i].revents;
    if (rc > 0) {
        for (std::size_t i = 0; i < workers; ++i) {
            const Slot &ws = slots_[static_cast<std::size_t>(owner[i])];
            if (fds[i].revents != 0 && ws.alive() && ws.fd == fds[i].fd)
                readWorker(owner[i]);
        }
    }

    const auto now = Clock::now(); // fleet liveness timing
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        // A worker owes a frame while it owns a job, and its Hello
        // before it gets one.
        const Slot &ws = slots_[s];
        if (ws.alive() && (ws.busy || !ws.hello_seen) &&
            now - ws.last_frame > Millis(opts_.liveness_deadline_ms)) {
            ++report_.hung_workers_killed;
            lose(static_cast<int>(s));
        }
    }
}

} // namespace ckesim

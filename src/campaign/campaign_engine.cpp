#include "campaign/campaign_engine.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <unordered_set>

#include "metrics/journal.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"

namespace ckesim {

bool
CampaignOutcome::allCompleted() const
{
    for (const CampaignJobOutcome &job : jobs)
        if (!job.ok())
            return false;
    return true;
}

std::uint32_t
resultFingerprint(const SimResult &result)
{
    const std::vector<std::uint8_t> bytes = encodeSimResult(result);
    return crc32(bytes.data(), bytes.size());
}

std::string
formatCampaignTable(const std::string &name, std::uint64_t cycles,
                    const std::vector<SimJob> &jobs,
                    const std::vector<CampaignJobOutcome> &outcomes)
{
    if (jobs.size() != outcomes.size()) {
        SimCtx ctx;
        ctx.module = "campaign.table";
        raiseSimError("Campaign", ctx,
                      "job/outcome count mismatch: " +
                          std::to_string(jobs.size()) + " jobs vs " +
                          std::to_string(outcomes.size()) +
                          " outcomes");
    }
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "campaign %s cycles=%llu jobs=%zu "
                  "fingerprint=%016" PRIx64 "\n",
                  name.c_str(),
                  static_cast<unsigned long long>(cycles),
                  jobs.size(), campaignFingerprint(jobs));
    out += line;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const CampaignJobOutcome &o = outcomes[i];
        if (o.ok())
            std::snprintf(line, sizeof line,
                          "%4zu %016" PRIx64 " %-10s %08" PRIx32
                          " %s\n",
                          i, jobs[i].key(),
                          campaignJobStateName(o.state),
                          resultFingerprint(o.result),
                          jobs[i].describe().c_str());
        else
            std::snprintf(line, sizeof line,
                          "%4zu %016" PRIx64 " %-10s %-8s %s\n",
                          i, jobs[i].key(),
                          campaignJobStateName(o.state),
                          o.error_kind.c_str(),
                          jobs[i].describe().c_str());
        out += line;
    }
    return out;
}

CampaignEngine::CampaignEngine(CampaignOptions opts)
    : opts_(std::move(opts))
{
    Fleet::normalize(opts_);
}

namespace {

/**
 * Rewrite the merged journal from scratch, so it is a pure function
 * of (job list, results): submission order, duplicate keys collapsed
 * to their first occurrence.
 */
void
writeMerged(const std::string &base, const std::vector<SimJob> &jobs,
            const std::vector<CampaignJobOutcome> &outcomes)
{
    const std::string path = Fleet::mergedPath(base);
    (void)::unlink(path.c_str());
    ResultJournal merged;
    merged.open(path);
    std::unordered_set<std::uint64_t> written;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::uint64_t key = jobs[i].key();
        if (outcomes[i].ok() && written.insert(key).second)
            merged.append(key, outcomes[i].result);
    }
}

} // namespace

CampaignOutcome
CampaignEngine::run(const std::vector<SimJob> &jobs)
{
    CampaignOutcome outcome;
    outcome.jobs.resize(jobs.size());
    CampaignReport &report = outcome.report;
    std::vector<bool> resolved(jobs.size(), false);
    std::size_t unresolved = jobs.size();
    const auto drainRequested = [this] {
        return drain_.load(std::memory_order_relaxed);
    };
    {
        Fleet fleet(opts_, jobs, report,
                    [&](std::uint64_t token, std::uint64_t,
                        const CampaignJobOutcome &out, bool) {
                        outcome.jobs[token] = out;
                        resolved[token] = true;
                        --unresolved;
                        if (out.state == CampaignJobState::Completed)
                            ++report.completed;
                        else if (out.state == CampaignJobState::Failed)
                            ++report.failed;
                        else if (out.state == CampaignJobState::Drained)
                            ++report.drained;
                    });
        // Workers inherit the list, so dispatches carry no payload.
        for (std::size_t i = 0; i < jobs.size(); ++i)
            fleet.submit(jobs[i].key(), static_cast<std::uint32_t>(i),
                         {}, i);
        if (drainRequested())
            fleet.drain();

        if (unresolved > 0 && !opts_.force_in_process &&
            fleet.start({}) > 0) {
            std::vector<struct pollfd> none;
            while (unresolved > 0 &&
                   (fleet.aliveWorkers() > 0 || fleet.canRespawn())) {
                if (drainRequested())
                    fleet.drain();
                fleet.step(none, 20);
            }
        }
        fleet.shutdown();

        // No fleet (forced, fork failure, injected spawn fault, or
        // every worker lost for good): finish in-process rather than
        // abandon the campaign.
        if (unresolved > 0) {
            report.degraded_in_process = true;
            SweepEngine engine(1);
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (resolved[i])
                    continue;
                if (drainRequested()) {
                    fleet.drain();
                    break;
                }
                CampaignJobOutcome out;
                out.attempts = 1;
                try {
                    out.result = engine.run(jobs[i]);
                    out.state = CampaignJobState::Completed;
                } catch (const SimError &e) {
                    out.state = CampaignJobState::Failed;
                    out.error_kind = e.kind();
                    out.error_detail = e.what();
                }
                fleet.resolveInProcess(jobs[i].key(), std::move(out));
            }
        }
    }
    if (!opts_.journal_base.empty())
        writeMerged(opts_.journal_base, jobs, outcome.jobs);
    return outcome;
}

} // namespace ckesim

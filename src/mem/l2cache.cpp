#include "mem/l2cache.hpp"

#include "sim/check.hpp"

namespace ckesim {

namespace {
SimCtx
l2Ctx(Cycle now = kNeverCycle, KernelId kernel = kInvalidKernel)
{
    SimCtx ctx;
    ctx.cycle = now;
    ctx.kernel = kernel;
    ctx.module = "l2";
    return ctx;
}
} // namespace

L2Partition::L2Partition(const L2Config &cfg, int partition_index)
    : cfg_(cfg), partition_index_(partition_index),
      tags_(cfg.numSetsPerPartition(), cfg.assoc),
      mshrs_(cfg.num_mshrs, /*max_merge=*/16),
      input_(cfg.miss_queue_depth),
      replies_(cfg.num_mshrs * 16 + cfg.latency +
               cfg.miss_queue_depth + 8)
{
    mshrs_.setCheckContext(l2Ctx());
}

void
L2Partition::acceptInput(const MemRequest &req)
{
    SIM_CHECK(inputRoom() > 0, l2Ctx(req.birth, req.kernel),
              "partition " << partition_index_
                           << " input queue overflow (depth "
                           << cfg_.miss_queue_depth << ")");
    input_.push_back(req);
}

void
L2Partition::tick(Cycle now, DramChannel &dram)
{
    if (input_.empty())
        return;

    const MemRequest req = input_.front();
    const bool is_write = req.kind == ReqKind::WriteThru;

    const int way = tags_.probe(req.line_addr);
    if (way >= 0) {
        const int set = tags_.setIndex(req.line_addr);
        if (tags_.valid(set, way)) {
            // L2 hit.
            ++accesses_;
            tags_.touch(set, way);
            if (is_write) {
                tags_.line(set, way).dirty = true; // WBWA write hit
            } else {
                replies_.push_back(
                    Reply{now + cfg_.latency, req});
            }
            input_.pop_front();
            return;
        }
        // Reserved: merge into the outstanding miss.
        // One probe resolves pending + merge-room + append.
        switch (mshrs_.tryMerge(req.line_addr, req)) {
          case MshrTable<MemRequest>::MergeResult::Full:
            return; // stall at head
          case MshrTable<MemRequest>::MergeResult::NoEntry:
            SIM_CHECK(false, l2Ctx(now, req.kernel),
                      "partition " << partition_index_
                                   << ": reserved line " << req.line_addr
                                   << " with no outstanding miss");
            return;
          case MshrTable<MemRequest>::MergeResult::Merged:
            break;
        }
        ++accesses_;
        ++misses_;
        input_.pop_front();
        return;
    }

    // New miss: MSHR + victim line + DRAM slot(s).
    if (!mshrs_.hasFree())
        return;
    VictimResult victim = tags_.chooseVictim(req.line_addr, req.kernel);
    if (!victim.ok)
        return;
    const int dram_slots_needed = victim.evicted_dirty ? 2 : 1;
    if (dram.freeSlots() < dram_slots_needed)
        return;

    ++accesses_;
    ++misses_;

    if (victim.evicted_dirty) {
        MemRequest wb;
        wb.line_addr = victim.evicted_line;
        wb.sm_id = kInvalidSm;
        wb.kernel = req.kernel;
        wb.kind = ReqKind::Writeback;
        wb.birth = now;
        const bool ok = dram.tryEnqueue(wb, now);
        SIM_INVARIANT(ok, l2Ctx(now, req.kernel),
                      "partition " << partition_index_
                                   << ": DRAM refused writeback after "
                                      "freeSlots() promised room");
    }

    tags_.reserve(tags_.setIndex(req.line_addr), victim.way,
                  req.line_addr, req.kernel);
    mshrs_.allocate(req.line_addr, req);

    MemRequest fetch = req;
    fetch.kind = ReqKind::ReadMiss; // WBWA: writes fetch the line too
    const bool ok = dram.tryEnqueue(fetch, now);
    SIM_INVARIANT(ok, l2Ctx(now, req.kernel),
                  "partition " << partition_index_
                               << ": DRAM refused fetch after "
                                  "freeSlots() promised room");

    input_.pop_front();
}

void
L2Partition::onDramFill(const MemRequest &fill, Cycle now)
{
    std::vector<MemRequest> &targets = fill_targets_;
    mshrs_.releaseInto(fill.line_addr, targets);

    bool dirty = false;
    for (const MemRequest &t : targets)
        if (t.kind == ReqKind::WriteThru)
            dirty = true;

    const int way = tags_.probe(fill.line_addr);
    SIM_INVARIANT(way >= 0, l2Ctx(now, fill.kernel),
                  "partition " << partition_index_ << ": fill for line "
                               << fill.line_addr
                               << " that lost its reservation");
    const int set = tags_.setIndex(fill.line_addr);
    SIM_INVARIANT(tags_.line(set, way).reserved,
                  l2Ctx(now, fill.kernel),
                  "partition " << partition_index_ << ": fill for line "
                               << fill.line_addr
                               << " whose way is not reserved");
    tags_.fill(set, way, dirty);

    for (const MemRequest &t : targets) {
        if (t.kind != ReqKind::WriteThru) {
            replies_.push_back(Reply{now + cfg_.latency, t});
        }
    }
}

void
L2Partition::checkInvariants(Cycle now) const
{
    const SimCtx ctx = l2Ctx(now);
    SIM_INVARIANT(inputSize() <= cfg_.miss_queue_depth, ctx,
                  "partition " << partition_index_
                               << " input occupancy " << inputSize()
                               << " exceeds depth "
                               << cfg_.miss_queue_depth);
    mshrs_.checkBalance(ctx);
}

void
L2Partition::drainReplies(Cycle now, std::vector<MemRequest> &out)
{
    while (!replies_.empty() && replies_.front().ready <= now) {
        out.push_back(replies_.front().req);
        replies_.pop_front();
    }
}

} // namespace ckesim

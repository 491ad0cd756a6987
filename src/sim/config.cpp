#include "sim/config.hpp"

#include "sim/check.hpp"

namespace ckesim {

namespace {

/** Throw a ConfigError naming the offending field. */
[[noreturn]] void
configFail(const std::string &field, const std::string &why)
{
    SimCtx ctx;
    ctx.module = "config";
    raiseSimError("ConfigError", ctx, field + ": " + why);
}

void
requirePositive(int value, const char *field)
{
    if (value < 1) {
        configFail(field, "must be >= 1, got " +
                              std::to_string(value));
    }
}

void
requireNonNegative(int value, const char *field)
{
    if (value < 0) {
        configFail(field, "must be >= 0, got " +
                              std::to_string(value));
    }
}

bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

/** Shared geometry checks for the L1D and L2 tag arrays. */
void
validateCacheGeometry(const char *name, int size_bytes, int line_bytes,
                      int assoc)
{
    requirePositive(size_bytes, name);
    requirePositive(assoc, name);
    if (!isPowerOfTwo(line_bytes))
        configFail(name, "line_bytes must be a power of two, got " +
                             std::to_string(line_bytes));
    if (size_bytes % (line_bytes * assoc) != 0) {
        configFail(name,
                   "size " + std::to_string(size_bytes) +
                       " is not a multiple of line_bytes*assoc = " +
                       std::to_string(line_bytes * assoc) +
                       " (assoc/set-count mismatch)");
    }
    const int sets = size_bytes / (line_bytes * assoc);
    if (!isPowerOfTwo(sets)) {
        configFail(name, "set count " + std::to_string(sets) +
                             " is not a power of two (xor indexing "
                             "requires it)");
    }
}

} // namespace

void
GpuConfig::validate() const
{
    requirePositive(num_sms, "num_sms");

    // SM pipeline.
    requirePositive(sm.simd_width, "sm.simd_width");
    requirePositive(sm.num_schedulers, "sm.num_schedulers");
    requirePositive(sm.max_threads, "sm.max_threads");
    requirePositive(sm.max_warps, "sm.max_warps");
    requirePositive(sm.max_tbs, "sm.max_tbs");
    requirePositive(sm.register_file, "sm.register_file");
    requirePositive(sm.smem_bytes, "sm.smem_bytes");
    requirePositive(sm.alu_latency, "sm.alu_latency");
    requirePositive(sm.sfu_latency, "sm.sfu_latency");
    requirePositive(sm.smem_latency, "sm.smem_latency");
    requirePositive(sm.lsu_queue_depth, "sm.lsu_queue_depth");
    if (sm.max_threads < sm.simd_width)
        configFail("sm.max_threads",
                   "must hold at least one warp (simd_width)");
    // The SM's issue stage keeps one 64-bit slot mask per scheduler.
    if (sm.max_warps > 64 * sm.num_schedulers)
        configFail("sm.max_warps",
                   "at most 64 warp slots per scheduler (64 * "
                   "sm.num_schedulers = " +
                       std::to_string(64 * sm.num_schedulers) +
                       "), got " + std::to_string(sm.max_warps));

    // L1D miss resources.
    validateCacheGeometry("l1d", l1d.size_bytes, l1d.line_bytes,
                          l1d.assoc);
    requirePositive(l1d.num_mshrs, "l1d.num_mshrs");
    requirePositive(l1d.mshr_merge, "l1d.mshr_merge");
    requirePositive(l1d.miss_queue_depth, "l1d.miss_queue_depth");
    requireNonNegative(l1d.hit_latency, "l1d.hit_latency");

    // L2 partitions.
    validateCacheGeometry("l2", l2.partition_bytes, l2.line_bytes,
                          l2.assoc);
    requirePositive(l2.num_mshrs, "l2.num_mshrs");
    requirePositive(l2.miss_queue_depth, "l2.miss_queue_depth");
    requireNonNegative(l2.latency, "l2.latency");
    if (l2.line_bytes != l1d.line_bytes)
        configFail("l2.line_bytes",
                   "must match l1d.line_bytes (" +
                       std::to_string(l1d.line_bytes) + "), got " +
                       std::to_string(l2.line_bytes));

    // Crossbar.
    requirePositive(icnt.flit_bytes, "icnt.flit_bytes");
    requireNonNegative(icnt.latency, "icnt.latency");
    requirePositive(icnt.input_queue_depth, "icnt.input_queue_depth");

    // DRAM. A dirty L2 eviction needs two queue slots in one cycle
    // (writeback + fetch), so a 1-deep queue deadlocks the partition.
    requirePositive(dram.num_channels, "dram.num_channels");
    requirePositive(dram.banks_per_channel, "dram.banks_per_channel");
    requirePositive(dram.row_bytes, "dram.row_bytes");
    requireNonNegative(dram.access_latency, "dram.access_latency");
    requirePositive(dram.row_hit_service, "dram.row_hit_service");
    requireNonNegative(dram.row_miss_penalty, "dram.row_miss_penalty");
    requirePositive(dram.frfcfs_window, "dram.frfcfs_window");
    if (dram.queue_depth < 2)
        configFail("dram.queue_depth",
                   "must be >= 2 (dirty eviction enqueues a "
                   "writeback and a fetch together), got " +
                       std::to_string(dram.queue_depth));
    if (dram.row_bytes % l2.line_bytes != 0)
        configFail("dram.row_bytes",
                   "must be a multiple of the line size " +
                       std::to_string(l2.line_bytes) + ", got " +
                       std::to_string(dram.row_bytes));

    // Integrity layer.
    requirePositive(integrity.check_interval,
                    "integrity.check_interval");
    requireNonNegative(integrity.watchdog_timeout,
                       "integrity.watchdog_timeout");
    requirePositive(integrity.audit_drain_limit,
                    "integrity.audit_drain_limit");
    if (integrity.watchdog_timeout > 0 &&
        integrity.watchdog_timeout < integrity.check_interval)
        configFail("integrity.watchdog_timeout",
                   "must be >= check_interval or 0 (disabled)");
}

GpuConfig
makeSmallConfig(int num_sms, int num_channels)
{
    GpuConfig cfg;
    cfg.num_sms = num_sms;
    cfg.dram.num_channels = num_channels;
    return cfg;
}

} // namespace ckesim

/**
 * @file
 * Architecture configuration, mirroring Table 1 of the paper
 * (Maxwell-like GPU modelled on GPGPU-Sim V3.2.2 defaults).
 */

#ifndef CKESIM_SIM_CONFIG_HPP
#define CKESIM_SIM_CONFIG_HPP

#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace ckesim {

/** Warp scheduling policy inside each scheduler slice. */
enum class SchedPolicy {
    GTO, ///< Greedy-Then-Oldest (paper default)
    LRR, ///< Loose Round Robin (sensitivity study, Section 4.3)
};

/** Per-SM streaming-multiprocessor limits and pipeline timing. */
struct SmConfig
{
    int simd_width = 32;          ///< threads per warp
    int num_schedulers = 4;       ///< warp schedulers per SM
    int max_threads = 3072;       ///< per-SM thread limit
    int max_warps = 96;           ///< per-SM warp limit
    int max_tbs = 16;             ///< per-SM thread-block slots
    int register_file = 65536;    ///< 32-bit registers per SM
    int smem_bytes = 96 * 1024;   ///< shared memory per SM

    SchedPolicy sched_policy = SchedPolicy::GTO;

    /** Dependent-issue latency of an ALU instruction (cycles). */
    int alu_latency = 4;
    /** Dependent-issue latency of an SFU instruction (cycles). */
    int sfu_latency = 16;
    /** Dependent-issue latency of a shared-memory access (cycles). */
    int smem_latency = 24;
    /** LSU input queue depth, in warp memory instructions. */
    int lsu_queue_depth = 8;
};

/** L1 data cache configuration (per SM). */
struct L1dConfig
{
    int size_bytes = 24 * 1024;  ///< 24KB (Table 1)
    /** Transfer granularity: 64B sectors of the 128B line (GPGPU-Sim
     *  Maxwell-like caches are sectored; misses move sectors). */
    int line_bytes = 64;
    int assoc = 6;
    int num_mshrs = 128;         ///< per-SM MSHRs (Table 1)
    int mshr_merge = 8;          ///< max merged requests per MSHR
    int miss_queue_depth = 16;   ///< miss queue entries
    int hit_latency = 28;        ///< load-to-use latency on hit

    int numSets() const { return size_bytes / (line_bytes * assoc); }
};

/** Unified, address-partitioned L2 cache. */
struct L2Config
{
    int partition_bytes = 128 * 1024; ///< 128KB per partition (Table 1)
    int line_bytes = 64;              ///< sectored, as in L1
    int assoc = 16;
    int num_mshrs = 128;              ///< MSHRs per partition
    int miss_queue_depth = 32;        ///< input queue entries
    int latency = 30;                 ///< tag+data access latency

    int numSetsPerPartition() const
    {
        return partition_bytes / (line_bytes * assoc);
    }
};

/** Crossbar interconnect between SMs and L2 partitions. */
struct IcntConfig
{
    int flit_bytes = 32;        ///< Table 1: 32B flit
    int latency = 4;            ///< zero-load one-way latency (cycles)
    int input_queue_depth = 32; ///< per destination-port queue depth
};

/** Per-channel GDDR model with row-buffer locality. */
struct DramConfig
{
    int num_channels = 16;      ///< Table 1: 16 memory channels
    int banks_per_channel = 16;
    int row_bytes = 2048;
    /** Fixed access latency added to every request (core cycles). */
    int access_latency = 120;
    /** Data-burst occupancy of a 128B line on a row hit (core cycles).
     *  48B/cycle at 924MHz against a 1.4GHz core is ~2-4 core
     *  cycles; 2 keeps the per-channel bandwidth/SM ratio of the
     *  paper's 16-SM/16-channel baseline. */
    int row_hit_service = 1;
    /** Extra occupancy for precharge+activate on a row miss. */
    int row_miss_penalty = 6;
    /** FR-FCFS reordering window (queue entries scanned for row hits). */
    int frfcfs_window = 32;
    int queue_depth = 128;
};

/**
 * Simulation integrity layer knobs: periodic invariant sweeps and the
 * forward-progress watchdog. All checks stay active in release builds;
 * they are sized to cost well under 10% of simulation time.
 */
struct IntegrityConfig
{
    /** Periodic occupancy-bound / conservation sweeps. */
    bool periodic_checks = true;
    /** Cycles between watchdog polls and invariant sweeps. */
    int check_interval = 256;
    /** No-progress cycles before the watchdog raises (0 = disabled).
     *  Must stay well under 10k so injected deadlocks are caught
     *  within the detection budget. */
    int watchdog_timeout = 4096;
    /** Max extra drain cycles Gpu::audit() spends reaching
     *  quiescence before declaring a leak. */
    int audit_drain_limit = 100000;
};

/**
 * Complete GPU configuration. Defaults reproduce the paper's Table 1
 * baseline: 16 SMs at 1.4GHz, 4 GTO schedulers, 24KB 6-way L1D with
 * 128 MSHRs, 2048KB L2 in 128KB partitions, 16x16 crossbar, 16 DRAM
 * channels with FR-FCFS.
 */
struct GpuConfig
{
    int num_sms = 16;
    SmConfig sm;
    L1dConfig l1d;
    L2Config l2;
    IcntConfig icnt;
    DramConfig dram;
    IntegrityConfig integrity;

    /** Number of L2 partitions == number of DRAM channels. */
    int numL2Partitions() const { return dram.num_channels; }

    /** Global RNG seed for procedural workloads. */
    std::uint64_t seed = 0xc0ffee;

    /**
     * Reject nonsensical configurations with a structured SimError
     * (kind "ConfigError") naming the offending field, instead of
     * letting zero-depth queues or mismatched cache geometry corrupt
     * a run thousands of cycles in. Called by the Gpu constructor
     * and the experiment Runner.
     */
    void validate() const;
};

/**
 * Smaller configuration for fast unit tests and bench "quick" mode:
 * identical per-SM microarchitecture, fewer SMs / partitions.
 */
GpuConfig makeSmallConfig(int num_sms = 4, int num_channels = 4);

} // namespace ckesim

#endif // CKESIM_SIM_CONFIG_HPP

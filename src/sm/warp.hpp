/**
 * @file
 * Warp and thread-block runtime state inside an SM.
 */

#ifndef CKESIM_SM_WARP_HPP
#define CKESIM_SM_WARP_HPP

#include <array>
#include <cstdint>

#include "kernels/addrgen.hpp"
#include "kernels/instr_stream.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** Lifecycle of a warp slot. */
enum class WarpState {
    Invalid, ///< slot free
    Ready,   ///< can issue this cycle
    Busy,    ///< executing; ready again at ready_at
    WaitMem, ///< blocked on outstanding load requests
    Done,    ///< instruction budget exhausted; TB-exit pending
};

/** One warp's runtime state. */
struct Warp
{
    /** Most loads a warp can overlap (bounds the load ring below). */
    static constexpr int kMaxMlp = 8;

    WarpState state = WarpState::Invalid;
    KernelId kernel = kInvalidKernel;
    int tb_index = -1;       ///< index into the SM's TB table
    Cycle ready_at{};        ///< valid when Busy
    int pending_requests = 0;///< outstanding load line requests
    std::uint64_t age = 0;   ///< TB dispatch order (GTO "oldest")
    /** Cached stream facts (DESIGN.md §14): the per-cycle scheduler
     *  scans read these instead of touching the InstrStream's cache
     *  lines. Derived from `stream` — refreshed on reset/advance. */
    bool stream_done = false; ///< == stream.done()
    bool next_is_mem = false; ///< == isGlobalMem(stream.peek())
    InstrStream stream;
    AddrGenState addr;

    /** In-flight loads: per-load remaining request counts (FIFO ring;
     *  returns are attributed oldest-first). */
    std::array<int, kMaxMlp> load_ring{};
    int load_head = 0;
    int outstanding_loads = 0;

    void
    pushLoad(int requests)
    {
        load_ring[static_cast<std::size_t>(
            (load_head + outstanding_loads) % kMaxMlp)] = requests;
        ++outstanding_loads;
    }

    /** One request returned; true when the oldest load completed. */
    bool
    retireRequest()
    {
        --pending_requests;
        int &front = load_ring[static_cast<std::size_t>(load_head)];
        if (--front > 0)
            return false;
        load_head = (load_head + 1) % kMaxMlp;
        --outstanding_loads;
        return true;
    }

    /** Re-derive the cached stream facts after a stream mutation. */
    void
    refreshStreamCache()
    {
        stream_done = stream.done();
        next_is_mem = !stream_done && isGlobalMem(stream.peek());
    }

    /** Ready to issue at @p now (Busy warps auto-promote)? */
    bool
    issuableAt(Cycle now) const
    {
        return state == WarpState::Ready ||
               (state == WarpState::Busy && ready_at <= now);
    }
};

/** One resident thread block. */
struct ThreadBlock
{
    bool active = false;
    KernelId kernel = kInvalidKernel;
    std::uint64_t seq = 0;   ///< global dispatch sequence (seeds)
    int warps_left = 0;      ///< warps not yet Done
    int num_warps = 0;
};

} // namespace ckesim

#endif // CKESIM_SM_WARP_HPP

/**
 * @file
 * Procedural per-warp instruction stream.
 *
 * A warp alternates bursts of compute instructions (ALU / SFU /
 * shared-memory, mixed per the profile) with single global-memory
 * instructions; burst lengths are drawn around the profile's
 * `Cinst/Minst` so the long-run compute-to-memory ratio matches
 * Table 2 while phases still vary locally.
 */

#ifndef CKESIM_KERNELS_INSTR_STREAM_HPP
#define CKESIM_KERNELS_INSTR_STREAM_HPP

#include <cstdint>

#include "kernels/profile.hpp"
#include "sim/rng.hpp"

namespace ckesim {

/** Kinds of dynamic warp instructions the timing model distinguishes. */
enum class InstrKind {
    Alu,
    Sfu,
    Smem,     ///< shared-memory access (on-chip, never reaches L1D)
    MemLoad,  ///< global load (blocks the warp until data returns)
    MemStore, ///< global store (write-through, non-blocking)
};

inline bool
isGlobalMem(InstrKind k)
{
    return k == InstrKind::MemLoad || k == InstrKind::MemStore;
}

/** Generates one warp's instruction sequence for one thread block. */
class InstrStream
{
  public:
    InstrStream() = default;

    /** (Re)start the stream for a new thread block. */
    void reset(const KernelProfile &prof, std::uint64_t seed);

    /** True when the warp has executed its TB's instruction budget. */
    bool done() const { return executed_ >= budget_; }

    /** Kind of the next instruction. @pre !done() */
    InstrKind peek() const { return next_kind_; }

    /** Consume the next instruction and pre-compute the following. */
    InstrKind advance();

    int executed() const { return executed_; }

  private:
    void computeNext();
    int drawBurst();

    const KernelProfile *prof_ = nullptr;
    Rng rng_{1};
    int budget_ = 0;
    int executed_ = 0;
    int burst_left_ = 0;
    InstrKind next_kind_ = InstrKind::Alu;
};

} // namespace ckesim

#endif // CKESIM_KERNELS_INSTR_STREAM_HPP

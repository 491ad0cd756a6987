/**
 * @file
 * Fundamental scalar types shared across the simulator, as *strong*
 * types.
 *
 * Every mechanism the paper builds (QBMI quotas, MILG limits,
 * reservation-failure accounting) is indexed per kernel, per SM and
 * per warp slot; an ID swap or a byte-address/line-address mix-up
 * would compile silently as plain ints and corrupt per-kernel
 * attribution. The wrappers below make such mix-ups compile errors
 * while remaining zero-overhead: they hold exactly one scalar, every
 * operation is constexpr and inline, and results are bit-identical to
 * the raw-integer code they replaced.
 *
 * Taxonomy (see DESIGN.md section 10):
 *  - StrongId<Tag>: a *name* (KernelId, SmId, WarpSlot). Explicitly
 *    constructed, equality-comparable, ordered, hashable, streamable;
 *    no arithmetic — adding two kernel ids is meaningless. idx()
 *    converts to a container index, next() yields the successor for
 *    iteration.
 *  - StrongUnit<Tag>: a *quantity* (Cycle, Addr, LineAddr). Closed
 *    under + and - with its own kind and with raw integral offsets;
 *    ratio and modulus of two like quantities return a raw count.
 *    Cross-unit arithmetic (Cycle + Addr, Addr vs LineAddr) does not
 *    compile.
 */

#ifndef CKESIM_SIM_TYPES_HPP
#define CKESIM_SIM_TYPES_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <type_traits>

namespace ckesim {

/**
 * Nominal identifier: a name drawn from a per-Tag namespace.
 *
 * Default-constructed ids are the tag's invalid sentinel (rep -1),
 * so "no kernel" / "no SM" / "no warp slot" need no parallel flag.
 */
template <class Tag, class Rep = std::int32_t>
class StrongId
{
  public:
    using rep_type = Rep;

    constexpr StrongId() = default;

    template <class I,
              class = std::enable_if_t<std::is_integral_v<I>>>
    constexpr explicit StrongId(I v) : v_(static_cast<Rep>(v))
    {
    }

    /** Raw value (diagnostics, serialization). */
    constexpr Rep get() const { return v_; }

    /** Container index. @pre valid() */
    constexpr std::size_t idx() const
    {
        return static_cast<std::size_t>(v_);
    }

    /** Not the invalid sentinel? */
    constexpr bool valid() const { return v_ >= 0; }

    /** Successor id (ordinal iteration over dense id ranges). */
    constexpr StrongId next() const { return StrongId(v_ + 1); }

    constexpr StrongId &
    operator++()
    {
        ++v_;
        return *this;
    }

    friend constexpr bool operator==(StrongId a, StrongId b)
    {
        return a.v_ == b.v_;
    }
    friend constexpr bool operator!=(StrongId a, StrongId b)
    {
        return a.v_ != b.v_;
    }
    friend constexpr bool operator<(StrongId a, StrongId b)
    {
        return a.v_ < b.v_;
    }
    friend constexpr bool operator<=(StrongId a, StrongId b)
    {
        return a.v_ <= b.v_;
    }
    friend constexpr bool operator>(StrongId a, StrongId b)
    {
        return a.v_ > b.v_;
    }
    friend constexpr bool operator>=(StrongId a, StrongId b)
    {
        return a.v_ >= b.v_;
    }

    friend std::ostream &
    operator<<(std::ostream &os, StrongId id)
    {
        return os << id.v_;
    }

  private:
    Rep v_ = Rep{-1};
};

/**
 * Dimensioned scalar quantity. Same-kind sums/differences stay in the
 * unit; integral offsets shift it; the ratio or modulus of two like
 * quantities is a dimensionless raw count.
 */
template <class Tag, class Rep = std::uint64_t>
class StrongUnit
{
  public:
    using rep_type = Rep;

    constexpr StrongUnit() = default;

    template <class I,
              class = std::enable_if_t<std::is_integral_v<I>>>
    constexpr explicit StrongUnit(I v) : v_(static_cast<Rep>(v))
    {
    }

    /** Raw value (ratios against other dimensions, formatting). */
    constexpr Rep get() const { return v_; }

    static constexpr StrongUnit
    max()
    {
        return StrongUnit(std::numeric_limits<Rep>::max());
    }

    // ---- same-unit arithmetic -------------------------------------
    friend constexpr StrongUnit operator+(StrongUnit a, StrongUnit b)
    {
        return StrongUnit(a.v_ + b.v_);
    }
    friend constexpr StrongUnit operator-(StrongUnit a, StrongUnit b)
    {
        return StrongUnit(a.v_ - b.v_);
    }
    /** Ratio of like quantities: dimensionless. */
    friend constexpr Rep operator/(StrongUnit a, StrongUnit b)
    {
        return a.v_ / b.v_;
    }
    /** Remainder against a like quantity: dimensionless. */
    friend constexpr Rep operator%(StrongUnit a, StrongUnit b)
    {
        return a.v_ % b.v_;
    }

    // ---- integral offsets -----------------------------------------
    template <class I,
              class = std::enable_if_t<std::is_integral_v<I>>>
    constexpr StrongUnit
    operator+(I d) const
    {
        return StrongUnit(v_ + static_cast<Rep>(d));
    }
    template <class I,
              class = std::enable_if_t<std::is_integral_v<I>>>
    constexpr StrongUnit
    operator-(I d) const
    {
        return StrongUnit(v_ - static_cast<Rep>(d));
    }
    template <class I,
              class = std::enable_if_t<std::is_integral_v<I>>>
    constexpr Rep
    operator%(I d) const
    {
        return v_ % static_cast<Rep>(d);
    }
    template <class I,
              class = std::enable_if_t<std::is_integral_v<I>>>
    constexpr Rep
    operator/(I d) const
    {
        return v_ / static_cast<Rep>(d);
    }

    constexpr StrongUnit &
    operator+=(StrongUnit o)
    {
        v_ += o.v_;
        return *this;
    }
    template <class I,
              class = std::enable_if_t<std::is_integral_v<I>>>
    constexpr StrongUnit &
    operator+=(I d)
    {
        v_ += static_cast<Rep>(d);
        return *this;
    }
    constexpr StrongUnit &
    operator++()
    {
        ++v_;
        return *this;
    }

    friend constexpr bool operator==(StrongUnit a, StrongUnit b)
    {
        return a.v_ == b.v_;
    }
    friend constexpr bool operator!=(StrongUnit a, StrongUnit b)
    {
        return a.v_ != b.v_;
    }
    friend constexpr bool operator<(StrongUnit a, StrongUnit b)
    {
        return a.v_ < b.v_;
    }
    friend constexpr bool operator<=(StrongUnit a, StrongUnit b)
    {
        return a.v_ <= b.v_;
    }
    friend constexpr bool operator>(StrongUnit a, StrongUnit b)
    {
        return a.v_ > b.v_;
    }
    friend constexpr bool operator>=(StrongUnit a, StrongUnit b)
    {
        return a.v_ >= b.v_;
    }

    friend std::ostream &
    operator<<(std::ostream &os, StrongUnit u)
    {
        return os << u.v_;
    }

  private:
    Rep v_ = Rep{0};
};

// ---- the simulator's concrete types -------------------------------

/** Simulation time, in GPU core clock cycles. */
using Cycle = StrongUnit<struct CycleTag>;

/** Byte address in the (synthetic) global memory space. */
using Addr = StrongUnit<struct AddrTag>;

/**
 * Line-granular address (the byte address divided by the line size):
 * the currency of the whole memory path — generated accesses, L1D/L2
 * tag arrays, MSHR keys, DRAM bank/row mapping, MemRequest routing.
 * Minted by the line-level address generator (kernels/addrgen), which
 * has no byte addresses, or from a byte Addr only through
 * mem/address.hpp (toLineAddr); mixing it up with a byte Addr no
 * longer compiles.
 */
using LineAddr = StrongUnit<struct LineAddrTag>;

/** Index of a kernel inside a concurrent workload (0-based). */
using KernelId = StrongId<struct KernelIdTag>;

/** Index of a streaming multiprocessor (0-based). */
using SmId = StrongId<struct SmIdTag>;

/** A warp's slot in its SM's warp table (0-based). */
using WarpSlot = StrongId<struct WarpSlotTag>;

/** Sentinel for "no kernel". */
inline constexpr KernelId kInvalidKernel{};

/** Sentinel for "no SM" (standalone components, diagnostics). */
inline constexpr SmId kInvalidSm{};

/** Sentinel for "no warp slot". */
inline constexpr WarpSlot kInvalidWarpSlot{};

/** Sentinel cycle meaning "never". */
inline constexpr Cycle kNeverCycle = Cycle::max();

/** Maximum number of kernels that may share one SM. */
inline constexpr int kMaxKernelsPerSm = 4;

/**
 * Record format version of the results journal (metrics/journal),
 * encoded with the sim/snapshot.hpp codec. Bump on ANY change to what
 * a journal record holds or how: adding/removing/reordering a field,
 * changing a type tag. Loading refuses a journal of another version
 * outright — there is no cross-version migration; results are cheap
 * to recompute, silent misdecodes are not. Bumping it makes every
 * existing journal foreign.
 */
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

} // namespace ckesim

// ---- hashing ------------------------------------------------------

template <class Tag, class Rep>
struct std::hash<ckesim::StrongId<Tag, Rep>>
{
    std::size_t
    operator()(ckesim::StrongId<Tag, Rep> id) const noexcept
    {
        return std::hash<Rep>{}(id.get());
    }
};

template <class Tag, class Rep>
struct std::hash<ckesim::StrongUnit<Tag, Rep>>
{
    std::size_t
    operator()(ckesim::StrongUnit<Tag, Rep> u) const noexcept
    {
        return std::hash<Rep>{}(u.get());
    }
};

#endif // CKESIM_SIM_TYPES_HPP

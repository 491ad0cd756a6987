/**
 * @file
 * Generic set-associative tag array with allocate-on-miss reservation,
 * true-LRU replacement and optional per-kernel way masks (used by the
 * UCP cache-partitioning baseline of Section 3.1).
 *
 * The array stores tags and state only; it is untimed. Timing (hit
 * latency, miss path, reservation-failure retry) lives in the L1D
 * front-end and the L2 partition models that own a CacheArray.
 *
 * Tags live in their own contiguous array, apart from the per-way
 * state, so a probe compares assoc() adjacent 8-byte words. A way with
 * no line holds the kNoLine sentinel tag; "valid" is derived (a tag is
 * present and the way is not reserved), never stored.
 */

#ifndef CKESIM_MEM_CACHE_HPP
#define CKESIM_MEM_CACHE_HPP

#include <cstdint>
#include <vector>

#include "mem/address.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** State of one cache way, apart from its tag. */
struct CacheLine
{
    bool reserved = false; ///< allocated on miss, fill pending
    bool dirty = false;    ///< WBWA caches only
    KernelId owner = kInvalidKernel; ///< kernel that installed the line
    std::uint64_t lru = 0; ///< last-touch timestamp
};

/** Result of a victim-selection attempt. */
struct VictimResult
{
    bool ok = false;        ///< false: every candidate way is reserved
    int way = -1;
    bool evicted_dirty = false;
    LineAddr evicted_line{}; ///< valid when evicted_dirty
};

/**
 * Set-associative tag array.
 *
 * Way masks: restrictToWays(kernel, first, count) constrains victim
 * selection for @p kernel to ways [first, first+count). Lookups always
 * probe all ways (UCP partitions allocation, not visibility).
 */
class CacheArray
{
  public:
    /**
     * @param num_sets number of sets (power of two)
     * @param assoc ways per set
     */
    CacheArray(int num_sets, int assoc);

    int numSets() const { return num_sets_; }
    int assoc() const { return assoc_; }

    /** Set index for a line address (xor indexing). */
    int setIndex(LineAddr line) const
    {
        return xorSetIndex(line, num_sets_);
    }

    /** Tag of a way that holds no line; never a valid line address. */
    static constexpr LineAddr kNoLine = LineAddr::max();

    /** Probe for @p line (valid or reserved). @return way index or -1. */
    int probe(LineAddr line) const;

    /** Direct access to a way's state. */
    CacheLine &line(int set, int way) { return sets_[idx(set, way)]; }
    const CacheLine &line(int set, int way) const
    {
        return sets_[idx(set, way)];
    }

    /** True when the way holds a filled line (present, not reserved). */
    bool valid(int set, int way) const { return validAt(idx(set, way)); }

    /** Mark a hit: refresh LRU stamp. */
    void touch(int set, int way);

    /**
     * Pick a victim way for @p kernel in the set of @p line_number.
     * Prefers an empty way, else the LRU non-reserved way among the
     * ways allowed for the kernel. Fails (ok=false) when every
     * candidate way is reserved — the paper's "no allocatable cache
     * line slot" reservation-failure source.
     */
    VictimResult chooseVictim(LineAddr line, KernelId kernel);

    /** Reserve a way for an in-flight fill (allocate-on-miss).
     *  @p line must not be kNoLine. */
    void reserve(int set, int way, LineAddr line, KernelId kernel);

    /** Complete a reserved fill, making the line valid. */
    void fill(int set, int way, bool dirty = false);

    /** Install a line immediately (valid, not reserved).
     *  @p line must not be kNoLine. */
    void install(int set, int way, LineAddr line, KernelId kernel,
                 bool dirty);

    /** Invalidate a line (write-evict policy). */
    void invalidate(int set, int way);

    /**
     * Restrict victim selection for @p kernel to @p count ways starting
     * at @p first. Pass count == assoc() to reset to unrestricted.
     */
    void restrictToWays(KernelId kernel, int first, int count);

    /** Remove all way restrictions. */
    void clearWayRestrictions();

    /** Number of valid lines currently owned by @p kernel. */
    int occupancyOf(KernelId kernel) const;

  private:
    std::size_t idx(int set, int way) const
    {
        return static_cast<std::size_t>(set) *
                   static_cast<std::size_t>(assoc_) +
               static_cast<std::size_t>(way);
    }

    bool validAt(std::size_t i) const
    {
        return tags_[i] != kNoLine && !sets_[i].reserved;
    }

    bool wayAllowed(KernelId kernel, int way) const;

    int num_sets_;
    int assoc_;
    std::vector<LineAddr> tags_;  ///< indexed like sets_; kNoLine = empty
    std::vector<CacheLine> sets_;
    std::uint64_t tick_ = 0;

    struct WayRange { int first = 0; int count = 0; };
    /** Indexed by kernel id; count==0 means unrestricted. */
    std::vector<WayRange> restrictions_;
};

} // namespace ckesim

#endif // CKESIM_MEM_CACHE_HPP

/**
 * @file
 * Miss Status Handling Register (MSHR) table.
 *
 * An MSHR tracks one outstanding line miss and the requests merged into
 * it. MSHRs are the paper's most commonly saturated cache-miss-related
 * resource: when the table (or an entry's merge list) is full, the
 * access suffers a reservation failure and the memory pipeline stalls.
 *
 * The table is the hottest lookup in the memory pipeline (every L1/L2
 * access probes it, often more than once), so it is stored as a flat
 * open-addressing hash table: one contiguous slot array, linear
 * probing with a deterministic multiply-shift hash, and backward-shift
 * deletion (no tombstones). Retired slots keep their merge-list
 * allocation, so the steady state allocates nothing. See DESIGN.md §14.
 */

#ifndef CKESIM_MEM_MSHR_HPP
#define CKESIM_MEM_MSHR_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/types.hpp"

namespace ckesim {

/**
 * MSHR table keyed by line number. @tparam Target is the per-merged-
 * request bookkeeping returned to the owner when the fill arrives.
 */
template <typename Target>
class MshrTable
{
  public:
    /** Outcome of a single-probe tryMerge(). */
    enum class MergeResult {
        NoEntry, ///< no outstanding miss for this line
        Full,    ///< entry exists but its merge list is full
        Merged,  ///< target appended to the outstanding miss
    };

    /**
     * @param num_entries table capacity (Table 1: 128 per SM/partition)
     * @param max_merge maximum requests merged into one entry
     */
    MshrTable(int num_entries, int max_merge)
        : capacity_(num_entries), max_merge_(max_merge)
    {
        // 2x headroom keeps linear-probe chains short at full
        // occupancy; the slot count is a power of two for mask math.
        std::size_t want =
            static_cast<std::size_t>(num_entries > 0 ? num_entries : 1)
            * 2;
        std::size_t n = 8;
        int log2n = 3;
        while (n < want) {
            n <<= 1;
            ++log2n;
        }
        slots_.resize(n);
        mask_ = n - 1;
        shift_ = 64 - log2n;
    }

    /** Is a miss for this line already outstanding? */
    bool
    pending(LineAddr line_number) const
    {
        return findSlot(line_number) != kNoSlot;
    }

    /** Can a new request for this (pending) line merge? */
    bool
    canMerge(LineAddr line_number) const
    {
        const std::size_t i = findSlot(line_number);
        SIM_CHECK(i != kNoSlot, ctx_,
                  "canMerge on line " << line_number
                                      << " with no outstanding miss");
        return static_cast<int>(slots_[i].targets.size()) < max_merge_;
    }

    /** Is there room for a brand-new entry? */
    bool hasFree() const { return size_ < capacity_; }

    /** Allocate a new entry for @p line_number with one target. */
    void
    allocate(LineAddr line_number, Target target)
    {
        SIM_CHECK(hasFree(), ctx_,
                  "MSHR allocate with table full ("
                      << capacity_ << " entries)");
        std::size_t i = homeOf(line_number);
        while (slots_[i].used) {
            SIM_CHECK(slots_[i].line != line_number, ctx_,
                      "duplicate MSHR allocation for line "
                          << line_number);
            i = (i + 1) & mask_;
        }
        Slot &s = slots_[i];
        s.line = line_number;
        s.used = true;
        s.targets.clear(); // retains merge-list capacity
        s.targets.push_back(std::move(target));
        ++size_;
        ++allocated_;
    }

    /** Merge another request into an existing entry. */
    void
    merge(LineAddr line_number, Target target)
    {
        const std::size_t i = findSlot(line_number);
        SIM_CHECK(i != kNoSlot, ctx_,
                  "merge into line " << line_number
                                     << " with no outstanding miss");
        SIM_CHECK(static_cast<int>(slots_[i].targets.size()) <
                      max_merge_,
                  ctx_,
                  "merge list overflow on line "
                      << line_number << " (max " << max_merge_ << ")");
        slots_[i].targets.push_back(std::move(target));
    }

    /**
     * Single-probe pending/canMerge/merge: append @p target to the
     * outstanding miss for @p line_number if one exists and has merge
     * room. The hot L1/L2 access paths use this instead of three
     * separate lookups.
     */
    MergeResult
    tryMerge(LineAddr line_number, Target target)
    {
        const std::size_t i = findSlot(line_number);
        if (i == kNoSlot)
            return MergeResult::NoEntry;
        if (static_cast<int>(slots_[i].targets.size()) >= max_merge_)
            return MergeResult::Full;
        slots_[i].targets.push_back(std::move(target));
        return MergeResult::Merged;
    }

    /**
     * Retire the entry on fill, returning all merged targets.
     * @pre an entry for @p line_number exists.
     */
    std::vector<Target>
    release(LineAddr line_number)
    {
        std::vector<Target> out;
        releaseInto(line_number, out);
        return out;
    }

    /**
     * Allocation-free release: copy the merged targets into @p out
     * (cleared first) and retire the entry. The entry's merge list
     * keeps its capacity for the next allocation in its slot.
     */
    void
    releaseInto(LineAddr line_number, std::vector<Target> &out)
    {
        const std::size_t i = findSlot(line_number);
        SIM_CHECK(i != kNoSlot, ctx_,
                  "fill for line " << line_number
                                   << " with no outstanding miss "
                                      "(dropped or duplicated fill)");
        out.clear();
        for (Target &t : slots_[i].targets)
            out.push_back(std::move(t));
        slots_[i].targets.clear();
        eraseSlot(i);
        --size_;
        ++released_;
    }

    /**
     * First merged target of the outstanding miss for @p line_number
     * — the allocating request's bookkeeping (allocate() always
     * seeds the merge list with it). @pre an entry exists.
     */
    const Target &
    firstTarget(LineAddr line_number) const
    {
        const std::size_t i = findSlot(line_number);
        SIM_CHECK(i != kNoSlot, ctx_,
                  "firstTarget on line " << line_number
                                         << " with no outstanding miss");
        return slots_[i].targets.front();
    }

    /** Visit every outstanding entry (unspecified order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.used)
                fn(s.line, s.targets);
    }

    int size() const { return size_; }
    int capacity() const { return capacity_; }
    int maxMerge() const { return max_merge_; }
    bool empty() const { return size_ == 0; }

    // ---- integrity layer ------------------------------------------------
    /** Attach failure context (owner's SM/module identity). */
    void setCheckContext(const SimCtx &ctx) { ctx_ = ctx; }

    /** Lifetime allocation / release totals (conservation ledger). */
    std::uint64_t totalAllocated() const { return allocated_; }
    std::uint64_t totalReleased() const { return released_; }

    /** Alloc/free balance: outstanding entries match the ledger. */
    void
    checkBalance(const SimCtx &ctx) const
    {
        SIM_INVARIANT(released_ <= allocated_, ctx,
                      "MSHR released " << released_
                                       << " exceeds allocated "
                                       << allocated_);
        SIM_INVARIANT(allocated_ - released_ ==
                          static_cast<std::uint64_t>(size_),
                      ctx,
                      "MSHR ledger imbalance: allocated="
                          << allocated_ << " released=" << released_
                          << " outstanding=" << size_);
        SIM_INVARIANT(size_ <= capacity_, ctx,
                      "MSHR occupancy " << size_
                                        << " exceeds capacity "
                                        << capacity_);
    }

  private:
    struct Slot
    {
        LineAddr line{};
        std::vector<Target> targets;
        bool used = false;
    };

    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /** Deterministic multiply-shift hash: host-independent. */
    std::size_t
    homeOf(LineAddr line) const
    {
        const std::uint64_t h =
            static_cast<std::uint64_t>(line.get()) *
            0x9E3779B97F4A7C15ULL;
        return static_cast<std::size_t>(h >> shift_);
    }

    std::size_t
    findSlot(LineAddr line) const
    {
        std::size_t i = homeOf(line);
        while (slots_[i].used) {
            if (slots_[i].line == line)
                return i;
            i = (i + 1) & mask_;
        }
        return kNoSlot;
    }

    /**
     * Backward-shift deletion: close the hole at @p hole by sliding
     * back any later chain member that hashes at or before it, so
     * lookups never need tombstones.
     */
    void
    eraseSlot(std::size_t hole)
    {
        std::size_t j = hole;
        while (true) {
            j = (j + 1) & mask_;
            if (!slots_[j].used)
                break;
            const std::size_t home = homeOf(slots_[j].line);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole].line = slots_[j].line;
                // Swap keeps both merge lists' capacity alive.
                std::swap(slots_[hole].targets, slots_[j].targets);
                slots_[hole].used = true;
                slots_[j].targets.clear();
                hole = j;
            }
        }
        slots_[hole].used = false;
        slots_[hole].targets.clear();
    }

    int capacity_;
    int max_merge_;
    std::vector<Slot> slots_; ///< open-addressing flat table
    std::size_t mask_ = 0;
    int shift_ = 0;
    int size_ = 0;            ///< outstanding entries
    std::uint64_t allocated_ = 0;
    std::uint64_t released_ = 0;
    SimCtx ctx_;
};

} // namespace ckesim

#endif // CKESIM_MEM_MSHR_HPP

/**
 * @file
 * Fixed-interval event sampler for the paper's time-series figures
 * (Figure 6: L1D accesses per 1K cycles; Figure 8: warp instructions
 * issued per 1K cycles).
 */

#ifndef CKESIM_SIM_TIME_SERIES_HPP
#define CKESIM_SIM_TIME_SERIES_HPP

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace ckesim {

/**
 * Accumulates event counts into equal-width cycle bins.
 * record(cycle) increments the bin containing @p cycle; bins are
 * materialized lazily so sparse recording stays cheap.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(Cycle interval = Cycle{1000}) : interval_(interval) {}

    /** Record @p count events at time @p cycle. */
    void
    record(Cycle cycle, std::uint64_t count = 1)
    {
        const std::size_t bin = static_cast<std::size_t>(cycle / interval_);
        if (bin >= bins_.size())
            bins_.resize(bin + 1, 0);
        bins_[bin] += count;
    }

    /** Bin width in cycles. */
    Cycle interval() const { return interval_; }

    /** All bins, index i covering [i*interval, (i+1)*interval). */
    const std::vector<std::uint64_t> &bins() const { return bins_; }

    /** Count in bin @p i (0 if never touched). */
    std::uint64_t
    binCount(std::size_t i) const
    {
        return i < bins_.size() ? bins_[i] : 0;
    }

    /** Mean events per bin over bins [first, last). */
    double meanOver(std::size_t first, std::size_t last) const;

    void clear() { bins_.clear(); }

    /** Replace all bins verbatim (journal load). */
    void setBins(std::vector<std::uint64_t> bins) { bins_ = std::move(bins); }

  private:
    Cycle interval_;
    std::vector<std::uint64_t> bins_;
};

} // namespace ckesim

#endif // CKESIM_SIM_TIME_SERIES_HPP

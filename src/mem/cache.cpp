#include "mem/cache.hpp"

#include "sim/check.hpp"

namespace ckesim {

namespace {
SimCtx
cacheCtx(KernelId kernel = kInvalidKernel)
{
    SimCtx ctx;
    ctx.kernel = kernel;
    ctx.module = "cache";
    return ctx;
}
} // namespace

CacheArray::CacheArray(int num_sets, int assoc)
    : num_sets_(num_sets), assoc_(assoc),
      tags_(static_cast<std::size_t>(num_sets) *
                static_cast<std::size_t>(assoc),
            kNoLine),
      sets_(tags_.size())
{
    SIM_CHECK(num_sets > 0 && (num_sets & (num_sets - 1)) == 0,
              cacheCtx(),
              "num_sets " << num_sets << " is not a power of two");
    SIM_CHECK(assoc > 0, cacheCtx(),
              "non-positive associativity " << assoc);
}

int
CacheArray::probe(LineAddr la) const
{
    if (la == kNoLine)
        return -1;
    const LineAddr *tags = &tags_[idx(setIndex(la), 0)];
    for (int w = 0; w < assoc_; ++w)
        if (tags[w] == la)
            return w;
    return -1;
}

void
CacheArray::touch(int set, int way)
{
    line(set, way).lru = ++tick_;
}

bool
CacheArray::wayAllowed(KernelId kernel, int way) const
{
    if (!kernel.valid() || kernel.idx() >= restrictions_.size())
        return true;
    const WayRange &r = restrictions_[kernel.idx()];
    if (r.count == 0)
        return true;
    return way >= r.first && way < r.first + r.count;
}

VictimResult
CacheArray::chooseVictim(LineAddr la, KernelId kernel)
{
    const int set = setIndex(la);
    VictimResult res;

    // Prefer an empty (and allowed) way.
    const LineAddr *tags = &tags_[idx(set, 0)];
    for (int w = 0; w < assoc_; ++w) {
        if (tags[w] == kNoLine && wayAllowed(kernel, w)) {
            res.ok = true;
            res.way = w;
            return res;
        }
    }

    // Otherwise the LRU valid, non-reserved, allowed way.
    int best = -1;
    std::uint64_t best_lru = 0;
    for (int w = 0; w < assoc_; ++w) {
        const CacheLine &l = line(set, w);
        if (l.reserved || !wayAllowed(kernel, w))
            continue;
        if (best < 0 || l.lru < best_lru) {
            best = w;
            best_lru = l.lru;
        }
    }
    if (best < 0)
        return res; // every candidate is reserved: reservation failure

    res.ok = true;
    res.way = best;
    if (valid(set, best) && line(set, best).dirty) {
        res.evicted_dirty = true;
        res.evicted_line = tags[best];
    }
    return res;
}

void
CacheArray::reserve(int set, int way, LineAddr la, KernelId kernel)
{
    SIM_CHECK(la != kNoLine, cacheCtx(kernel),
              "reserve of the empty-tag sentinel (set " << set << " way "
                                                       << way << ")");
    tags_[idx(set, way)] = la;
    CacheLine &l = line(set, way);
    l.reserved = true;
    l.dirty = false;
    l.owner = kernel;
    l.lru = ++tick_;
}

void
CacheArray::fill(int set, int way, bool dirty)
{
    CacheLine &l = line(set, way);
    SIM_INVARIANT(l.reserved, cacheCtx(l.owner),
                  "fill on a non-reserved line (set " << set << " way "
                                                      << way << ")");
    l.reserved = false;
    l.dirty = dirty;
    l.lru = ++tick_;
}

void
CacheArray::install(int set, int way, LineAddr la, KernelId kernel,
                    bool dirty)
{
    SIM_CHECK(la != kNoLine, cacheCtx(kernel),
              "install of the empty-tag sentinel (set " << set << " way "
                                                       << way << ")");
    tags_[idx(set, way)] = la;
    CacheLine &l = line(set, way);
    l.reserved = false;
    l.dirty = dirty;
    l.owner = kernel;
    l.lru = ++tick_;
}

void
CacheArray::invalidate(int set, int way)
{
    tags_[idx(set, way)] = kNoLine;
    CacheLine &l = line(set, way);
    l.reserved = false;
    l.dirty = false;
}

void
CacheArray::restrictToWays(KernelId kernel, int first, int count)
{
    SIM_CHECK(kernel.valid(), cacheCtx(kernel),
              "way restriction for invalid kernel");
    SIM_CHECK(first >= 0 && count >= 0 && first + count <= assoc_,
              cacheCtx(kernel),
              "way range [" << first << ", " << first + count
                            << ") exceeds associativity " << assoc_);
    if (kernel.idx() >= restrictions_.size())
        restrictions_.resize(kernel.idx() + 1);
    if (count >= assoc_) {
        restrictions_[kernel.idx()] = WayRange{};
    } else {
        restrictions_[kernel.idx()] = WayRange{first, count};
    }
}

void
CacheArray::clearWayRestrictions()
{
    restrictions_.clear();
}

int
CacheArray::occupancyOf(KernelId kernel) const
{
    int n = 0;
    for (std::size_t i = 0; i < sets_.size(); ++i)
        if (validAt(i) && sets_[i].owner == kernel)
            ++n;
    return n;
}

} // namespace ckesim

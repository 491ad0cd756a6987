// simcheck golden fixture: clean control.
// Exercises every construct the four rules look at, written the way
// the contracts demand — a full-rule simcheck run over this file
// must report zero findings (including zero unused-waiver findings:
// the one SIMCHECK-ALLOW below genuinely suppresses a hit).
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

using Cycle = unsigned long long;

class SnapshotWriter
{
  public:
    void u64(unsigned long long v);
};

class SnapshotReader
{
  public:
    unsigned long long u64();
};

class Pipeline
{
  public:
    void tick(Cycle now);

    void snapshot(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

    unsigned long long population() const
    {
        unsigned long long n = 0;
        // Pure commutative reduction over an unordered container —
        // order-independent by construction.
        // SIMCHECK-ALLOW(determinism-hazard): counting members is commutative; no ordered effect escapes the loop
        for (const int id : members_)
            n += static_cast<unsigned long long>(id) * 0 + 1;
        return n;
    }

  private:
    void snapshotLanes(SnapshotWriter &w) const;
    void restoreLanes(SnapshotReader &r);

    unsigned long long head_ = 0;
    unsigned long long lanes_ = 0;
    int capacity_ = 0; // SNAPSHOT-SKIP(fixed at construction)
    std::unordered_set<int> members_; // SNAPSHOT-SKIP(membership cache, rebuilt on restore)
    std::map<int, unsigned long long> by_id_;
};

void
Pipeline::snapshot(SnapshotWriter &w) const
{
    w.u64(head_);
    snapshotLanes(w);
    w.u64(by_id_.size());
    for (const auto &kv : by_id_)
        w.u64(kv.second);
}

void
Pipeline::restore(SnapshotReader &r)
{
    head_ = r.u64();
    restoreLanes(r);
    const unsigned long long n = r.u64();
    for (unsigned long long i = 0; i < n; ++i)
        by_id_[static_cast<int>(i)] = r.u64();
}

// Helper indirection: lanes_ is serialized here, two calls deep from
// the snapshot entry points — coverage must see through it.
void
Pipeline::snapshotLanes(SnapshotWriter &w) const
{
    w.u64(lanes_);
}

void
Pipeline::restoreLanes(SnapshotReader &r)
{
    lanes_ = r.u64();
}

// simcheck golden fixture: clean control.
// Exercises the constructs the three rules look at, written the way
// the contracts demand — a full-rule simcheck run over this file
// must report zero findings (including zero unused-waiver findings:
// the one SIMCHECK-ALLOW below genuinely suppresses a hit).
#include <map>
#include <unordered_set>

using Cycle = unsigned long long;

class Pipeline
{
  public:
    explicit Pipeline(int capacity) : capacity_(capacity) {}

    void tick(Cycle now);

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

    unsigned long long
    checksum() const
    {
        // Ordered container: iteration order is the key order.
        unsigned long long h = head_ ^ lanes_;
        for (const auto &kv : by_id_)
            h = h * 31 + kv.second;
        return h;
    }

  private:
    unsigned long long head_ = 0;
    unsigned long long lanes_ = 0;
    int capacity_; // covered by the only constructor's init list
    std::unordered_set<int> members_;
    std::map<int, unsigned long long> by_id_;
};

// A scope guard with a deleted copy constructor. A deleted
// constructor never runs, so it need not initialize prof_.
class Scope
{
  public:
    explicit Scope(int *prof) : prof_(prof) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int *prof_;
};

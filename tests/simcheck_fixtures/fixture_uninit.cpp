// simcheck golden fixture: uninit-member.
// A class with one scalar field that neither has an in-class
// initializer nor is covered by every constructor's init list: an
// object built by the one-argument constructor starts with that field
// holding construction garbage, so two runs of the same simulation
// can diverge from their first cycle.
class Counter
{
  public:
    Counter() : ticks_(0), stall_count_(0) {}
    explicit Counter(int start) : ticks_(start) {}

  private:
    unsigned long long ticks_; // covered by both ctor init lists
    int stall_count_; // EXPECT[uninit-member]
    double util_ = 0.0; // in-class initializer
};

#include "sm/scheduler.hpp"

namespace ckesim {

WarpScheduler::WarpScheduler(int id, int num_schedulers, int max_warps,
                             SchedPolicy policy)
    : id_(id), stride_(num_schedulers),
      num_slots_(max_warps > id
                     ? (max_warps - id + num_schedulers - 1) /
                           num_schedulers
                     : 0),
      policy_(policy)
{
}

} // namespace ckesim

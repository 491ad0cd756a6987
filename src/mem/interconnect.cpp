#include "mem/interconnect.hpp"

#include "sim/check.hpp"

namespace ckesim {

Crossbar::Crossbar(int num_dests, const IcntConfig &cfg)
    : cfg_(cfg), ports_(static_cast<std::size_t>(num_dests))
{
    for (Port &port : ports_)
        port.queue.reset(cfg.input_queue_depth);
}

bool
Crossbar::tryInject(int dest, int flits, const MemRequest &req, Cycle now)
{
    Port &port = ports_[static_cast<std::size_t>(dest)];
    if (static_cast<int>(port.queue.size()) >= cfg_.input_queue_depth)
        return false;

    const Cycle start =
        std::max<Cycle>(port.next_free, now + cfg_.latency);
    const Cycle ready = start + flits;
    port.next_free = ready;
    port.queue.push_back(Packet{ready, req});
    return true;
}

void
Crossbar::drain(int dest, Cycle now, int max_count,
                std::vector<MemRequest> &out)
{
    Port &port = ports_[static_cast<std::size_t>(dest)];
    int popped = 0;
    while (!port.queue.empty() && popped < max_count &&
           port.queue.front().ready <= now) {
        out.push_back(port.queue.front().req);
        port.queue.pop_front();
        ++popped;
    }
}

} // namespace ckesim

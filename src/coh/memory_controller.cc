#include "coh/memory_controller.hh"

#include "common/logging.hh"

namespace inpg {

MemoryController::MemoryController(int mc_id, Simulator &simulator,
                                   Cycle access_latency,
                                   Cycle service_interval)
    : stats("mc", mc_id), mcId(mc_id), sim(simulator),
      latency(access_latency), serviceInterval(service_interval)
{
}

void
MemoryController::fetch(Addr addr, std::function<void()> done)
{
    (void)addr;
    ++stats.counter("fetches");
    // Bandwidth model: requests start at most every serviceInterval
    // cycles; each takes `latency` cycles to complete.
    Cycle start = std::max(sim.now(), nextFreeSlot);
    nextFreeSlot = start + serviceInterval;
    Cycle finish = start + latency;
    stats.sample("queueing").add(static_cast<double>(start - sim.now()));
    sim.events().schedule(finish, std::move(done));
}

} // namespace inpg

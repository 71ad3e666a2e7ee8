#include "workload/workload.hh"

#include "common/logging.hh"

namespace inpg {

Workload::Workload(Params params, CoherentSystem &system,
                   LockManager &locks, Simulator &sim)
    : prm(std::move(params)), sys(system),
      csTarget(prm.profile.csPerThread(prm.threads, prm.csScale))
{
    INPG_ASSERT(prm.threads >= 1 && prm.threads <= sys.numCores(),
                "%d threads on %d cores", prm.threads, sys.numCores());

    // Locks (and the shared data they protect) homed per profile.
    lockPtrs.reserve(static_cast<std::size_t>(prm.profile.numLocks));
    csData.reserve(static_cast<std::size_t>(prm.profile.numLocks));
    for (int i = 0; i < prm.profile.numLocks; ++i) {
        NodeId home;
        if (prm.lockHome != INVALID_NODE) {
            home = (prm.lockHome + i) % sys.numCores();
        } else {
            // Deterministic spread derived from the profile identity.
            std::uint64_t h = 0x9e3779b97f4a7c15ULL * (i + 1);
            for (char c : prm.profile.name)
                h = h * 131 + static_cast<unsigned char>(c);
            home = static_cast<NodeId>(h %
                static_cast<std::uint64_t>(sys.numCores()));
        }
        lockPtrs.push_back(
            locks.createLock(prm.lockKind, prm.threads, home));
        csData.push_back(locks.allocLine(home));
    }

    workers.reserve(static_cast<std::size_t>(prm.threads));
    for (ThreadId t = 0; t < prm.threads; ++t) {
        ThreadContext::Params tp;
        tp.tid = t;
        tp.csTarget = csTarget;
        tp.meanParallelCycles = prm.profile.avgParallelCycles;
        tp.meanCsCycles = prm.profile.avgCsCycles;
        tp.locks = lockPtrs;
        tp.csData = csData;
        tp.memGapCycles = prm.profile.memGapCycles;
        // Background working set: four lines shared with a peer thread
        // (t XOR 1) homed across the mesh, so ownership keeps moving
        // and the traffic is sustained with a bounded footprint.
        const ThreadId pair = t & ~1;
        for (int i = 0; i < 4; ++i) {
            std::uint64_t h =
                (static_cast<std::uint64_t>(pair) * 2654435761u) ^
                (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
            NodeId home = static_cast<NodeId>(
                h % static_cast<std::uint64_t>(sys.numCores()));
            tp.bgAddrs[static_cast<std::size_t>(i)] =
                sys.cohConfig().lineHomedAt(
                    home, 1000 + static_cast<Addr>(pair) * 8 +
                              static_cast<Addr>(i));
        }
        tp.seed = prm.seed;
        workers.push_back(
            std::make_unique<ThreadContext>(tp, sys, sim));
    }
}

void
Workload::start()
{
    for (auto &w : workers)
        w->start();
}

bool
Workload::done() const
{
    for (const auto &w : workers)
        if (!w->done())
            return false;
    return true;
}

Cycle
Workload::roiFinish() const
{
    Cycle finish = 0;
    for (const auto &w : workers) {
        INPG_ASSERT(w->done(), "roiFinish() before completion");
        finish = std::max(finish, w->finishCycle());
    }
    return finish;
}

std::uint64_t
Workload::csCompleted() const
{
    std::uint64_t total = 0;
    for (const auto &w : workers)
        total += static_cast<std::uint64_t>(w->csCompleted());
    return total;
}

Cycle
Workload::totalCycles(ThreadPhase p) const
{
    Cycle total = 0;
    for (const auto &w : workers)
        total += w->recorder().cyclesIn(p);
    return total;
}

} // namespace inpg

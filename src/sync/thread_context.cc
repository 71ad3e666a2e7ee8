#include "sync/thread_context.hh"

#include "common/logging.hh"

namespace inpg {

ThreadContext::ThreadContext(Params params, CoherentSystem &system,
                             Simulator &simulator)
    : prm(std::move(params)), sys(system), sim(simulator),
      rng(prm.seed ^ (0x9e3779b97f4a7c15ULL *
                      (static_cast<std::uint64_t>(prm.tid) + 1))),
      phases(prm.tid)
{
    INPG_ASSERT(!prm.locks.empty(), "thread %d has no locks", prm.tid);
    INPG_ASSERT(prm.csData.size() == prm.locks.size(),
                "thread %d: csData/locks size mismatch", prm.tid);
    hooks.onSleep = [this] {
        phases.transition(ThreadPhase::Sleep, sim.now());
    };
    hooks.onWake = [this] {
        phases.transition(ThreadPhase::Coh, sim.now());
    };
}

void
ThreadContext::start()
{
    beginParallel();
}

void
ThreadContext::beginParallel()
{
    phases.transition(ThreadPhase::Parallel, sim.now());
    Cycle len = rng.nextGeometric(
        std::max(1.0, prm.meanParallelCycles));
    parallelStep(len);
}

void
ThreadContext::parallelStep(Cycle remaining)
{
    // Pure compute when no background traffic is configured.
    if (prm.memGapCycles <= 0) {
        sim.scheduleIn(remaining, [this] { beginAcquire(); });
        return;
    }
    // Interleave compute gaps with ordinary shared-data accesses: the
    // cache-miss traffic a real parallel phase pushes through the L2
    // banks and the NoC (and which lock messages queue behind).
    Cycle gap = rng.nextGeometric(std::max(1.0, prm.memGapCycles));
    if (gap >= remaining) {
        sim.scheduleIn(remaining, [this] { beginAcquire(); });
        return;
    }
    Cycle left = remaining - gap;
    sim.scheduleIn(gap, [this, left] {
        Addr a = prm.bgAddrs[rng.nextBounded(prm.bgAddrs.size())];
        if (rng.chance(0.5)) {
            sys.l1(prm.tid).issueStore(
                a, rng.next(), false,
                [this, left](std::uint64_t) { parallelStep(left); });
        } else {
            sys.l1(prm.tid).issueLoad(a, false, [this, left](
                                                    std::uint64_t) {
                parallelStep(left);
            });
        }
    });
}

void
ThreadContext::beginAcquire()
{
    phases.transition(ThreadPhase::Coh, sim.now());
    currentLock = prm.locks.size() == 1
        ? 0
        : static_cast<std::size_t>(rng.nextBounded(prm.locks.size()));
    prm.locks[currentLock]->acquire(prm.tid, [this] { beginCs(); },
                                    &hooks);
}

void
ThreadContext::beginCs()
{
    phases.transition(ThreadPhase::Cse, sim.now());
    // The critical section updates the protected shared variable, then
    // computes for the remainder of its body.
    sys.l1(prm.tid).issueStore(
        prm.csData[currentLock], static_cast<std::uint64_t>(prm.tid) + 1,
        false, [this](std::uint64_t) {
            Cycle len =
                rng.nextGeometric(std::max(1.0, prm.meanCsCycles));
            sim.scheduleIn(len, [this] { beginRelease(); });
        });
}

void
ThreadContext::beginRelease()
{
    prm.locks[currentLock]->release(prm.tid, [this] { endIteration(); });
}

void
ThreadContext::endIteration()
{
    ++completed;
    if (completed >= prm.csTarget) {
        finished = true;
        doneAt = sim.now();
        phases.transition(ThreadPhase::Done, sim.now());
        return;
    }
    beginParallel();
}

} // namespace inpg

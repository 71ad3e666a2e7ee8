#include "sync/lock_primitive.hh"

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

const char *
lockKindName(LockKind kind)
{
    switch (kind) {
      case LockKind::Tas:
        return "TAS";
      case LockKind::Ticket:
        return "TTL";
      case LockKind::Abql:
        return "ABQL";
      case LockKind::Mcs:
        return "MCS";
      case LockKind::Qsl:
        return "QSL";
    }
    return "?";
}

LockPrimitive::LockPrimitive(std::string lock_name, CoherentSystem &system,
                             Simulator &simulator, const SyncConfig &config,
                             int threads)
    : sys(system), sim(simulator), cfg(config), ocorPolicy(config.ocor),
      numThreads(threads), lockName(std::move(lock_name))
{
    INPG_ASSERT(threads > 0, "lock with no threads");
    stats = StatGroup(lockName);
}

void
LockPrimitive::applyOcorPriority(ThreadId t, int remaining_retries)
{
    if (!cfg.ocorEnabled)
        return;
    int prio = remaining_retries < 0
        ? ocorPolicy.wakeupPriority()
        : ocorPolicy.spinPriority(remaining_retries);
    l1(t).setNextRequestPriority(prio);
}

void
LockPrimitive::markAcquireStart(ThreadId t)
{
    if (Telemetry *tel = sim.telemetry())
        tel->emit({SimEventKind::AcquireBegin, sim.now(), t});
}

void
LockPrimitive::markSleepBegin(ThreadId t)
{
    if (Telemetry *tel = sim.telemetry())
        tel->emit({SimEventKind::SleepBegin, sim.now(), t});
}

void
LockPrimitive::markSleepEnd(ThreadId t)
{
    if (Telemetry *tel = sim.telemetry())
        tel->emit({SimEventKind::SleepEnd, sim.now(), t});
}

void
LockPrimitive::markAcquired(ThreadId t)
{
    if (Telemetry *tel = sim.telemetry())
        tel->emit({SimEventKind::AcquireEnd, sim.now(), t});
    ++numHolders;
    INPG_ASSERT(numHolders == 1,
                "mutual exclusion violated on %s: thread %d acquired "
                "while thread %d holds",
                lockName.c_str(), t, holderThread);
    holderThread = t;
    ++stats.counter("acquisitions");
}

void
LockPrimitive::markReleased(ThreadId t)
{
    INPG_ASSERT(numHolders == 1 && holderThread == t,
                "thread %d released %s without holding it", t,
                lockName.c_str());
    --numHolders;
    holderThread = -1;
    ++stats.counter("releases");
}

} // namespace inpg

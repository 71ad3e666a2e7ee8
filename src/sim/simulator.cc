#include "sim/simulator.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

namespace {

// Host-side profiling only: these wall-clock reads never feed back
// into simulated state, so the determinism lint is opted out per line.
double
secondsSince(std::chrono::steady_clock::time_point t0) // lint:allow(nondeterminism)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0) // lint:allow(nondeterminism)
        .count();
}

} // namespace

void
Simulator::addTicking(Ticking *component)
{
    INPG_ASSERT(component != nullptr, "registering null component");
    INPG_ASSERT(!component->token.bound(),
                "component %s registered twice",
                component->tickName().c_str());
    component->token.count = &activeCount;
    const std::size_t idx = slots.size();
    slots.push_back(Slot{component, component->hostPhase()});
    const std::size_t oldCapacity = activeBits.capacity();
    if ((idx >> 6) >= activeBits.size())
        activeBits.push_back(0);
    activeBits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    ++activeCount;
    // A reallocation of the bitmap moves every word, so every token's
    // word pointer must follow; otherwise only the newcomer needs
    // binding. Geometric growth keeps registration linear overall.
    const std::size_t first =
        activeBits.capacity() == oldCapacity ? idx : 0;
    for (std::size_t i = first; i < slots.size(); ++i) {
        SleepToken &t = slots[i].component->token;
        t.word = &activeBits[i >> 6];
        t.bit = std::uint64_t{1} << (i & 63);
    }
}

bool
Simulator::tokensBound() const
{
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const SleepToken &t = slots[i].component->token;
        if (t.word != &activeBits[i >> 6] ||
            t.bit != std::uint64_t{1} << (i & 63) || t.count != &activeCount)
            return false;
    }
    return true;
}

void
Simulator::setTelemetry(Telemetry *t)
{
    tel = t;
    kernelProf = t ? t->kernel.get() : nullptr;
    sampler = t ? t->timeseries.get() : nullptr;
    wdog = t ? t->watchdog.get() : nullptr;
}

void
Simulator::runEventPhase()
{
    if (kernelProf) {
        const std::uint64_t before = eventQueue.executedTotal();
        eventQueue.runDue(currentCycle);
        kernelProf->onCycle(eventQueue.executedTotal() - before,
                            eventQueue.size());
    } else {
        eventQueue.runDue(currentCycle);
    }
}

void
Simulator::sweepActive()
{
    // Sweep the active bitmap in ascending slot order, re-reading the
    // live word before every pick so a tick that wakes a HIGHER slot
    // makes it run this same cycle -- the semantics of a plain loop
    // over per-component active flags (each index is examined once,
    // with its state as of the moment the scan reaches it). The cursor
    // mask retires the chosen bit and everything below it, so backward
    // wakes wait for the next cycle, like indices such a loop has
    // already passed.
    // Components only ever suspend themselves, so a bit the cursor has
    // not reached can vanish only with its tick already unnecessary.
    for (std::size_t w = 0; w < activeBits.size(); ++w) {
        std::uint64_t eligible = ~std::uint64_t{0};
        std::uint64_t m;
        while ((m = activeBits[w] & eligible) != 0) {
            const std::size_t b =
                static_cast<std::size_t>(std::countr_zero(m));
            eligible &= ~std::uint64_t{0} << 1 << b;
            slots[(w << 6) + b].component->tick(currentCycle);
        }
    }
}

void
Simulator::step()
{
    if (profile) {
        stepProfiled();
        return;
    }
    runEventPhase();
    sweepActive();
    // Diagnosis observers see executed cycles only; null when off, so
    // the disabled cost is two predictable branches.
    if (sampler)
        sampler->onCycle(currentCycle);
    if (wdog)
        wdog->onCycle(currentCycle);
    ++currentCycle;
}

void
Simulator::stepProfiled()
{
    // Identical cycle semantics to step(), with wall-clock accounting
    // around the event phase and each component tick. The two extra
    // clock reads per tick distort absolute times slightly; the
    // events-vs-subsystem *split* is what the hotpath bench reports.
    auto t0 = std::chrono::steady_clock::now(); // lint:allow(nondeterminism)
    eventQueue.runDue(currentCycle);
    profile->eventsSec += secondsSince(t0);
    for (std::size_t w = 0; w < activeBits.size(); ++w) {
        std::uint64_t eligible = ~std::uint64_t{0};
        std::uint64_t m;
        while ((m = activeBits[w] & eligible) != 0) {
            const std::size_t b =
                static_cast<std::size_t>(std::countr_zero(m));
            eligible &= ~std::uint64_t{0} << 1 << b;
            const std::size_t i = (w << 6) + b;
            auto t1 = std::chrono::steady_clock::now(); // lint:allow(nondeterminism)
            slots[i].component->tick(currentCycle);
            const double dt = secondsSince(t1);
            switch (slots[i].phase) {
              case HostPhase::Router:
                profile->routersSec += dt;
                break;
              case HostPhase::Ni:
                profile->nisSec += dt;
                break;
              case HostPhase::Dir:
                profile->dirsSec += dt;
                break;
              case HostPhase::Other:
                profile->otherSec += dt;
                break;
            }
        }
    }
    if (sampler)
        sampler->onCycle(currentCycle);
    if (wdog)
        wdog->onCycle(currentCycle);
    ++profile->profiledCycles;
    ++currentCycle;
}

void
Simulator::run(Cycle n)
{
    const Cycle limit = currentCycle + n;
    while (currentCycle < limit) {
        if (ffEnabled && activeCount == 0) {
            const Cycle target = std::min(limit, idleHorizon());
            if (target > currentCycle) {
                if (kernelProf)
                    kernelProf->onFastForward(target - currentCycle);
                if (sampler)
                    sampler->onFastForward(target);
                ffCycles += target - currentCycle;
                ++ffJumps;
                currentCycle = target;
                continue;
            }
        }
        step();
    }
}

bool
Simulator::runUntil(const std::function<bool()> &done, Cycle max_cycles,
                    PredicateMode mode)
{
    const Cycle limit = currentCycle + max_cycles;
    while (currentCycle < limit) {
        if (done())
            return true;
        if (ffEnabled && activeCount == 0) {
            if (wdog && mode == PredicateMode::StateChange &&
                eventQueue.empty()) {
                // Every component is asleep and the event horizon is
                // empty, so no simulated state can ever change again;
                // a StateChange predicate that has not fired never
                // will. This is a structural deadlock, not a long
                // sleep -- trip immediately rather than fast-forward
                // to the timeout.
                wdog->tripDeadlock(currentCycle);
            }
            const Cycle target = std::min(limit, idleHorizon());
            if (target > currentCycle) {
                if (kernelProf)
                    kernelProf->onFastForward(target - currentCycle);
                if (sampler)
                    sampler->onFastForward(target);
                if (mode == PredicateMode::StateChange) {
                    // Nothing can flip the predicate before `target`.
                    ffCycles += target - currentCycle;
                    ++ffJumps;
                    currentCycle = target;
                } else {
                    // Execute the empty cycles (predicate may read the
                    // clock), but skip the component loop. The outer
                    // loop re-checks the predicate at `target`, so each
                    // cycle is checked exactly once, as in plain
                    // stepping.
                    while (currentCycle < target) {
                        ++currentCycle;
                        ++ffCycles;
                        if (currentCycle == target)
                            break;
                        if (done())
                            return true;
                    }
                    ++ffJumps;
                }
                continue;
            }
        }
        step();
    }
    return done();
}

} // namespace inpg

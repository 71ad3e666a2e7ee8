/**
 * @file
 * The cycle-driven simulation kernel.
 *
 * One Simulator instance owns the global clock, the event queue, and the
 * list of clocked components. Each cycle it (1) fires due events and
 * (2) ticks every *active* registered component in registration order.
 * Components communicate only through latched structures, so the tick
 * order within a cycle is not observable; runs are fully deterministic.
 *
 * Activity-driven operation: components may suspend themselves via their
 * SleepToken once provably idle (see Ticking). When the active set is
 * empty, nothing can change simulated state until the next event-queue
 * firing, so run()/runUntil() fast-forward the clock across the gap
 * instead of spinning through empty cycles. Fast-forward is
 * cycle-accurate: the visited state trajectory is bit-identical to
 * naive per-cycle ticking (only the no-op cycles are elided).
 */

#ifndef INPG_SIM_SIMULATOR_HH
#define INPG_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"
#include "sim/ticking.hh"

namespace inpg {

class Telemetry;
class KernelProfile;
class TimeseriesSampler;
class ProgressWatchdog;

/** Cycle-driven kernel with an auxiliary event queue. */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Register a component; it will be ticked every cycle while active. */
    void addTicking(Ticking *component);

    /** Current cycle (the cycle about to be or being evaluated). */
    Cycle now() const { return currentCycle; }

    /** Event queue for timed callbacks. */
    EventQueue &events() { return eventQueue; }
    const EventQueue &events() const { return eventQueue; }

    /** Schedule a callback `delay` cycles from now (delay >= 0). */
    void
    scheduleIn(Cycle delay, EventQueue::Callback fn)
    {
        eventQueue.schedule(currentCycle + delay, std::move(fn));
    }

    /** Advance exactly one cycle (never fast-forwards). */
    void step();

    /** Advance n cycles (fast-forwarding across fully idle spans). */
    void run(Cycle n);

    /**
     * How runUntil() may treat the predicate across idle spans.
     *
     * EveryCycle (default, the seed semantics): the predicate is
     * evaluated once per cycle, before the cycle executes, even while
     * every component sleeps -- correct for predicates that read the
     * clock (`sim.now() >= x`).
     *
     * StateChange: the predicate is a pure function of simulated state,
     * which cannot change while the active set is empty and no event
     * fires; idle spans are skipped in one jump without re-evaluating
     * it. All protocol/workload predicates ("done", "held == n") are
     * of this kind.
     */
    enum class PredicateMode {
        EveryCycle,
        StateChange,
    };

    /**
     * Advance until the predicate returns true (checked once per cycle,
     * before the cycle executes) or max_cycles elapse.
     *
     * @return true if the predicate fired, false on timeout.
     */
    bool runUntil(const std::function<bool()> &done, Cycle max_cycles,
                  PredicateMode mode = PredicateMode::EveryCycle);

    /**
     * Disable/enable idle fast-forwarding (for A/B determinism checks;
     * enabled by default). Off, run()/runUntil() execute every cycle
     * exactly like the pre-activity-kernel loop.
     */
    void setFastForward(bool enabled) { ffEnabled = enabled; }

    bool fastForwardEnabled() const { return ffEnabled; }

    /** Cycles skipped (not individually executed) by fast-forwarding. */
    std::uint64_t cyclesFastForwarded() const { return ffCycles; }

    /** Number of distinct fast-forward jumps taken. */
    std::uint64_t fastForwardJumps() const { return ffJumps; }

    /**
     * Host-side wall-clock breakdown of where simulation time goes,
     * classified by each component's Ticking::hostPhase().
     * Accumulated only while a profile is attached (setHostProfile);
     * the unprofiled step() path is untouched.
     */
    struct HostPhaseProfile {
        double eventsSec = 0;  ///< EventQueue::runDue
        double routersSec = 0; ///< router%d ticks (incl. big routers)
        double nisSec = 0;     ///< ni%d ticks
        double dirsSec = 0;    ///< dir%d ticks
        double otherSec = 0;   ///< cores / workload / everything else
        std::uint64_t profiledCycles = 0;
    };

    /** Attach (or detach with nullptr) a phase-profile accumulator. */
    void setHostProfile(HostPhaseProfile *p) { profile = p; }

    /**
     * Attach (or detach with nullptr) the telemetry facade. Install it
     * before building the components: routers and NIs keep the
     * pointer they find at construction (L1s, directories and locks
     * read it through telemetry() at each event). The kernel itself
     * feeds the profile (events-per-cycle, wheel occupancy,
     * fast-forward skip histogram) when one is enabled.
     */
    void setTelemetry(Telemetry *t);

    /** Installed telemetry facade, or nullptr when disabled. */
    Telemetry *telemetry() const { return tel; }

    /** Components currently in the active set. */
    std::size_t activeComponents() const { return activeCount; }

    /** Registered components (active or not). */
    std::size_t numComponents() const { return slots.size(); }

    /**
     * True when every registered component's SleepToken points at its
     * own bit of the current active bitmap (registration invariant).
     */
    bool tokensBound() const;

  private:
    struct Slot {
        Ticking *component = nullptr;
        HostPhase phase = HostPhase::Other;
    };

    void stepProfiled();

    /** Fire due events (feeding the kernel profile when attached). */
    void runEventPhase();

    /** Sweep the active bitmap once at the current cycle. */
    void sweepActive();

    /**
     * Cycle at which the next stimulus can occur once the active set is
     * empty; CYCLE_NEVER when the event queue is also empty.
     */
    Cycle idleHorizon() const { return eventQueue.nextEventCycle(); }

    Cycle currentCycle = 0;
    EventQueue eventQueue;
    std::vector<Slot> slots;

    /**
     * Packed active set, bit i = slot i. The per-cycle loop sweeps set
     * bits (ascending index keeps registration-order ticking) instead
     * of testing a flag per registered component; SleepTokens point at
     * their word so wake/suspend are single bit operations.
     */
    std::vector<std::uint64_t> activeBits;
    std::size_t activeCount = 0;

    bool ffEnabled = true;
    std::uint64_t ffCycles = 0;
    std::uint64_t ffJumps = 0;

    HostPhaseProfile *profile = nullptr;
    Telemetry *tel = nullptr;
    KernelProfile *kernelProf = nullptr;
    TimeseriesSampler *sampler = nullptr;
    ProgressWatchdog *wdog = nullptr;
};

} // namespace inpg

#endif // INPG_SIM_SIMULATOR_HH

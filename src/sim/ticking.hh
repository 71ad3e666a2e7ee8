/**
 * @file
 * Interface for components clocked by the Simulator, plus the
 * activity contract that lets idle components leave the tick loop.
 */

#ifndef INPG_SIM_TICKING_HH
#define INPG_SIM_TICKING_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace inpg {

/**
 * Handle a registered component uses to enter and leave the simulator's
 * active set. Unbound tokens (component never registered, e.g. unit
 * tests ticking by hand) make both operations no-ops.
 *
 * The token points straight at the component's bit in the scheduler's
 * packed active bitmap (plus the active-set counter), so wake/suspend
 * are a load, a mask and a store on the hot path (Channel pushes wake
 * consumers millions of times per run). The Simulator re-binds every
 * token's word pointer whenever the bitmap's storage moves, so the
 * pointers never dangle.
 */
class SleepToken
{
  public:
    SleepToken() = default;

    /** Re-enter the active set (idempotent). */
    void
    wake()
    {
        if (word && !(*word & bit)) {
            *word |= bit;
            ++*count;
        }
    }

    /** Leave the active set (idempotent). */
    void
    suspend()
    {
        if (word && (*word & bit)) {
            *word &= ~bit;
            --*count;
        }
    }

    bool bound() const { return word != nullptr; }

  private:
    friend class Simulator;

    std::uint64_t *word = nullptr;
    std::uint64_t bit = 0;
    std::size_t *count = nullptr;
};

/** Bucket of Simulator::HostPhaseProfile a component's ticks land in. */
enum class HostPhase : std::uint8_t {
    Router, ///< routers, big routers included
    Ni,     ///< network interfaces
    Dir,    ///< directories
    Other,  ///< everything else
};

/**
 * A component evaluated once per simulated cycle while active.
 *
 * The simulator guarantees a fixed, registration-order evaluation
 * sequence within a cycle. Components must only exchange state through
 * latched queues or Links (which impose at least one cycle of delay), so
 * that intra-cycle ordering is never observable.
 *
 * Activity contract: every component starts active. A component may
 * call suspendSelf() from its tick() once it can prove that all its
 * future ticks would be no-ops until new input arrives -- i.e. its
 * input channels are completely empty (not merely not-ready), its
 * internal queues are drained, and it has no time-driven work pending.
 * Whoever injects new input (a Channel push, a message enqueue) must
 * wake the consumer via its SleepToken. Waking an idle component early
 * is always safe: a suspendable tick is a behavioral no-op.
 */
class Ticking
{
  public:
    virtual ~Ticking() = default;

    /** Evaluate one cycle. @param now the cycle being evaluated. */
    virtual void tick(Cycle now) = 0;

    /** Diagnostic name. */
    virtual std::string tickName() const { return "component"; }

    /** Host-profile bucket, read once at registration. */
    virtual HostPhase hostPhase() const { return HostPhase::Other; }

    /** Activity handle (bound by Simulator::addTicking). */
    SleepToken &sleepToken() { return token; }

  protected:
    /** Leave the tick loop until the next wake (see class comment). */
    void suspendSelf() { token.suspend(); }

    /** Re-enter the tick loop (safe from any context). */
    void wakeSelf() { token.wake(); }

  private:
    friend class Simulator;

    SleepToken token;
};

} // namespace inpg

#endif // INPG_SIM_TICKING_HH

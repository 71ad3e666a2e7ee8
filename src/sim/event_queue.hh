/**
 * @file
 * Deterministic discrete-event queue complementing the cycle loop.
 *
 * Timed callbacks model fixed-latency activities that need no per-cycle
 * evaluation: cache array access completion, thread sleep/wakeup, CS body
 * execution. Events scheduled for the same cycle fire in scheduling
 * order (FIFO), which keeps runs reproducible.
 *
 * Implementation: a single-level timing wheel of WHEEL_SIZE power-of-two
 * buckets covering the cycles [wheelBase, wheelBase + WHEEL_SIZE), with
 * a min-heap overflow for events beyond the window. Short-latency events
 * (the steady-state protocol traffic: L1/L2 access completion, link
 * hops) resolve to one array index with no comparisons; long sleeps park
 * in the overflow heap and are promoted exactly once when the window
 * reaches them. Callbacks are SmallCallback (small-buffer optimized), so
 * the schedule path performs no heap allocation.
 *
 * Execution order is bit-identical to a (cycle, insertion-sequence)
 * min-heap: buckets are drained in cycle order; within a bucket, entries
 * promoted from the overflow heap (popped in (cycle, seq) order) always
 * precede directly-scheduled entries (which, by the window invariant,
 * were scheduled later and thus carry higher sequence numbers).
 *
 * Threading: the queue is single-threaded, like the whole System
 * that owns it (DESIGN.md Section 11).
 */

#ifndef INPG_SIM_EVENT_QUEUE_HH
#define INPG_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/small_function.hh"
#include "common/types.hh"
#include "telemetry/json.hh"

namespace inpg {

/** Timing-wheel event queue; FIFO within a cycle (see file comment). */
class EventQueue
{
  public:
    using Callback = SmallCallback;

    /**
     * Schedule a callback at an absolute cycle. `when` must be no
     * earlier than the cycle of the most recent runDue() call (events
     * scheduled *at* that cycle from outside runDue fire on its next
     * invocation, exactly as with a (cycle, seq) min-heap).
     */
    void schedule(Cycle when, Callback fn);

    /** Earliest pending event cycle, or CYCLE_NEVER when empty. */
    Cycle nextEventCycle() const;

    /** Number of pending events. */
    std::size_t size() const { return count; }

    bool empty() const { return count == 0; }

    /**
     * Run every event scheduled at or before `now`, including events
     * that those callbacks schedule for cycles <= `now`. Successive
     * calls must use non-decreasing `now`.
     */
    void runDue(Cycle now);

    /** Drop all pending events (O(occupied buckets), not O(n log n)). */
    void clear();

    // ---- schedule-path instrumentation (host-side, free counters) ----

    /** Events executed over the queue's lifetime. */
    std::uint64_t executedTotal() const { return statExecuted; }

    /**
     * Heap allocations performed on the schedule path: callbacks too
     * large for the SmallCallback inline buffer. Zero in steady-state
     * operation.
     */
    std::uint64_t scheduleHeapAllocs() const { return statHeapAllocs; }

    /** Events that took the far-future overflow heap path. */
    std::uint64_t overflowScheduled() const { return statOverflow; }

    /**
     * Queue summary for the hang report: pending/next-event state plus
     * lifetime schedule-path statistics.
     */
    JsonValue debugJson() const;

  private:
    static constexpr std::size_t WHEEL_BITS = 8;
    static constexpr std::size_t WHEEL_SIZE = std::size_t{1} << WHEEL_BITS;
    static constexpr Cycle WHEEL_MASK = WHEEL_SIZE - 1;
    static constexpr std::size_t OCC_WORDS = WHEEL_SIZE / 64;

    struct Entry {
        Cycle when;
        std::uint64_t seq;
        Callback fn;
    };

    /** Min-first on (when, seq) for std::push_heap/pop_heap. */
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void pushWheel(Entry &&e);
    void advanceBaseTo(Cycle base);
    void promoteOverflow();
    Cycle wheelNextCycle() const;
    void drainStale();

    std::array<std::vector<Entry>, WHEEL_SIZE> buckets;
    std::array<std::uint64_t, OCC_WORDS> occupied{};
    std::vector<Entry> overflow; ///< binary min-heap on (when, seq)
    /**
     * Events scheduled at wheelBase - 1 (a component scheduling "at
     * now" during the tick phase, after runDue(now) already advanced
     * the window); they run first on the next runDue, in seq order.
     */
    std::vector<Entry> stale;
    Cycle wheelBase = 0;
    std::size_t wheelCount = 0;

    /**
     * Cached result of wheelNextCycle()'s bitmap scan. Kept as a min on
     * every wheel insert, invalidated when a bucket is drained; the
     * steady-state "anything due this cycle?" probe then costs one
     * compare instead of a sweep over the occupancy words.
     */
    mutable Cycle wheelNextCache = CYCLE_NEVER;
    mutable bool wheelNextCacheValid = false;
    std::size_t count = 0;
    std::uint64_t nextSeq = 0;

    std::uint64_t statScheduled = 0;
    std::uint64_t statExecuted = 0;
    std::uint64_t statHeapAllocs = 0;
    std::uint64_t statOverflow = 0;
};

} // namespace inpg

#endif // INPG_SIM_EVENT_QUEUE_HH

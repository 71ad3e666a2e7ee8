/**
 * @file
 * Timing-wheel EventQueue tests: FIFO order within a cycle across wheel
 * rollover, far-future overflow promotion, scheduling from inside a
 * callback, clear(), small-buffer accounting, and a differential fuzz
 * run against a test-local (cycle, sequence) min-heap model.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace inpg {
namespace {

using Fired = std::vector<std::pair<Cycle, int>>;

TEST(EventWheel, SameCycleFifoAcrossRollover)
{
    EventQueue q;
    Fired fired;
    // Three events per cycle over a span wider than the 256-entry
    // wheel, scheduled in a scrambled cycle order but a known per-cycle
    // order: ids 0, 1, 2 for each cycle.
    const Cycle span = 700;
    std::vector<Cycle> cycles;
    for (Cycle c = 0; c < span; c += 7)
        cycles.push_back(c);
    // Scramble deterministically so the wheel sees out-of-order inserts.
    Rng rng(12345);
    for (std::size_t i = cycles.size(); i > 1; --i)
        std::swap(cycles[i - 1], cycles[rng.nextBounded(i)]);
    for (int id = 0; id < 3; ++id)
        for (Cycle c : cycles)
            q.schedule(c, [&fired, c, id] { fired.emplace_back(c, id); });
    // Drain in chunks so the window rolls over several times.
    for (Cycle now = 0; now < span + 64; now += 64)
        q.runDue(now);
    EXPECT_TRUE(q.empty());
    ASSERT_EQ(fired.size(), 3 * cycles.size());
    for (std::size_t i = 1; i < fired.size(); ++i) {
        EXPECT_LE(fired[i - 1].first, fired[i].first);
        if (fired[i - 1].first == fired[i].first) {
            // Same cycle: scheduling order (id ascending here, since
            // id-0 events were all scheduled before id-1 events).
            EXPECT_LT(fired[i - 1].second, fired[i].second);
        }
    }
}

TEST(EventWheel, FarFutureOverflowPromotion)
{
    EventQueue q;
    Fired fired;
    // Far beyond the wheel window: must park in the overflow heap and
    // still fire exactly at its cycle, FIFO-ordered against an event
    // scheduled directly once the window reaches that cycle.
    const Cycle far = 100000;
    q.schedule(far, [&fired, far] { fired.emplace_back(far, 0); });
    q.schedule(5, [&fired] { fired.emplace_back(5, -1); });
    EXPECT_GE(q.overflowScheduled(), 1u);
    EXPECT_EQ(q.nextEventCycle(), 5u);
    q.runDue(far - 1);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(q.nextEventCycle(), far);
    // Now in-window: this one is scheduled after the promoted event and
    // must fire after it.
    q.schedule(far, [&fired, far] { fired.emplace_back(far, 1); });
    q.runDue(far);
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[1], std::make_pair(far, 0));
    EXPECT_EQ(fired[2], std::make_pair(far, 1));
    EXPECT_TRUE(q.empty());
}

TEST(EventWheel, ScheduleFromInsideCallback)
{
    EventQueue q;
    Fired fired;
    q.schedule(10, [&] {
        fired.emplace_back(10, 0);
        // Same-cycle re-entry: must run within this runDue call, after
        // everything already queued for cycle 10.
        q.schedule(10, [&] { fired.emplace_back(10, 2); });
        // And a short-latency follow-up.
        q.schedule(13, [&] { fired.emplace_back(13, 3); });
    });
    q.schedule(10, [&] { fired.emplace_back(10, 1); });
    q.runDue(10);
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], std::make_pair(Cycle{10}, 0));
    EXPECT_EQ(fired[1], std::make_pair(Cycle{10}, 1));
    EXPECT_EQ(fired[2], std::make_pair(Cycle{10}, 2));
    EXPECT_EQ(q.nextEventCycle(), 13u);
    q.runDue(13);
    ASSERT_EQ(fired.size(), 4u);
    EXPECT_EQ(fired[3], std::make_pair(Cycle{13}, 3));
}

TEST(EventWheel, ClearDropsWheelAndOverflow)
{
    EventQueue q;
    int ran = 0;
    for (Cycle c = 0; c < 100; ++c)
        q.schedule(c, [&ran] { ++ran; });
    q.schedule(1 << 20, [&ran] { ++ran; });
    EXPECT_EQ(q.size(), 101u);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventCycle(), CYCLE_NEVER);
    q.runDue(1 << 21);
    EXPECT_EQ(ran, 0);
    // The queue stays usable after clear().
    q.schedule((1 << 21) + 1, [&ran] { ++ran; });
    q.runDue((1 << 21) + 1);
    EXPECT_EQ(ran, 1);
}

TEST(EventWheel, SmallCallbacksDoNotAllocate)
{
    EventQueue q;
    std::uint64_t x = 0;
    for (int i = 0; i < 64; ++i)
        q.schedule(static_cast<Cycle>(i), [&x] { ++x; });
    EXPECT_EQ(q.scheduleHeapAllocs(), 0u);
    // A capture larger than the SmallCallback inline buffer must spill
    // (and be counted) but still run correctly.
    std::array<std::uint64_t, 16> big{};
    big[15] = 7;
    q.schedule(100, [&x, big] { x += big[15]; });
    EXPECT_EQ(q.scheduleHeapAllocs(), 1u);
    q.runDue(100);
    EXPECT_EQ(x, 64u + 7u);
}

/**
 * Deterministic re-entry derived from the event id alone, so the wheel
 * and the model make identical decisions: every fourth id spawns a
 * child, every twelfth at the same cycle. Returns false for no child.
 */
bool
childDelta(int id, Cycle *delta)
{
    if (id % 4 != 0)
        return false;
    *delta = id % 12 == 0 ? 0 : static_cast<Cycle>(id % 700 + 1);
    return true;
}

/**
 * Executable specification of the queue's order: a (when, seq)
 * min-heap, FIFO within a cycle. Events carry only their id; firing
 * one logs it and applies childDelta().
 */
struct HeapModel {
    struct Ev {
        Cycle when;
        std::uint64_t seq;
        int id;
    };
    struct Later {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Ev, std::vector<Ev>, Later> heap;
    std::uint64_t nextSeq = 0;
    Fired log;
    int nextId = 1000000; // ids for callback-spawned children

    void
    scheduleEvent(Cycle when, int id)
    {
        heap.push(Ev{when, nextSeq++, id});
    }

    void
    runDue(Cycle now)
    {
        while (!heap.empty() && heap.top().when <= now) {
            const Ev e = heap.top();
            heap.pop();
            log.emplace_back(e.when, e.id);
            Cycle delta = 0;
            if (childDelta(e.id, &delta))
                scheduleEvent(e.when + delta, nextId++);
        }
    }
};

/**
 * Differential fuzz: drive the wheel queue and the heap model with an
 * identical schedule/run stream (including re-entrant schedules) and
 * require identical execution logs.
 */
TEST(EventWheel, DifferentialFuzzAgainstReferenceHeap)
{
    struct Harness {
        EventQueue q;
        Fired log;
        int nextId = 1000000; // ids for callback-spawned children

        void
        scheduleEvent(Cycle when, int id)
        {
            q.schedule(when, [this, when, id] {
                log.emplace_back(when, id);
                Cycle delta = 0;
                if (childDelta(id, &delta))
                    scheduleEvent(when + delta, nextId++);
            });
        }
    };

    Harness wheel;
    HeapModel ref;

    Rng rng(0xfeedULL);
    Cycle now = 0;
    int id = 0;
    for (int round = 0; round < 400; ++round) {
        const int burst = static_cast<int>(rng.nextBounded(6));
        for (int i = 0; i < burst; ++i) {
            // Mix of same-cycle, in-window, and far-future deltas.
            const std::uint64_t kind = rng.nextBounded(10);
            Cycle delta;
            if (kind == 0)
                delta = 0;
            else if (kind < 8)
                delta = static_cast<Cycle>(rng.nextBounded(256));
            else
                delta = static_cast<Cycle>(rng.nextBounded(20000));
            wheel.scheduleEvent(now + delta, id);
            ref.scheduleEvent(now + delta, id);
            ++id;
        }
        now += static_cast<Cycle>(rng.nextBounded(300));
        wheel.q.runDue(now);
        ref.runDue(now);
        ASSERT_EQ(wheel.log.size(), ref.log.size()) << "round " << round;
    }
    // Drain everything still pending (far-future stragglers).
    now += 30000;
    wheel.q.runDue(now);
    ref.runDue(now);
    EXPECT_TRUE(wheel.q.empty());
    EXPECT_TRUE(ref.heap.empty());
    ASSERT_EQ(wheel.log.size(), ref.log.size());
    EXPECT_EQ(wheel.log, ref.log);
    // The wheel must have exercised the overflow path and stayed
    // allocation-free for these small captures.
    EXPECT_GT(wheel.q.overflowScheduled(), 0u);
    EXPECT_EQ(wheel.q.scheduleHeapAllocs(), 0u);
}

} // namespace
} // namespace inpg

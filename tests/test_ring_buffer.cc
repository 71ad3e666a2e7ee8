/**
 * @file
 * Unit tests for the pow2 ring buffers behind the NoC hot path:
 * RingBuffer FIFO order across wraps and growth, and VcStateArray's
 * pooled per-VC rings with their occupancy/mask invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/flit_pool.hh"
#include "noc/packet.hh"
#include "noc/ring_buffer.hh"
#include "noc/vc_state.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// RingBuffer
// ---------------------------------------------------------------------

TEST(RingBuffer, StartsEmptyAtInitialCapacity)
{
    RingBuffer<int, 4> rb;
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.size(), 0u);
    EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBuffer, FifoOrderSurvivesWraparound)
{
    RingBuffer<int, 4> rb;
    // Offset the head so pushes wrap the physical array, then verify
    // logical FIFO order is untouched.
    for (int i = 0; i < 3; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.pop_front(), 0);
    EXPECT_EQ(rb.pop_front(), 1);
    for (int i = 3; i < 7; ++i)
        rb.push_back(i); // wraps the physical end, then grows on the 5th
    EXPECT_EQ(rb.capacity(), 8u);
    std::vector<int> drained;
    while (!rb.empty())
        drained.push_back(rb.pop_front());
    EXPECT_EQ(drained, (std::vector<int>{2, 3, 4, 5, 6}));
}

TEST(RingBuffer, GrowthPreservesOrderAndDoublesCapacity)
{
    RingBuffer<int, 2> rb;
    for (int i = 0; i < 9; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.capacity(), 16u);
    EXPECT_EQ(rb.size(), 9u);
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(rb.pop_front(), i);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, GrowthFromWrappedStateRelinearizes)
{
    RingBuffer<int, 4> rb;
    for (int i = 0; i < 4; ++i)
        rb.push_back(i);
    rb.pop_front();
    rb.pop_front();
    rb.push_back(4);
    rb.push_back(5); // buffer full and physically wrapped
    rb.push_back(6); // forces growth mid-wrap
    EXPECT_EQ(rb.capacity(), 8u);
    for (int want = 2; want <= 6; ++want)
        EXPECT_EQ(rb.pop_front(), want);
}

TEST(RingBuffer, WarmBufferNeverReallocates)
{
    RingBuffer<int, 4> rb;
    for (int i = 0; i < 4; ++i)
        rb.push_back(i);
    const std::size_t warm_cap = rb.capacity();
    // Steady state: occupancy never exceeds the warm capacity again.
    for (int round = 0; round < 1000; ++round) {
        rb.pop_front();
        rb.push_back(round);
        ASSERT_EQ(rb.capacity(), warm_cap);
    }
}

TEST(RingBuffer, ClearResetsAndDropsOwnedElements)
{
    RingBuffer<std::string, 2> rb;
    rb.push_back("a");
    rb.push_back("b");
    rb.push_back("c");
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push_back("d");
    EXPECT_EQ(rb.front(), "d");
    EXPECT_EQ(rb.pop_front(), "d");
}

/** Drain a buffer into a vector, oldest first. */
template <typename RB>
std::vector<std::string>
drain(RB &rb)
{
    std::vector<std::string> out;
    while (!rb.empty())
        out.push_back(rb.pop_front());
    return out;
}

TEST(RingBuffer, FifoOrderHoldsAcrossTheInlineToHeapSpill)
{
    RingBuffer<std::string, 4> rb;
    rb.push_back("x");
    EXPECT_EQ(rb.pop_front(), "x"); // head off zero: the spill wraps
    for (int i = 0; i < 4; ++i)
        rb.push_back(std::to_string(i)); // fills the inline array
    EXPECT_EQ(rb.capacity(), 4u);
    rb.push_back("4"); // spills to the heap
    rb.push_back("5");
    EXPECT_EQ(rb.capacity(), 8u);
    EXPECT_EQ(drain(rb),
              (std::vector<std::string>{"0", "1", "2", "3", "4", "5"}));
}

/** A buffer with a wrapped head, inline (n <= 4) or spilled. */
RingBuffer<std::string, 4>
filled(int n)
{
    RingBuffer<std::string, 4> rb;
    rb.push_back("skip");
    rb.pop_front();
    for (int i = 0; i < n; ++i)
        rb.push_back(std::to_string(i));
    return rb;
}

TEST(RingBuffer, MoveConstructInlineAndSpilled)
{
    for (int n : {3, 6}) {
        RingBuffer<std::string, 4> src = filled(n);
        const std::size_t cap = src.capacity();
        RingBuffer<std::string, 4> dst(std::move(src));
        EXPECT_EQ(dst.capacity(), cap);
        EXPECT_TRUE(src.empty()); // NOLINT(bugprone-use-after-move)
        EXPECT_EQ(src.capacity(), 4u);
        std::vector<std::string> want;
        for (int i = 0; i < n; ++i)
            want.push_back(std::to_string(i));
        EXPECT_EQ(drain(dst), want) << "n=" << n;
        // The moved-from buffer is reusable.
        src.push_back("again");
        EXPECT_EQ(src.pop_front(), "again");
    }
}

TEST(RingBuffer, MoveAssignBetweenInlineAndSpilledStates)
{
    for (int from : {2, 7}) {
        for (int to : {1, 9}) {
            RingBuffer<std::string, 4> src = filled(from);
            RingBuffer<std::string, 4> dst = filled(to);
            dst = std::move(src);
            std::vector<std::string> want;
            for (int i = 0; i < from; ++i)
                want.push_back(std::to_string(i));
            EXPECT_EQ(drain(dst), want) << from << " over " << to;
            EXPECT_TRUE(src.empty()); // NOLINT(bugprone-use-after-move)
        }
    }
}

TEST(RingBuffer, VectorOfBuffersKeepsContentsAcrossReallocation)
{
    // The NI keeps one buffer per vnet in a std::vector, which moves
    // its elements when it grows.
    std::vector<RingBuffer<std::string, 2>> queues(1);
    queues[0].push_back("a");
    queues[0].push_back("b");
    queues[0].push_back("c"); // spilled
    for (int i = 1; i < 9; ++i) {
        queues.emplace_back();
        queues.back().push_back(std::to_string(i)); // inline
    }
    EXPECT_EQ(drain(queues[0]), (std::vector<std::string>{"a", "b", "c"}));
    for (int i = 1; i < 9; ++i)
        EXPECT_EQ(queues[static_cast<std::size_t>(i)].pop_front(),
                  std::to_string(i));
}

// ---------------------------------------------------------------------
// VcStateArray pooled rings
// ---------------------------------------------------------------------

FlitPtr
testFlit(FlitType type, VcId vc)
{
    PacketPtr pkt = std::make_shared<Packet>(/*id=*/0, /*src=*/0,
                                             /*dst=*/1, /*vnet=*/0,
                                             /*num_flits=*/1);
    FlitPtr f = makeFlit(std::move(pkt), type, 0);
    f->vc = vc;
    return f;
}

/**
 * A VcStateArray over its own storage (in a System, a slice of the
 * Network's slab), filled with junk first: the array must not rely on
 * the block's contents.
 */
struct OwnedVcs {
    OwnedVcs(int ports, int vcs, int depth)
        : mem(junk(VcStateArray::storageBytes(ports, vcs, depth))),
          a(ports, vcs, depth, mem.get())
    {}
    static std::unique_ptr<std::byte[]>
    junk(std::size_t bytes)
    {
        auto p = std::make_unique_for_overwrite<std::byte[]>(bytes);
        std::fill_n(p.get(), bytes, std::byte{0xa5});
        return p;
    }
    std::unique_ptr<std::byte[]> mem;
    VcStateArray a;
};

TEST(VcStateArray, FitsGuardsTheMaskBudget)
{
    // 32 VCs per port fill one candidate word: VC 31 is the top bit,
    // and the summary words carry one bit per port.
    OwnedVcs v(/*ports=*/6, /*vcs=*/32, /*depth=*/1);
    VcStateArray &a = v.a;
    a.receiveFlit(5, testFlit(FlitType::HeadTail, 31), 1);
    EXPECT_EQ(a.vaCandidates(5), 1u << 31);
    EXPECT_EQ(a.vaPorts(), 1u << 5);
    const std::size_t s = a.slot(5, 31);
    a.state[s] = VcStateArray::Active;
    a.refreshMask(5, 31);
    EXPECT_EQ(a.vaCandidates(5), 0u);
    EXPECT_EQ(a.vaPorts(), 0u);
    EXPECT_EQ(a.saCandidates(5), 1u << 31);
    EXPECT_EQ(a.saPorts(), 1u << 5);
    for (int p = 0; p < 5; ++p)
        EXPECT_EQ(a.saCandidates(p), 0u) << "port " << p;
}

TEST(VcStateArray, ReceiveAndPopKeepOccupancyAndMasksInSync)
{
    OwnedVcs v(/*ports=*/2, /*vcs=*/2, /*depth=*/3);
    VcStateArray &a = v.a;
    const std::size_t s = a.slot(1, 1);
    EXPECT_EQ(a.totalOccupancy(), 0u);
    EXPECT_EQ(a.vaPorts(), 0u);

    a.receiveFlit(1, testFlit(FlitType::Head, 1), /*now=*/5);
    EXPECT_EQ(a.totalOccupancy(), 1u);
    EXPECT_EQ(a.vcOccupancy(s), 1u);
    EXPECT_EQ(a.portOccupancy(1), 1u);
    EXPECT_EQ(a.portOccupancy(0), 0u);
    // An idle VC holding a head flit is a route-compute candidate.
    EXPECT_EQ(a.vaCandidates(1), 1u << 1);
    EXPECT_EQ(a.vaCandidates(0), 0u);
    EXPECT_EQ(a.vaPorts(), 1u << 1);
    EXPECT_EQ(a.front(s)->bufferedAt, 5u);

    a.receiveFlit(1, testFlit(FlitType::Body, 1), 6);
    a.receiveFlit(1, testFlit(FlitType::Tail, 1), 7);
    EXPECT_EQ(a.vcOccupancy(s), 3u);

    FlitPtr popped = a.popFlit(1, 1);
    EXPECT_EQ(popped->type, FlitType::Head);
    EXPECT_EQ(a.vcOccupancy(s), 2u);
    EXPECT_EQ(a.totalOccupancy(), 2u);
    a.popFlit(1, 1);
    a.popFlit(1, 1);
    EXPECT_EQ(a.totalOccupancy(), 0u);
    EXPECT_EQ(a.vaCandidates(1), 0u);
    EXPECT_EQ(a.vaPorts(), 0u);
    EXPECT_FALSE(a.hasFlit(s));
}

TEST(VcStateArray, PerVcRingWrapsWithinPooledArena)
{
    // depth 3 rounds up to a 4-slot ring; cycling depth-many flits
    // through repeatedly walks the ring past its physical end.
    OwnedVcs v(2, 2, 3);
    VcStateArray &a = v.a;
    const std::size_t s = a.slot(0, 1);
    int seq = 0;
    for (int round = 0; round < 8; ++round) {
        for (int k = 0; k < 3; ++k) {
            FlitPtr f =
                testFlit(k == 0 ? FlitType::Head
                                : (k == 2 ? FlitType::Tail
                                          : FlitType::Body),
                         1);
            f->seq = seq++;
            a.receiveFlit(0, std::move(f), 10 + round);
        }
        int expect = seq - 3;
        while (a.hasFlit(s))
            EXPECT_EQ(a.popFlit(0, 1)->seq, expect++);
        EXPECT_EQ(expect, seq);
    }
    EXPECT_EQ(a.totalOccupancy(), 0u);
}

TEST(VcStateArray, MaskLifecycleFollowsVcStates)
{
    OwnedVcs v(2, 2, 3);
    VcStateArray &a = v.a;
    const std::size_t s = a.slot(0, 0);
    a.receiveFlit(0, testFlit(FlitType::HeadTail, 0), 1);
    EXPECT_EQ(a.vaCandidates(0), 1u);
    EXPECT_EQ(a.saCandidates(0), 0u);

    // RC: Idle -> WaitVc keeps the VC a VA candidate.
    a.state[s] = VcStateArray::WaitVc;
    a.refreshMask(0, 0);
    EXPECT_EQ(a.vaCandidates(0), 1u);
    EXPECT_EQ(a.vaPorts(), 1u);
    EXPECT_EQ(a.saPorts(), 0u);

    // VA: WaitVc -> Active makes it a switch-allocation candidate.
    a.state[s] = VcStateArray::Active;
    a.refreshMask(0, 0);
    EXPECT_EQ(a.vaCandidates(0), 0u);
    EXPECT_EQ(a.vaPorts(), 0u);
    EXPECT_EQ(a.saCandidates(0), 1u);
    EXPECT_EQ(a.saPorts(), 1u);

    // ST of the tail: an empty Active VC is no candidate at all.
    a.popFlit(0, 0);
    EXPECT_EQ(a.saCandidates(0), 0u);
    EXPECT_EQ(a.saPorts(), 0u);
    a.state[s] = VcStateArray::Idle;
    a.refreshMask(0, 0);
    EXPECT_EQ(a.vaPorts(), 0u);
}

} // namespace
} // namespace inpg

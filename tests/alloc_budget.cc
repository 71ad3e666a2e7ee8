/**
 * @file
 * Heap-allocation budget of System and Workload construction.
 *
 * A separate executable because it replaces the global operator new
 * with a counting one; no other test shares the counter. The budgets
 * pin construction as allocating per component (a few blocks per
 * router, NI, L1 and directory; one per thread) rather than per
 * member, the 16x16 ratio pins the count as linear in the tile count,
 * and the 32x32 byte budget keeps any per-(router, destination) table
 * from coming back.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/stats.hh"
#include "harness/system.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace {

std::size_t allocations = 0;
std::size_t allocatedBytes = 0;

} // namespace

void *
operator new(std::size_t n)
{
    ++allocations;
    allocatedBytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace inpg {
namespace {

SystemConfig
meshInpg(int width)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = width;
    cfg.noc.meshHeight = width;
    cfg.mechanism = Mechanism::Inpg;
    return cfg;
}

/** Heap allocations made by constructing one mesh iNPG System. */
std::size_t
constructionAllocations(int width)
{
    const std::size_t before = allocations;
    System system(meshInpg(width));
    return allocations - before;
}

TEST(AllocBudget, Mesh8x8InpgSystemConstruction)
{
    const std::size_t n = constructionAllocations(8);
    std::printf("mesh 8x8 iNPG System construction: %zu allocations\n", n);
    EXPECT_LE(n, 830u);
}

TEST(AllocBudget, Workload64ThreadConstruction)
{
    // The paper-sweep point shape: one program's locks plus 64 threads
    // on the 8x8 system. Threads share the lock and CS-data arrays, so
    // a thread costs its context and phase recorder, not copies.
    System system(meshInpg(8));
    Workload::Params wp;
    wp.profile = allBenchmarks().front();
    wp.threads = system.config().numCores();
    wp.lockKind = system.config().lockKind;
    const std::size_t before = allocations;
    Workload workload(wp, system.coherent(), system.locks(), system.sim());
    const std::size_t n = allocations - before;
    std::printf("64-thread Workload construction: %zu allocations\n", n);
    EXPECT_LE(n, 160u);
}

TEST(AllocBudget, Mesh32x32SystemBytesStayLinear)
{
    // A dense per-destination route table alone was 2 MB at 32x32
    // (1024 routers x 1024 destinations x 2 bytes); this bound leaves
    // well under that above today's footprint.
    const std::size_t before = allocatedBytes;
    {
        System system(meshInpg(32));
    }
    const std::size_t bytes = allocatedBytes - before;
    std::printf("mesh 32x32 iNPG System construction: %zu bytes\n", bytes);
    EXPECT_LE(bytes, 13'000'000u);
}

TEST(AllocBudget, ConstructionAllocationsGrowLinearly)
{
    const std::size_t n8 = constructionAllocations(8);
    const std::size_t n16 = constructionAllocations(16);
    std::printf("8x8: %zu, 16x16: %zu allocations\n", n8, n16);
    // 4x the tiles; 4.1x leaves room for the per-system constant part
    // and the vectors' geometric growth, not for a per-pair term.
    EXPECT_LE(static_cast<double>(n16), 4.1 * static_cast<double>(n8));
}

TEST(AllocBudget, BumpingAnExistingLazyKeyDoesNotAllocate)
{
    StatGroup g("g");
    ++g.counter("a_key_longer_than_the_small_string_buffer");
    g.sample("another_key_longer_than_the_small_buffer").add(1);
    const std::size_t before = allocations;
    for (int i = 0; i < 100; ++i) {
        ++g.counter("a_key_longer_than_the_small_string_buffer");
        g.sample("another_key_longer_than_the_small_buffer").add(i);
    }
    EXPECT_EQ(allocations, before);
    EXPECT_EQ(g.value("a_key_longer_than_the_small_string_buffer"), 101u);
}

} // namespace
} // namespace inpg

/**
 * @file
 * Heap-allocation budget of System construction.
 *
 * A separate executable because it replaces the global operator new
 * with a counting one; no other test shares the counter. The budget
 * pins construction as allocating per component (a few blocks per
 * router, NI, L1 and directory) rather than per member, and the 16x16
 * ratio pins it as linear in the tile count.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/stats.hh"
#include "harness/system.hh"

namespace {

std::size_t allocations = 0;

} // namespace

void *
operator new(std::size_t n)
{
    ++allocations;
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

/** Heap allocations made by constructing one mesh iNPG System. */
std::size_t
constructionAllocations(int width)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = width;
    cfg.noc.meshHeight = width;
    cfg.mechanism = Mechanism::Inpg;
    const std::size_t before = allocations;
    System system(cfg);
    return allocations - before;
}

TEST(AllocBudget, Mesh8x8InpgSystemConstruction)
{
    const std::size_t n = constructionAllocations(8);
    std::printf("mesh 8x8 iNPG System construction: %zu allocations\n", n);
    EXPECT_LE(n, 2500u);
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

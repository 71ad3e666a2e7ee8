/**
 * @file
 * FlatHashMap tests: randomized differential check against the
 * standard containers under the address distribution the directory
 * actually sees (line-aligned, hot-set skew), growth/rehash behavior
 * and backward-shift deletion.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>

#include "common/flat_hash_map.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace inpg {
namespace {

/** Line-aligned address with a hot working set, as the directory sees. */
Addr
skewedLineAddr(Rng &rng, Addr line_size)
{
    const std::uint64_t line = rng.chance(0.75)
        ? rng.nextBounded(24)        // hot set
        : rng.nextBounded(4096);     // long cold tail
    return static_cast<Addr>(line) * line_size;
}

TEST(FlatHash, MirrorsUnorderedMapUnderSkewedAddrs)
{
    FlatHashMap<Addr, std::uint64_t> flat;
    std::unordered_map<Addr, std::uint64_t> mirror;
    Rng rng(2024);
    for (int op = 0; op < 200000; ++op) {
        const Addr a = skewedLineAddr(rng, 128);
        const std::uint64_t kind = rng.nextBounded(10);
        if (kind < 5) {
            const std::uint64_t v = rng.next();
            flat[a] = v;
            mirror[a] = v;
        } else if (kind < 8) {
            const std::uint64_t *f = flat.find(a);
            auto it = mirror.find(a);
            ASSERT_EQ(f != nullptr, it != mirror.end()) << "addr " << a;
            if (f) {
                ASSERT_EQ(*f, it->second) << "addr " << a;
            }
        } else {
            ASSERT_EQ(flat.erase(a), mirror.erase(a) != 0) << "addr " << a;
        }
        ASSERT_EQ(flat.size(), mirror.size());
    }
    // Full sweep both ways: every mirror entry is in the flat map with
    // the same value, and forEach visits exactly the mirror's entries.
    for (const auto &[k, v] : mirror) {
        const std::uint64_t *f = flat.find(k);
        ASSERT_NE(f, nullptr) << "addr " << k;
        ASSERT_EQ(*f, v) << "addr " << k;
    }
    std::size_t visited = 0;
    flat.forEach([&](const Addr &k, const std::uint64_t &v) {
        auto it = mirror.find(k);
        ASSERT_NE(it, mirror.end()) << "addr " << k;
        ASSERT_EQ(it->second, v) << "addr " << k;
        ++visited;
    });
    EXPECT_EQ(visited, mirror.size());
}

TEST(FlatHash, GrowthRehashPreservesEntries)
{
    FlatHashMap<std::uint64_t, std::uint64_t> flat;
    EXPECT_EQ(flat.capacity(), 0u);
    const std::uint64_t n = 20000;
    for (std::uint64_t i = 0; i < n; ++i)
        flat[i * 128] = i;
    EXPECT_EQ(flat.size(), n);
    EXPECT_GT(flat.rehashes(), 0u);
    // Load factor stays at or under 3/4 after growth.
    EXPECT_GE(flat.capacity() * 3, flat.size() * 4);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t *v = flat.find(i * 128);
        ASSERT_NE(v, nullptr) << i;
        ASSERT_EQ(*v, i);
    }
    EXPECT_EQ(flat.find(n * 128), nullptr);
}

TEST(FlatHash, EraseBackwardShiftKeepsLookupsExact)
{
    // Erase every other entry, then every remaining entry, verifying
    // lookups after each deletion (backward-shift must never strand a
    // displaced key).
    FlatHashMap<std::uint64_t, std::uint64_t> flat;
    std::map<std::uint64_t, std::uint64_t> mirror;
    Rng rng(99);
    for (int i = 0; i < 3000; ++i) {
        // Clustered keys maximize probe-chain overlap.
        const std::uint64_t k = rng.nextBounded(512) * 128;
        flat[k] = k + 1;
        mirror[k] = k + 1;
    }
    bool toggle = false;
    for (auto it = mirror.begin(); it != mirror.end();) {
        toggle = !toggle;
        if (toggle) {
            ASSERT_TRUE(flat.erase(it->first));
            it = mirror.erase(it);
        } else {
            ++it;
        }
        if (mirror.size() % 16 == 0) {
            for (const auto &[k, v] : mirror)
                ASSERT_NE(flat.find(k), nullptr) << "addr " << k;
        }
    }
    for (const auto &[k, v] : mirror)
        ASSERT_TRUE(flat.erase(k));
    EXPECT_TRUE(flat.empty());
}

} // namespace
} // namespace inpg

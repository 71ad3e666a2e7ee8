/**
 * @file
 * Unit tests for the common substrate: RNG, histogram, configuration,
 * string utilities, statistics and logging.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strutil.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r(0);
    std::uint64_t x = r.next();
    EXPECT_NE(x | r.next() | r.next(), 0u);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBounded(13), 13u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(9);
    bool seen[8] = {};
    for (int i = 0; i < 500; ++i)
        seen[r.nextBounded(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, RangeInclusive)
{
    Rng r(5);
    bool lo = false;
    bool hi = false;
    for (int i = 0; i < 500; ++i) {
        auto v = r.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        lo |= v == 3;
        hi |= v == 6;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GeometricMeanApproximatelyHonored)
{
    Rng r(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.nextGeometric(100.0));
    double mean = sum / n;
    EXPECT_NEAR(mean, 100.0, 5.0);
}

TEST(Rng, GeometricMinimumIsOne)
{
    Rng r(17);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(r.nextGeometric(1.5), 1u);
    EXPECT_EQ(r.nextGeometric(1.0), 1u);
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(Histogram, BinsAndOverflow)
{
    Histogram h(10, 4); // bins [0-9] [10-19] [20-29] [30-39], overflow
    h.add(0);
    h.add(9);
    h.add(10);
    h.add(39);
    h.add(40);
    h.add(1000);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 0u);
    EXPECT_EQ(h.binCount(3), 1u);
    EXPECT_EQ(h.overflowCount(), 2u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.min(), 0u);
}

TEST(Histogram, MeanAndReset)
{
    Histogram h(5, 10);
    h.add(10);
    h.add(20);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, PercentileAtBinGranularity)
{
    Histogram h(10, 10);
    for (int i = 0; i < 90; ++i)
        h.add(5); // bin 0
    for (int i = 0; i < 10; ++i)
        h.add(95); // bin 9
    EXPECT_EQ(h.percentile(0.5), 9u);   // upper edge of bin 0
    EXPECT_EQ(h.percentile(0.99), 99u); // upper edge of bin 9
}

TEST(Histogram, RenderListsNonEmptyBins)
{
    Histogram h(10, 4);
    h.add(5);
    h.add(100);
    std::string out = h.render();
    EXPECT_NE(out.find("[0-9]"), std::string::npos);
    EXPECT_NE(out.find(">"), std::string::npos);
    EXPECT_EQ(out.find("[10-19]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------

TEST(Config, ParseStringWithCommentsAndOverrides)
{
    Config c;
    c.loadString("a = 1\n# comment\nb = hello # trailing\n a = 2 \n");
    EXPECT_EQ(c.getInt("a", 0), 2);
    EXPECT_EQ(c.getString("b"), "hello");
    EXPECT_FALSE(c.has("comment"));
}

TEST(Config, TypedGettersAndFallbacks)
{
    Config c;
    c.loadString("i = 42\nd = 2.5\nt = true\nf = off\n");
    EXPECT_EQ(c.getInt("i", -1), 42);
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0), 2.5);
    EXPECT_TRUE(c.getBool("t", false));
    EXPECT_FALSE(c.getBool("f", true));
    EXPECT_EQ(c.getInt("missing", 7), 7);
}

TEST(Config, ArgsParsing)
{
    const char *argv[] = {"prog", "x=3", "verb", "y=z"};
    Config c;
    c.loadArgs(4, argv);
    EXPECT_EQ(c.getInt("x", 0), 3);
    EXPECT_EQ(c.getString("y"), "z");
    EXPECT_FALSE(c.has("verb"));
}

TEST(Config, ArgsDashedForms)
{
    // '=' form and space form must behave identically, bare switches
    // become "1", and dashes map to underscores.
    const char *argv[] = {"prog",        "--trace-out=run.json",
                          "--mesh-width", "4",
                          "--csv",        "--lock-home", "-1",
                          "x=3"};
    Config c;
    c.loadArgs(8, argv);
    EXPECT_EQ(c.getString("trace_out"), "run.json");
    EXPECT_EQ(c.getInt("mesh_width", 0), 4);
    EXPECT_TRUE(c.getBool("csv", false));
    EXPECT_EQ(c.getInt("lock_home", 0), -1);
    EXPECT_EQ(c.getInt("x", 0), 3);
}

TEST(Config, ArgsTrailingSwitchIsBoolean)
{
    const char *argv[] = {"prog", "--dump-stats"};
    Config c;
    c.loadArgs(2, argv);
    EXPECT_TRUE(c.getBool("dump_stats", false));
}

TEST(Config, ArgsStrictRejectsUnknownFlags)
{
    const std::vector<std::string> known = {"mesh_width", "csv"};
    {
        const char *argv[] = {"prog", "--mesh-width=4", "--csv"};
        Config c;
        c.loadArgs(3, argv, known); // all known: fine
        EXPECT_EQ(c.getInt("mesh_width", 0), 4);
    }
    {
        const char *argv[] = {"prog", "--mesh-widht=4"}; // typo
        Config c;
        EXPECT_THROW(c.loadArgs(2, argv, known), FatalError);
    }
    {
        const char *argv[] = {"prog", "stray"}; // positional
        Config c;
        EXPECT_THROW(c.loadArgs(2, argv, known), FatalError);
    }
}

TEST(Config, MalformedLineIsFatal)
{
    Config c;
    EXPECT_THROW(c.loadString("oops\n"), FatalError);
    EXPECT_THROW(c.loadFile("/nonexistent/path/cfg"), FatalError);
}

// ---------------------------------------------------------------------
// strutil
// ---------------------------------------------------------------------

TEST(StrUtil, TrimSplitLower)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim(""), "");
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_TRUE(startsWith("freqmine", "freq"));
    EXPECT_FALSE(startsWith("f", "freq"));
}

TEST(StrUtil, Padding)
{
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("abcdef", 3), "abc");
}

TEST(StrUtil, Parsers)
{
    EXPECT_EQ(parseInt("0x10"), 16);
    EXPECT_EQ(parseInt(" -5 "), -5);
    EXPECT_DOUBLE_EQ(parseDouble("1.5e2"), 150.0);
    EXPECT_TRUE(parseBool("Yes"));
    EXPECT_THROW(parseInt("12abc"), FatalError);
    EXPECT_THROW(parseDouble(""), FatalError);
    EXPECT_THROW(parseBool("maybe"), FatalError);
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

TEST(Stats, CountersAndSamples)
{
    StatGroup g("grp");
    ++g.counter("hits");
    g.counter("hits") += 2;
    EXPECT_EQ(g.value("hits"), 3u);
    EXPECT_EQ(g.value("absent"), 0u);

    g.sample("lat").add(10);
    g.sample("lat").add(30);
    EXPECT_DOUBLE_EQ(g.sampleValue("lat").mean(), 20.0);
    EXPECT_DOUBLE_EQ(g.sampleValue("lat").min(), 10.0);
    EXPECT_DOUBLE_EQ(g.sampleValue("lat").max(), 30.0);
    EXPECT_EQ(g.sampleValue("nothing").count(), 0u);

    std::string dump = g.dump();
    EXPECT_NE(dump.find("grp.hits = 3"), std::string::npos);

    g.reset();
    EXPECT_EQ(g.value("hits"), 0u);
    EXPECT_EQ(g.sampleValue("lat").count(), 0u);
}

// A component-style static key table: eager counters and samples.
constexpr std::string_view TEST_COUNTERS[] = {"beta", "delta"};
constexpr std::string_view TEST_SAMPLES[] = {"lat"};
static_assert(sortedKeys(TEST_COUNTERS) && sortedKeys(TEST_SAMPLES));
constexpr StatKeys TEST_KEYS{TEST_COUNTERS, TEST_SAMPLES};

std::vector<std::pair<std::string, std::uint64_t>>
countersOf(const StatGroup &g)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    g.forEachCounter([&](std::string_view k, std::uint64_t v) {
        out.emplace_back(std::string(k), v);
    });
    return out;
}

std::vector<std::string>
sampleKeysOf(const StatGroup &g)
{
    std::vector<std::string> out;
    g.forEachSample([&](std::string_view k, const SampleStat &) {
        out.emplace_back(k);
    });
    return out;
}

TEST(Stats, EagerKeysExistAtZeroLazyKeysOnFirstBump)
{
    using Row = std::pair<std::string, std::uint64_t>;
    StatGroup g("grp", TEST_KEYS);
    EXPECT_EQ(countersOf(g), (std::vector<Row>{{"beta", 0}, {"delta", 0}}));
    EXPECT_EQ(sampleKeysOf(g), (std::vector<std::string>{"lat"}));
    EXPECT_EQ(g.value("alpha"), 0u); // reading does not create
    EXPECT_EQ(g.sampleValue("a_lat").count(), 0u);
    EXPECT_EQ(countersOf(g).size(), 2u);

    // Lazy keys sort before, between and after the eager ones.
    ++g.counter("alpha");
    ++g.counter("gamma");
    g.counter("zeta") += 5;
    g.counterAt(keyIndex(TEST_COUNTERS, "delta")) = 7;
    EXPECT_EQ(&g.counter("delta"),
              &g.counterAt(keyIndex(TEST_COUNTERS, "delta")));
    g.sample("z_lat").add(4);
    g.sample("a_lat").add(2);
    g.sampleAt(keyIndex(TEST_SAMPLES, "lat")).add(3);
    EXPECT_EQ(&g.sample("lat"), &g.sampleAt(0));
    EXPECT_EQ(countersOf(g),
              (std::vector<Row>{{"alpha", 1},
                                {"beta", 0},
                                {"delta", 7},
                                {"gamma", 1},
                                {"zeta", 5}}));
    EXPECT_EQ(sampleKeysOf(g),
              (std::vector<std::string>{"a_lat", "lat", "z_lat"}));
    EXPECT_EQ(g.dump(), "grp.alpha = 1\n"
                        "grp.beta = 0\n"
                        "grp.delta = 7\n"
                        "grp.gamma = 1\n"
                        "grp.zeta = 5\n"
                        "grp.a_lat = mean 2 min 2 max 2 n 1\n"
                        "grp.lat = mean 3 min 3 max 3 n 1\n"
                        "grp.z_lat = mean 4 min 4 max 4 n 1\n");

    // reset() zeroes values but keeps every key, eager and lazy.
    g.reset();
    EXPECT_EQ(countersOf(g),
              (std::vector<Row>{{"alpha", 0},
                                {"beta", 0},
                                {"delta", 0},
                                {"gamma", 0},
                                {"zeta", 0}}));
    EXPECT_EQ(sampleKeysOf(g),
              (std::vector<std::string>{"a_lat", "lat", "z_lat"}));
    EXPECT_EQ(g.sampleValue("lat").count(), 0u);
}

TEST(Stats, NumberedNameIsBuiltWhenPrinted)
{
    // Components name their group by a prefix and an id; the string
    // exists only in groupName() and dump(), and survives a move.
    StatGroup g("router", 12, TEST_KEYS);
    ++g.counterAt(0);
    EXPECT_EQ(g.groupName(), "router12");
    StatGroup moved(std::move(g));
    EXPECT_EQ(moved.groupName(), "router12");
    EXPECT_EQ(moved.dump().rfind("router12.", 0), 0u) << moved.dump();
    EXPECT_EQ(StatGroup("pktgen", 3).groupName(), "pktgen3");
    EXPECT_EQ(StatGroup("barrier_table").groupName(), "barrier_table");
}

TEST(Stats, ConstructorPointersSurviveTheMoveIntoTheMember)
{
    // A group moved into a default-built member (the lock primitives'
    // `stats = StatGroup(name)`), with pointers cached before the move
    // from the local group, or after it from the member. Both must
    // stay live.
    StatGroup member;
    StatGroup local("comp", TEST_KEYS);
    std::uint64_t *eager = &local.counterAt(0);
    SampleStat *sample = &local.sampleAt(0);
    std::uint64_t *lazy = &local.counter("lazy");
    member = std::move(local);
    ++*eager;
    sample->add(9);
    *lazy += 3;
    EXPECT_EQ(member.groupName(), "comp");
    EXPECT_EQ(member.value("beta"), 1u);
    EXPECT_EQ(member.sampleValue("lat").count(), 1u);
    EXPECT_EQ(member.value("lazy"), 3u);

    StatGroup moved(std::move(member));
    ++*eager;
    EXPECT_EQ(moved.value("beta"), 2u);
    EXPECT_EQ(&moved.counter("lazy"), lazy);
}

TEST(Logging, FatalThrowsPanicKillsNot)
{
    EXPECT_THROW(fatal("bad user input %d", 1), FatalError);
    try {
        fatal("code %d", 42);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
    }
}

} // namespace
} // namespace inpg

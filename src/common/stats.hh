/**
 * @file
 * Lightweight statistics primitives: named scalar counters and sample
 * averages, grouped per component, dumpable as text.
 *
 * A much-reduced analogue of gem5's Stats package: enough to account for
 * every event the paper's evaluation section reports.
 */

#ifndef INPG_COMMON_STATS_HH
#define INPG_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace inpg {

/** Running mean/min/max over double samples. */
class SampleStat
{
  public:
    void
    add(double v)
    {
        ++n;
        total += v;
        if (n == 1 || v < lo)
            lo = v;
        if (n == 1 || v > hi)
            hi = v;
    }

    void
    reset()
    {
        n = 0;
        total = 0;
        lo = 0;
        hi = 0;
    }

    std::uint64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n ? total / static_cast<double>(n) : 0; }
    double min() const { return lo; }
    double max() const { return hi; }

  private:
    std::uint64_t n = 0;
    double total = 0;
    double lo = 0;
    double hi = 0;
};

/** True when `keys` is strictly ascending (usable in static_assert). */
constexpr bool
sortedKeys(std::span<const std::string_view> keys)
{
    for (std::size_t i = 1; i < keys.size(); ++i)
        if (!(keys[i - 1] < keys[i]))
            return false;
    return true;
}

/**
 * The keys a component class registers when it is constructed: one
 * static table per class, shared by every instance. Each list must be
 * strictly ascending, so a key's index is its rank and iteration can
 * merge without sorting; the constructor is consteval, so an unsorted
 * table is a compile error and groups never re-check it at run time.
 */
struct StatKeys {
    constexpr StatKeys() = default;

    consteval StatKeys(std::span<const std::string_view> counter_keys,
                       std::span<const std::string_view> sample_keys)
        : counters(counter_keys), samples(sample_keys)
    {
        if (!sortedKeys(counters) || !sortedKeys(samples))
            throw "StatKeys tables must be strictly ascending";
    }

    std::span<const std::string_view> counters;
    std::span<const std::string_view> samples;
};

/**
 * Index of `key` in a static key table, evaluated at compile time; a
 * key missing from the table is a compile error.
 */
consteval std::size_t
keyIndex(std::span<const std::string_view> table, std::string_view key)
{
    for (std::size_t i = 0; i < table.size(); ++i)
        if (table[i] == key)
            return i;
    throw "stat key missing from its StatKeys table";
}

/**
 * A named group of counters and sample statistics.
 *
 * Components own a StatGroup and bump counters by name; the harness
 * aggregates groups into report tables. Two kinds of key coexist:
 *
 *  - eager keys, named by the class's static StatKeys table: their
 *    values live in one block allocated with the group, exist (at 0)
 *    from construction, and are reached by index (counterAt/sampleAt);
 *  - lazy keys, created by the first counter()/sample() call for a
 *    name outside the table, in an ordered map.
 *
 * Name lookup takes a string_view and never allocates for an existing
 * key. Iteration (forEachCounter/forEachSample, dump) visits the sorted
 * union of both kinds. Value addresses are stable for the group's
 * lifetime, moves included, so hot paths may cache pointers.
 */
class StatGroup
{
  public:
    /**
     * Group of component `id`, with eager keys from a static table:
     * named `prefix` followed by the id ("router" and 12 make
     * "router12"). The numbered name is built only when printed
     * (groupName(), dump()), never at construction. A negative id
     * names the group `prefix` alone.
     */
    explicit StatGroup(std::string prefix = "", int id = -1,
                       const StatKeys &eager_keys = {});

    /** Unnumbered group whose eager keys come from a static table. */
    StatGroup(std::string group_name, const StatKeys &eager_keys)
        : StatGroup(std::move(group_name), -1, eager_keys)
    {}

    StatGroup(StatGroup &&other) noexcept { *this = std::move(other); }
    StatGroup &operator=(StatGroup &&other) noexcept;
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Eager counter by its index in the StatKeys table. */
    std::uint64_t &
    counterAt(std::size_t i)
    {
        INPG_ASSERT(i < keys.counters.size(), "eager counter %zu", i);
        return counters[i];
    }

    /** Eager sample by its index in the StatKeys table. */
    SampleStat &
    sampleAt(std::size_t i)
    {
        INPG_ASSERT(i < keys.samples.size(), "eager sample %zu", i);
        return samples[i];
    }

    /** Reference to (and lazy creation of) a named counter. */
    std::uint64_t &counter(std::string_view key);

    /** Counter value; 0 if never touched. */
    std::uint64_t value(std::string_view key) const;

    /** Reference to (and lazy creation of) a named sample stat. */
    SampleStat &sample(std::string_view key);

    /** Const access; returns empty stat if never touched. */
    const SampleStat &sampleValue(std::string_view key) const;

    /** Zero every counter and sample (keys stay). */
    void reset();

    /** Group name used as a dump prefix (built on each call). */
    std::string groupName() const;

    /** Multi-line "group.key = value" dump. */
    std::string dump() const;

    /** Visit every counter as fn(std::string_view key, uint64_t), sorted. */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        mergeVisit(keys.counters, counters, lazyCounters, fn);
    }

    /** Visit every sample as fn(std::string_view, const SampleStat &). */
    template <typename Fn>
    void
    forEachSample(Fn &&fn) const
    {
        mergeVisit(keys.samples, samples, lazySamples, fn);
    }

  private:
    /** Visit eager (sorted table) and lazy (map) entries in key order. */
    template <typename V, typename Map, typename Fn>
    static void
    mergeVisit(std::span<const std::string_view> eager, const V *vals,
               const Map &lazy, Fn &fn)
    {
        std::size_t i = 0;
        auto it = lazy.begin();
        while (i < eager.size() || it != lazy.end()) {
            if (it == lazy.end() ||
                (i < eager.size() && eager[i] < it->first)) {
                fn(eager[i], vals[i]);
                ++i;
            } else {
                fn(std::string_view(it->first), it->second);
                ++it;
            }
        }
    }

    /** Index of `key` in a sorted eager table, or -1. */
    static std::ptrdiff_t find(std::span<const std::string_view> table,
                               std::string_view key);

    /** The name, or its prefix when nameId >= 0. */
    std::string name;
    int nameId = -1;
    StatKeys keys;

    /**
     * Eager values in one allocation: the samples, then the counters.
     * `samples`/`counters` point into it (null without eager keys).
     */
    std::unique_ptr<std::byte[]> block;
    SampleStat *samples = nullptr;
    std::uint64_t *counters = nullptr;

    std::map<std::string, std::uint64_t, std::less<>> lazyCounters;
    std::map<std::string, SampleStat, std::less<>> lazySamples;
};

} // namespace inpg

#endif // INPG_COMMON_STATS_HH

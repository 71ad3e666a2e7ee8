#include "common/stats.hh"

#include <algorithm>
#include <new>
#include <sstream>
#include <utility>

namespace inpg {

namespace {
const SampleStat EMPTY_SAMPLE;
} // namespace

StatGroup::StatGroup(std::string prefix, int id, const StatKeys &eager_keys)
    : name(std::move(prefix)), nameId(id), keys(eager_keys)
{
    const std::size_t ns = keys.samples.size();
    const std::size_t nc = keys.counters.size();
    if (ns + nc == 0)
        return;
    // operator new[] alignment covers both SampleStat and uint64_t, and
    // the counters start on a SampleStat boundary.
    static_assert(alignof(SampleStat) >= alignof(std::uint64_t));
    block = std::make_unique<std::byte[]>(ns * sizeof(SampleStat) +
                                          nc * sizeof(std::uint64_t));
    samples = reinterpret_cast<SampleStat *>(block.get());
    for (std::size_t i = 0; i < ns; ++i)
        ::new (static_cast<void *>(samples + i)) SampleStat();
    counters = reinterpret_cast<std::uint64_t *>(samples + ns);
    std::fill_n(counters, nc, std::uint64_t{0});
}

StatGroup &
StatGroup::operator=(StatGroup &&other) noexcept
{
    name = std::move(other.name);
    nameId = other.nameId;
    keys = std::exchange(other.keys, StatKeys{});
    block = std::move(other.block);
    samples = std::exchange(other.samples, nullptr);
    counters = std::exchange(other.counters, nullptr);
    lazyCounters = std::move(other.lazyCounters);
    lazySamples = std::move(other.lazySamples);
    return *this;
}

std::ptrdiff_t
StatGroup::find(std::span<const std::string_view> table,
                std::string_view key)
{
    const auto it = std::lower_bound(table.begin(), table.end(), key);
    return it != table.end() && *it == key ? it - table.begin() : -1;
}

std::uint64_t &
StatGroup::counter(std::string_view key)
{
    if (const std::ptrdiff_t i = find(keys.counters, key); i >= 0)
        return counters[i];
    auto it = lazyCounters.find(key);
    if (it == lazyCounters.end())
        it = lazyCounters.emplace(std::string(key), 0).first;
    return it->second;
}

SampleStat &
StatGroup::sample(std::string_view key)
{
    if (const std::ptrdiff_t i = find(keys.samples, key); i >= 0)
        return samples[i];
    auto it = lazySamples.find(key);
    if (it == lazySamples.end())
        it = lazySamples.emplace(std::string(key), SampleStat()).first;
    return it->second;
}

std::uint64_t
StatGroup::value(std::string_view key) const
{
    if (const std::ptrdiff_t i = find(keys.counters, key); i >= 0)
        return counters[i];
    auto it = lazyCounters.find(key);
    return it == lazyCounters.end() ? 0 : it->second;
}

const SampleStat &
StatGroup::sampleValue(std::string_view key) const
{
    if (const std::ptrdiff_t i = find(keys.samples, key); i >= 0)
        return samples[i];
    auto it = lazySamples.find(key);
    return it == lazySamples.end() ? EMPTY_SAMPLE : it->second;
}

void
StatGroup::reset()
{
    std::fill_n(counters, keys.counters.size(), std::uint64_t{0});
    for (std::size_t i = 0; i < keys.samples.size(); ++i)
        samples[i].reset();
    for (auto &kv : lazyCounters)
        kv.second = 0;
    for (auto &kv : lazySamples)
        kv.second.reset();
}

std::string
StatGroup::groupName() const
{
    return nameId < 0 ? name : name + std::to_string(nameId);
}

std::string
StatGroup::dump() const
{
    const std::string label = groupName();
    std::ostringstream os;
    forEachCounter([&](std::string_view key, std::uint64_t v) {
        os << label << "." << key << " = " << v << "\n";
    });
    forEachSample([&](std::string_view key, const SampleStat &s) {
        os << label << "." << key << " = mean " << s.mean() << " min "
           << s.min() << " max " << s.max() << " n " << s.count()
           << "\n";
    });
    return os.str();
}

} // namespace inpg

#include "telemetry/stats_registry.hh"

#include "common/histogram.hh"
#include "common/stats.hh"

namespace inpg {

void
StatsRegistry::addGroup(std::string name, const StatGroup *group)
{
    groups.emplace_back(std::move(name), group);
}

void
StatsRegistry::addScalar(std::string name, std::function<double()> fn)
{
    scalars.emplace_back(std::move(name), std::move(fn));
}

void
StatsRegistry::addHistogram(std::string name, const Histogram *h)
{
    histograms.emplace_back(std::move(name), h);
}

JsonValue
StatsRegistry::groupToJson(const StatGroup &g)
{
    JsonValue j = JsonValue::object();
    JsonValue &counters = j["counters"];
    counters = JsonValue::object();
    g.forEachCounter([&](std::string_view key, std::uint64_t val) {
        counters[std::string(key)] = JsonValue(val);
    });
    JsonValue &samples = j["samples"];
    samples = JsonValue::object();
    g.forEachSample([&](std::string_view key, const SampleStat &s) {
        JsonValue &sj = samples[std::string(key)];
        sj["count"] = JsonValue(s.count());
        sj["sum"] = JsonValue(s.sum());
        sj["mean"] = JsonValue(s.mean());
        sj["min"] = JsonValue(s.min());
        sj["max"] = JsonValue(s.max());
    });
    return j;
}

JsonValue
StatsRegistry::histogramToJson(const Histogram &h)
{
    JsonValue j = JsonValue::object();
    j["count"] = JsonValue(h.count());
    j["sum"] = JsonValue(h.sum());
    j["mean"] = JsonValue(h.mean());
    j["min"] = JsonValue(h.min());
    j["max"] = JsonValue(h.max());
    j["p50"] = JsonValue(h.percentile(0.50));
    j["p99"] = JsonValue(h.percentile(0.99));
    JsonValue &bins = j["bins"];
    bins = JsonValue::array();
    for (std::size_t i = 0; i < h.numBins(); ++i) {
        if (!h.binCount(i))
            continue;
        JsonValue b = JsonValue::object();
        b["lo"] = JsonValue(h.binLo(i));
        b["hi"] = JsonValue(h.binHi(i));
        b["count"] = JsonValue(h.binCount(i));
        bins.push(std::move(b));
    }
    j["overflow"] = JsonValue(h.overflowCount());
    return j;
}

JsonValue
StatsRegistry::snapshot() const
{
    JsonValue doc = JsonValue::object();
    JsonValue &gj = doc["groups"];
    gj = JsonValue::object();
    for (const auto &[name, group] : groups)
        gj[name] = groupToJson(*group);
    JsonValue &sj = doc["scalars"];
    sj = JsonValue::object();
    for (const auto &[name, fn] : scalars)
        sj[name] = JsonValue(fn());
    JsonValue &hj = doc["histograms"];
    hj = JsonValue::object();
    for (const auto &[name, h] : histograms)
        hj[name] = histogramToJson(*h);
    return doc;
}

} // namespace inpg

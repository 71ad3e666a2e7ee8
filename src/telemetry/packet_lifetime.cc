#include "telemetry/packet_lifetime.hh"

#include <algorithm>

#include "coh/coherence_msg.hh"
#include "telemetry/trace_event.hh"

namespace inpg {

namespace {

/** Slice label for a packet: coherence kind if the payload is one. */
const char *
packetLabel(const Packet &pkt)
{
    if (const auto *msg =
            dynamic_cast<const CoherenceMsg *>(pkt.payload.get()))
        return cohMsgKindName(msg->kind);
    return "pkt";
}

} // namespace

PacketLifetimeTracker::PacketLifetimeTracker(TraceEventSink *trace_sink)
    : sink(trace_sink)
{}

PacketLifetimeTracker::Record *
PacketLifetimeTracker::find(PacketId id)
{
    auto it = live.find(id);
    return it == live.end() ? nullptr : &it->second;
}

void
PacketLifetimeTracker::onPacketQueued(const Packet &pkt, Cycle now)
{
    ++stats.counter("packets_tracked");
    Record rec;
    rec.src = pkt.src;
    rec.dst = pkt.dst;
    rec.vnet = pkt.vnet;
    rec.queued = now;
    rec.entered = now;
    live[pkt.id] = std::move(rec);
}

void
PacketLifetimeTracker::onNetworkEntry(PacketId id, Cycle now)
{
    if (Record *rec = find(id))
        rec->entered = now;
}

void
PacketLifetimeTracker::onRouterArrive(NodeId router, PacketId id,
                                      Cycle now)
{
    Record *rec = find(id);
    if (!rec)
        return;
    // Hops per packet are bounded by the mesh diameter; the record
    // retires at ejection.
    rec->hops.push_back( // lint:allow(unbounded-recording)
        Hop{router, now, now, now});
}

void
PacketLifetimeTracker::onVaGrant(NodeId router, PacketId id, Cycle now)
{
    Record *rec = find(id);
    if (!rec || rec->hops.empty())
        return;
    // Hops are pushed in traversal order; the grant belongs to the
    // newest hop through this router.
    for (auto it = rec->hops.rbegin(); it != rec->hops.rend(); ++it) {
        if (it->router == router) {
            it->vaGrant = now;
            return;
        }
    }
}

void
PacketLifetimeTracker::onRouterDepart(NodeId router, PacketId id,
                                      Cycle now)
{
    Record *rec = find(id);
    if (!rec)
        return;
    for (auto it = rec->hops.rbegin(); it != rec->hops.rend(); ++it) {
        if (it->router == router) {
            it->depart = now;
            return;
        }
    }
}

void
PacketLifetimeTracker::onPacketEjected(const Packet &pkt, Cycle now)
{
    auto it = live.find(pkt.id);
    if (it == live.end())
        return;
    Record &rec = it->second;

    ++stats.counter("packets_completed");
    stats.sample("queue_wait")
        .add(static_cast<double>(rec.entered - rec.queued));
    stats.sample("net_latency")
        .add(static_cast<double>(now - rec.entered));
    stats.sample("total_latency")
        .add(static_cast<double>(now - rec.queued));
    stats.sample("hops").add(static_cast<double>(rec.hops.size()));

    SampleStat &bufWait = stats.sample("hop_buffer_wait");
    SampleStat &stWait = stats.sample("hop_switch_wait");
    const char *label = sink ? packetLabel(pkt) : nullptr;
    for (const Hop &h : rec.hops) {
        bufWait.add(static_cast<double>(h.vaGrant - h.arrive));
        stWait.add(static_cast<double>(h.depart - h.vaGrant));
        if (sink && h.depart > h.arrive) {
            sink->duration(TrackGroup::Routers,
                           static_cast<std::uint32_t>(h.router), label,
                           h.arrive, h.depart - h.arrive, pkt.id);
        }
    }
    if (sink) {
        if (rec.entered > rec.queued) {
            sink->duration(TrackGroup::NetworkInterfaces,
                           static_cast<std::uint32_t>(rec.src), label,
                           rec.queued, rec.entered - rec.queued, pkt.id);
        }
        sink->instant(TrackGroup::NetworkInterfaces,
                      static_cast<std::uint32_t>(rec.dst), label, now,
                      pkt.id);
    }

    live.erase(it);
}

JsonValue
PacketLifetimeTracker::inFlightJson(Cycle now) const
{
    std::vector<const std::pair<const PacketId, Record> *> sorted;
    sorted.reserve(live.size());
    for (const auto &kv : live)
        sorted.push_back(&kv);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto *a, const auto *b) {
                  return a->first < b->first;
              });

    JsonValue out = JsonValue::array();
    for (const auto *kv : sorted) {
        const Record &rec = kv->second;
        JsonValue p = JsonValue::object();
        p["id"] = static_cast<std::uint64_t>(kv->first);
        p["src"] = static_cast<long long>(rec.src);
        p["dst"] = static_cast<long long>(rec.dst);
        p["vnet"] = static_cast<long long>(rec.vnet);
        p["queued"] = static_cast<std::uint64_t>(rec.queued);
        p["entered"] = static_cast<std::uint64_t>(rec.entered);
        p["age"] = static_cast<std::uint64_t>(now - rec.queued);
        JsonValue hops = JsonValue::array();
        for (const Hop &h : rec.hops) {
            JsonValue hj = JsonValue::object();
            hj["router"] = static_cast<long long>(h.router);
            hj["arrive"] = static_cast<std::uint64_t>(h.arrive);
            hj["va_grant"] = static_cast<std::uint64_t>(h.vaGrant);
            hj["depart"] = static_cast<std::uint64_t>(h.depart);
            hops.push(std::move(hj));
        }
        p["hops"] = std::move(hops);
        out.push(std::move(p));
    }
    return out;
}

} // namespace inpg

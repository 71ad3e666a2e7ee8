/**
 * @file
 * Packet-lifetime tracker: stamps every in-flight packet at hop
 * granularity -- NI inject, per-router head arrival / VC allocation /
 * switch traversal, NI eject -- and rolls the stamps into latency
 * statistics and (optionally) Chrome-trace slices, one track per
 * router and network interface.
 *
 * Records live only while their packet is in flight: the eject hook
 * folds the record into running statistics, emits its trace slices,
 * and erases it, so memory stays bounded by the number of packets
 * simultaneously in the network.
 */

#ifndef INPG_TELEMETRY_PACKET_LIFETIME_HH
#define INPG_TELEMETRY_PACKET_LIFETIME_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "noc/packet.hh"
#include "telemetry/json.hh"

namespace inpg {

class TraceEventSink;

/** Hop-granular lifecycle observer for NoC packets. */
class PacketLifetimeTracker
{
  public:
    /** @param sink Optional Chrome-trace sink for per-hop slices. */
    explicit PacketLifetimeTracker(TraceEventSink *sink = nullptr);

    /** Packet accepted by a source NI (or synthesized by a big router). */
    void onPacketQueued(const Packet &pkt, Cycle now);

    /** Head flit left the source queue onto the fabric. */
    void onNetworkEntry(PacketId id, Cycle now);

    /** Head flit buffered at a router's input unit. */
    void onRouterArrive(NodeId router, PacketId id, Cycle now);

    /** Router granted the packet an output virtual channel. */
    void onVaGrant(NodeId router, PacketId id, Cycle now);

    /** Head flit traversed the router's crossbar (ST stage). */
    void onRouterDepart(NodeId router, PacketId id, Cycle now);

    /** Tail flit reassembled at the destination NI. */
    void onPacketEjected(const Packet &pkt, Cycle now);

    /** Aggregated latency statistics over completed packets. */
    const StatGroup &statGroup() const { return stats; }

    /** Packets currently tracked in flight. */
    std::size_t inFlight() const { return live.size(); }

    /**
     * In-flight transaction waterfall for the hang report: every live
     * packet with its per-router hop stamps, sorted by packet id so
     * the output is deterministic regardless of hash-map order.
     */
    JsonValue inFlightJson(Cycle now) const;

  private:
    struct Hop {
        NodeId router;
        Cycle arrive;
        Cycle vaGrant;
        Cycle depart;
    };

    struct Record {
        NodeId src;
        NodeId dst;
        VnetId vnet;
        Cycle queued;
        Cycle entered;
        std::vector<Hop> hops;
    };

    Record *find(PacketId id);

    TraceEventSink *sink;
    std::unordered_map<PacketId, Record> live;
    StatGroup stats{"packets"};
};

} // namespace inpg

#endif // INPG_TELEMETRY_PACKET_LIFETIME_HH

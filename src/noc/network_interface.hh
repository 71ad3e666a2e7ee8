/**
 * @file
 * Network interface (NI): the tile-side endpoint of the NoC.
 *
 * The NI serializes outbound packets into flits (performing VC selection
 * for the router's local input port), injects at most one flit per cycle
 * (128-bit link), reassembles inbound flits into packets and delivers
 * them to the attached controller via a callback.
 *
 * Concentration (cmesh): one NI serves the `concentration` cores of its
 * router -- nodes [id * concentration, (id + 1) * concentration). The
 * cores' traffic fans into the shared local port through the per-vnet
 * inject queues (the clock-derived vnet rotation plus the inflight
 * round-robin are the fan-in arbitration), and inbound packets demux to
 * a per-node deliver callback. With concentration == 1 this degenerates
 * to the classic one-NI-per-core tile, bit-identically.
 */

#ifndef INPG_NOC_NETWORK_INTERFACE_HH
#define INPG_NOC_NETWORK_INTERFACE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/link.hh"
#include "noc/noc_config.hh"
#include "noc/output_unit.hh"
#include "noc/ring_buffer.hh"
#include "sim/ticking.hh"
#include "telemetry/json.hh"

namespace inpg {

class Telemetry;

/** Endpoint adapter between tile controllers and the router fabric. */
class NetworkInterface : public Ticking
{
  public:
    using DeliverFn = std::function<void(const PacketPtr &, Cycle)>;

    /** @param telemetry Event stream; null when telemetry is off. */
    NetworkInterface(NodeId node_id, const NocConfig &cfg,
                     Telemetry *telemetry = nullptr);

    /**
     * @param to_router   channel whose flit line the NI drives
     *                    (credits return to the NI on it)
     * @param from_router channel whose flit line feeds the NI
     *                    (the NI returns credits on it)
     */
    void connect(Channel *to_router, Channel *from_router);

    /** Register the packet sink for one served node (tile demux). */
    void
    setDeliverCallback(NodeId node, DeliverFn fn)
    {
        INPG_ASSERT(servesNode(node), "NI %d does not serve node %d", id,
                    node);
        deliver[static_cast<std::size_t>(node - baseNode)] =
            std::move(fn);
    }

    /**
     * Queue a packet for injection. Takes effect the cycle after the
     * call (the NI charges one cycle of injection latency).
     */
    void sendPacket(const PacketPtr &pkt, Cycle now);

    void tick(Cycle now) override;

    std::string tickName() const override;

    HostPhase hostPhase() const override { return HostPhase::Ni; }

    NodeId nodeId() const { return id; }

    /** First node this NI serves (== nodeId() when concentration 1). */
    NodeId baseNodeId() const { return baseNode; }

    /** True when `node` attaches to this NI's router. */
    bool
    servesNode(NodeId node) const
    {
        return node >= baseNode &&
               node < baseNode + static_cast<NodeId>(deliver.size());
    }

    /** True when no packet is queued, serializing, or reassembling. */
    bool idle() const;

    /**
     * Endpoint state for the hang report: per-vnet inject-queue
     * depths, packets mid-serialization, reassembly occupancy.
     */
    JsonValue debugJson() const;

    StatGroup stats;

  private:
    void drainCredits(Cycle now);
    void ejectFlits(Cycle now);
    void allocateInjectVcs(Cycle now);
    void injectOneFlit(Cycle now);

    NodeId id;
    NocConfig cfg;

    /** First served node (id * concentration). */
    NodeId baseNode;

    /** Per-served-node packet sinks, indexed by node - baseNode. */
    std::vector<DeliverFn> deliver;

    Channel *txChannel = nullptr;
    Channel *rxChannel = nullptr;

    /** Mirror of the router's local input port VC/credit state. */
    OutputUnit routerPort;

    /** Per-vnet queues of packets awaiting a VC. */
    std::vector<RingBuffer<PacketPtr, 8>> injectQueues;

    /** Packets currently being serialized, keyed by allocated VC. */
    struct InFlight {
        PacketPtr pkt;
        int nextSeq = 0;
        VcId vc = INVALID_VC;
    };
    std::vector<InFlight> inflight;

    /** Per-VC reassembly buffers for inbound flits. */
    std::vector<std::vector<FlitPtr>> reassembly;

    std::size_t inflightPointer = 0;

    /**
     * Cached aggregate occupancy (packets across injectQueues, flits
     * across reassembly) so the per-cycle idle/early-out checks are one
     * compare instead of a walk over every queue.
     */
    std::size_t queuedPkts = 0;
    std::size_t reassemblingFlits = 0;

    /** Telemetry event stream; null when telemetry is off. */
    Telemetry *telem;

    /** Cached hot stat handles (eager keys, taken by index). */
    std::uint64_t *packetsQueuedCtr = nullptr;
    std::uint64_t *packetsDeliveredCtr = nullptr;
    std::uint64_t *packetsSentCtr = nullptr;
    std::uint64_t *flitsSentCtr = nullptr;
    SampleStat *packetLatencySample = nullptr;
};

} // namespace inpg

#endif // INPG_NOC_NETWORK_INTERFACE_HH

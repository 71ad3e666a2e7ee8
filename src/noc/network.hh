/**
 * @file
 * Network: owns and wires the full NoC (routers, NIs, channels) from a
 * Topology (mesh, torus or concentrated mesh) and provides the endpoint
 * API used by the coherence controllers.
 */

#ifndef INPG_NOC_NETWORK_HH
#define INPG_NOC_NETWORK_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "noc/link.hh"
#include "noc/network_interface.hh"
#include "noc/noc_config.hh"
#include "noc/router.hh"
#include "noc/routing.hh"
#include "noc/topology.hh"
#include "sim/simulator.hh"

namespace inpg {

/**
 * Creates the router for a node; the harness substitutes BigRouter
 * instances at iNPG deployment sites through this hook.
 */
using RouterFactory = std::function<std::unique_ptr<Router>(
    NodeId, const NocConfig &, const RouterEnv &)>;

/** The complete on-chip network of one simulated system. */
class Network
{
  public:
    /**
     * Build the fabric described by cfg.topology, register all
     * components with the simulator, and wire every channel.
     *
     * @param cfg     NoC parameters
     * @param sim     kernel the components register with
     * @param factory optional per-router router factory
     */
    Network(const NocConfig &cfg, Simulator &sim,
            RouterFactory factory = nullptr);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    const NocConfig &config() const { return cfg; }
    const Topology &topology() const { return *topo; }
    const MeshShape &shape() const { return topo->routerGrid(); }
    const RoutingAlgorithm &routing() const { return *routingAlgo; }

    /** Router by router id (0 .. numRouters() - 1). */
    Router &router(NodeId id);

    /** NI by router id; one NI serves a router's attached cores. */
    NetworkInterface &ni(NodeId id);

    /** NI serving a node (core) id. */
    NetworkInterface &
    niFor(NodeId node)
    {
        return ni(topo->routerOf(node));
    }

    int numNodes() const { return cfg.numNodes(); }
    int numRouters() const { return cfg.numRouters(); }

    /** Allocate a packet with a fresh network-unique id. */
    PacketPtr makePacket(NodeId src, NodeId dst, VnetId vnet, int num_flits,
                         std::shared_ptr<PacketData> payload = nullptr);

    /** Inject a packet at its source NI. */
    void inject(const PacketPtr &pkt, Cycle now);

    /** True when no flit or packet is anywhere in the fabric. */
    bool quiescent() const;

    /** Sum a counter across all NIs. */
    std::uint64_t niCounterTotal(std::string_view key) const;

  private:
    NocConfig cfg;
    std::unique_ptr<Topology> topo;
    std::unique_ptr<RoutingAlgorithm> routingAlgo;
    /**
     * Every router's input-VC storage (Router::vcStorageBytes() each),
     * in one block; declared before `routers` so it outlives them.
     */
    std::unique_ptr<std::byte[]> vcSlab;
    std::vector<std::unique_ptr<Router>> routers;
    std::vector<std::unique_ptr<NetworkInterface>> nis;
    /**
     * Every channel, contiguous. Reserved to the exact count before the
     * first one is built, so the addresses handed to routers and NIs
     * never move.
     */
    std::vector<Channel> channels;
    PacketId nextPacketId = 0;

    Channel *newChannel();
};

} // namespace inpg

#endif // INPG_NOC_NETWORK_HH

#include "noc/network.hh"

#include "common/logging.hh"

namespace inpg {

Network::Network(const NocConfig &config, Simulator &sim,
                 RouterFactory factory)
    : cfg(config), topo(makeTopology(config))
{
    routingAlgo = topo->makeRouting();
    const int n = topo->numRouters();
    routers.reserve(static_cast<std::size_t>(n));
    nis.reserve(static_cast<std::size_t>(n));

    // Routers and NIs keep the event stream installed in the kernel.
    Telemetry *telem = sim.telemetry();
    const std::size_t vc_bytes = Router::vcStorageBytes(cfg);
    vcSlab = std::make_unique_for_overwrite<std::byte[]>(
        static_cast<std::size_t>(n) * vc_bytes);
    for (NodeId id = 0; id < n; ++id) {
        const RouterEnv env{routingAlgo.get(), telem,
                            vcSlab.get() +
                                static_cast<std::size_t>(id) * vc_bytes};
        if (factory)
            routers.push_back(factory(id, cfg, env));
        else
            routers.push_back(std::make_unique<Router>(id, cfg, env));
        nis.push_back(std::make_unique<NetworkInterface>(id, cfg, telem));
    }

    // Two channels per NI and two per inter-router link.
    const std::vector<TopoLink> links = topo->links();
    channels.reserve(2 * (static_cast<std::size_t>(n) + links.size()));

    // Local port wiring: NI <-> router.
    for (NodeId id = 0; id < n; ++id) {
        Channel *to_router = newChannel();
        Channel *from_router = newChannel();
        routers[static_cast<std::size_t>(id)]->connectInput(
            Direction::Local, to_router);
        routers[static_cast<std::size_t>(id)]->connectOutput(
            Direction::Local, from_router);
        nis[static_cast<std::size_t>(id)]->connect(to_router, from_router);
    }

    // Inter-router wiring from the topology's canonical link list (the
    // mesh subset enumerates in the same order the old builder did, so
    // channel construction order is unchanged on meshes).
    for (const TopoLink &link : links) {
        Channel *fwd = newChannel();
        Channel *rev = newChannel();
        routers[static_cast<std::size_t>(link.from)]->connectOutput(
            link.dir, fwd);
        routers[static_cast<std::size_t>(link.to)]->connectInput(
            opposite(link.dir), fwd);
        routers[static_cast<std::size_t>(link.to)]->connectOutput(
            opposite(link.dir), rev);
        routers[static_cast<std::size_t>(link.from)]->connectInput(
            link.dir, rev);
    }

    // Deterministic tick order: all routers, then all NIs.
    for (auto &r : routers)
        sim.addTicking(r.get());
    for (auto &ni_ptr : nis)
        sim.addTicking(ni_ptr.get());
}

Channel *
Network::newChannel()
{
    INPG_ASSERT(channels.size() < channels.capacity(),
                "channel storage would move");
    return &channels.emplace_back(cfg.linkLatency);
}

Router &
Network::router(NodeId id)
{
    INPG_ASSERT(id >= 0 && id < numRouters(), "router id %d out of range",
                id);
    return *routers[static_cast<std::size_t>(id)];
}

NetworkInterface &
Network::ni(NodeId id)
{
    INPG_ASSERT(id >= 0 && id < numRouters(), "NI id %d out of range", id);
    return *nis[static_cast<std::size_t>(id)];
}

PacketPtr
Network::makePacket(NodeId src, NodeId dst, VnetId vnet, int num_flits,
                    std::shared_ptr<PacketData> payload)
{
    INPG_ASSERT(num_flits >= 1, "packet needs at least one flit");
    return std::make_shared<Packet>(nextPacketId++, src, dst, vnet,
                                    num_flits, std::move(payload));
}

void
Network::inject(const PacketPtr &pkt, Cycle now)
{
    niFor(pkt->src).sendPacket(pkt, now);
}

bool
Network::quiescent() const
{
    for (const auto &r : routers)
        if (r->bufferedFlits() != 0)
            return false;
    for (const auto &ni_ptr : nis)
        if (!ni_ptr->idle())
            return false;
    for (const Channel &ch : channels)
        if (!ch.flits.empty())
            return false;
    return true;
}

std::uint64_t
Network::niCounterTotal(std::string_view key) const
{
    std::uint64_t total = 0;
    for (const auto &ni_ptr : nis)
        total += ni_ptr->stats.value(key);
    return total;
}

} // namespace inpg

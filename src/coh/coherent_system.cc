#include "coh/coherent_system.hh"

#include "common/logging.hh"
#include "inpg/big_router.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

CoherentSystem::CoherentSystem(const NocConfig &noc_cfg,
                               const CohConfig &coh_cfg_in, Simulator &sim,
                               RouterFactory factory)
    : cohCfg(coh_cfg_in)
{
    cohCfg.numNodes = noc_cfg.numNodes();
    stats = std::make_unique<CohStats>(cohCfg.numNodes);
    net = std::make_unique<Network>(noc_cfg, sim, std::move(factory));

    // Eight memory controllers on the target chip; scale the count with
    // the mesh so small test meshes get at least one.
    const int num_mcs = std::max(1, std::min(8, noc_cfg.meshWidth));
    mcs.reserve(static_cast<std::size_t>(num_mcs));
    for (int i = 0; i < num_mcs; ++i) {
        mcs.push_back(
            std::make_unique<MemoryController>(i, sim, cohCfg.memLatency));
    }

    // Big routers report Inv-Ack round trips into the shared sink.
    for (NodeId r = 0; r < noc_cfg.numRouters(); ++r) {
        if (auto *br = dynamic_cast<BigRouter *>(&net->router(r)))
            br->generator().setCohStats(stats.get());
    }

    l1s.reserve(static_cast<std::size_t>(noc_cfg.numNodes()));
    dirs.reserve(static_cast<std::size_t>(noc_cfg.numNodes()));
    for (NodeId n = 0; n < noc_cfg.numNodes(); ++n) {
        l1s.push_back(std::make_unique<L1Controller>(
            n, n, cohCfg, *net, sim, stats.get()));
        // Column-interleaved MC assignment (the chip attaches MCs to
        // the top/bottom middle columns; the bank-to-MC map is even).
        MemoryController *mc =
            mcs[static_cast<std::size_t>(n % num_mcs)].get();
        dirs.push_back(std::make_unique<Directory>(n, cohCfg, *net, sim,
                                                   mc, stats.get()));
        sim.addTicking(dirs.back().get());

        L1Controller *l1p = l1s.back().get();
        Directory *dirp = dirs.back().get();
        net->niFor(n).setDeliverCallback(
            n, [l1p, dirp](const PacketPtr &pkt, Cycle now) {
                auto msg =
                    std::static_pointer_cast<CoherenceMsg>(pkt->payload);
                INPG_ASSERT(msg != nullptr,
                            "non-coherence packet delivered to a tile");
                if (msg->toDirectory)
                    dirp->receiveMessage(msg, now);
                else
                    l1p->receiveMessage(msg, now);
            });
    }

    // Chrome-trace track titles: routers, then NIs, then directories.
    Telemetry *t = sim.telemetry();
    if (!t || !t->trace)
        return;
    for (NodeId r = 0; r < net->numRouters(); ++r)
        t->trace->nameTrack(TrackGroup::Routers, r,
                            format("%srouter %d",
                                   net->router(r).isBigRouter() ? "big "
                                                                : "",
                                   r));
    for (NodeId r = 0; r < net->numRouters(); ++r)
        t->trace->nameTrack(TrackGroup::NetworkInterfaces, r,
                            format("ni %d", r));
    for (NodeId n = 0; n < noc_cfg.numNodes(); ++n)
        t->trace->nameTrack(TrackGroup::Directories, n,
                            format("dir %d", n));
}

L1Controller &
CoherentSystem::l1(CoreId core)
{
    INPG_ASSERT(core >= 0 && core < numCores(), "bad core id %d", core);
    return *l1s[static_cast<std::size_t>(core)];
}

Directory &
CoherentSystem::directory(NodeId node)
{
    INPG_ASSERT(node >= 0 && node < numCores(), "bad node id %d", node);
    return *dirs[static_cast<std::size_t>(node)];
}

MemoryController &
CoherentSystem::memoryController(int idx)
{
    INPG_ASSERT(idx >= 0 && idx < static_cast<int>(mcs.size()),
                "bad MC index %d", idx);
    return *mcs[static_cast<std::size_t>(idx)];
}

Directory &
CoherentSystem::homeOf(Addr addr)
{
    return directory(cohCfg.homeOf(addr));
}

std::string
CoherentSystem::checkSwmr(Addr addr) const
{
    int writers = 0;
    int owners = 0;
    int sharers = 0;
    for (const auto &l1 : l1s) {
        switch (l1->lineState(addr)) {
          case L1State::M:
          case L1State::E:
            ++writers;
            break;
          case L1State::O:
            ++owners;
            break;
          case L1State::S:
            ++sharers;
            break;
          case L1State::I:
            break;
        }
    }
    if (writers > 1)
        return format("%d cores hold M/E on 0x%llx", writers,
                      static_cast<unsigned long long>(addr));
    if (writers == 1 && (sharers > 0 || owners > 0))
        return format("M/E coexists with %d sharers / %d owners on "
                      "0x%llx",
                      sharers, owners,
                      static_cast<unsigned long long>(addr));
    if (owners > 1)
        return format("%d cores hold O on 0x%llx", owners,
                      static_cast<unsigned long long>(addr));
    return "";
}

void
CoherentSystem::setOpLog(const L1Controller::OpLogFn &fn)
{
    for (auto &l1 : l1s)
        l1->setOpLog(fn);
}

} // namespace inpg

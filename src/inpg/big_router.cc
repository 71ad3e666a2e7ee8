#include "inpg/big_router.hh"

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

BigRouter::BigRouter(NodeId node_id, const NocConfig &noc_cfg,
                     const RouterEnv &env, const InpgConfig &inpg_cfg,
                     const CohConfig &coh_cfg)
    : Router(node_id, noc_cfg, env),
      brNode(node_id * noc_cfg.concentration),
      gen(brNode, inpg_cfg, coh_cfg), cohCfg(coh_cfg),
      // Generated packets need ids that cannot collide with the
      // Network's allocator; tag them with the node in the top bits.
      nextGenPacketId((static_cast<PacketId>(node_id) << 40) |
                      (1ULL << 63))
{
    addGeneratorPort();
}

void
BigRouter::onHeadFlitArrived(const FlitPtr &flit, int inport, Cycle now)
{
    (void)inport;
    auto msg = std::dynamic_pointer_cast<CoherenceMsg>(
        flit->packet->payload);
    if (!msg)
        return;

    // Relay InvAcks answering our early invalidations toward the home
    // node (header rewrite before route computation).
    if (flit->packet->dst == brNode &&
        msg->kind == CohMsgKind::InvAck && msg->fromBigRouter) {
        NodeId home = gen.onInvAckArrival(msg, now);
        if (Telemetry *t = telemetry()) {
            t->emit({SimEventKind::BrAckRelay, now, nodeId(), msg->addr,
                     home, msg.get()});
        }
        if (home != INVALID_NODE) {
            flit->packet->dst = home;
            msg->toDirectory = true;
            ++stats.counter("inv_acks_relayed");
        }
        return;
    }

    // Stop later GetX[lock] arrivals under an existing barrier.
    CohMsgPtr inv = gen.onGetXArrival(msg, now);
    if (inv) {
        if (Telemetry *t = telemetry()) {
            t->emit({SimEventKind::BrStop, now, nodeId(), msg->addr,
                     msg->requester, msg.get()});
        }
        auto pkt = std::make_shared<Packet>(nextGenPacketId++, brNode,
                                            static_cast<NodeId>(
                                                inv->requester),
                                            vnetForKind(inv->kind),
                                            /*num_flits=*/1, inv);
        injectGenerated(pkt, now);
        ++stats.counter("early_invs_injected");
    }
}

void
BigRouter::onHeadFlitGranted(const FlitPtr &flit, int inport,
                             Direction outport, Cycle now)
{
    (void)inport;
    (void)outport;
    auto msg = std::dynamic_pointer_cast<CoherenceMsg>(
        flit->packet->payload);
    if (!msg)
        return;
    gen.onGetXTransfer(msg, now);
}

void
BigRouter::generatorPhase(Cycle now)
{
    gen.maintain(now);
}

JsonValue
BigRouter::debugJson(Cycle now) const
{
    JsonValue out = Router::debugJson(now);
    out["barriers"] = gen.barrierTable().debugJson(now);
    return out;
}

RouterFactory
makeInpgRouterFactory(const InpgConfig &inpg_cfg, const CohConfig &coh_cfg)
{
    return [inpg_cfg, coh_cfg](NodeId id, const NocConfig &noc_cfg,
                               const RouterEnv &env)
               -> std::unique_ptr<Router> {
        CohConfig coh = coh_cfg;
        coh.numNodes = noc_cfg.numNodes();
        if (isBigRouterNode(id, noc_cfg.meshWidth, noc_cfg.meshHeight,
                            inpg_cfg.numBigRouters)) {
            return std::make_unique<BigRouter>(id, noc_cfg, env, inpg_cfg,
                                               coh);
        }
        return std::make_unique<Router>(id, noc_cfg, env);
    };
}

} // namespace inpg

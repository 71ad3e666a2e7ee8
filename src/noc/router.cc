#include "noc/router.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "telemetry/packet_lifetime.hh"

namespace inpg {

Router::Router(NodeId node_id, const NocConfig &config_in,
               const RoutingAlgorithm *routing)
    : id(node_id), cfg(config_in), router(routing)
{
    INPG_ASSERT(routing != nullptr, "router %d needs a routing algorithm",
                node_id);
    if (cfg.precomputeRoutes)
        routeTable = routing->buildTable(node_id, cfg.numNodes());
    stats = StatGroup(format("router%d", node_id));
    // SoA layout: one flat VC-state block sized for every port the
    // router can ever have (the generator port arrives after
    // construction). Oversized configurations fall back to the
    // object-per-VC layout so the 64-bit masks always suffice.
    if (cfg.soaVcState &&
        VcStateArray::fits(NUM_PORTS + 1, cfg.totalVcs())) {
        soa = std::make_unique<VcStateArray>(NUM_PORTS + 1,
                                             cfg.totalVcs(), cfg.vcDepth);
    }
    inputs.reserve(NUM_PORTS + 1);
    inChannels.reserve(NUM_PORTS + 1);
    for (int p = 0; p < NUM_PORTS; ++p) {
        if (!soa) {
            inputs.push_back(
                std::make_unique<InputUnit>(cfg.totalVcs(), cfg.vcDepth));
        }
        inChannels.push_back(nullptr);
        outputs[static_cast<std::size_t>(p)] =
            std::make_unique<OutputUnit>(cfg.totalVcs(), cfg.vcDepth);
        saOutportArb[static_cast<std::size_t>(p)] =
            std::make_unique<PriorityArbiter>(NUM_PORTS + 1,
                                              cfg.agingQuantum);
    }
    nInPorts = NUM_PORTS;
    for (int p = 0; p < NUM_PORTS + 1; ++p) {
        saInportArb.push_back(std::make_unique<PriorityArbiter>(
            static_cast<std::size_t>(cfg.totalVcs()), cfg.agingQuantum));
    }
    saVcReqScratch.resize(static_cast<std::size_t>(cfg.totalVcs()));
    saPortReqScratch.resize(NUM_PORTS + 1);
    inportWinnerScratch.resize(NUM_PORTS + 1, INVALID_VC);
    saInportVnetPtr.resize(NUM_PORTS + 1, 0);
    flitsReceivedCtr = &stats.counter("flits_received");
    flitsSentCtr = &stats.counter("flits_sent");
    packetsRoutedCtr = &stats.counter("packets_routed");
    vaGrantsCtr = &stats.counter("va_grants");
}

void
Router::connectInput(Direction d, Channel *channel)
{
    INPG_ASSERT(channel != nullptr, "null input channel");
    inChannels[static_cast<std::size_t>(d)] = channel;
    channel->setFlitSink(this);
    rebuildConnectedLists();
}

void
Router::connectOutput(Direction d, Channel *channel)
{
    INPG_ASSERT(channel != nullptr, "null output channel");
    outputs[static_cast<std::size_t>(d)]->connect(channel);
    channel->setCreditSink(this);
    rebuildConnectedLists();
}

void
Router::rebuildConnectedLists()
{
    // Rebuilt on every connect call (construction-time only). Ascending
    // port order keeps drain iteration identical to a full port scan.
    flitSources.clear();
    for (int p = 0; p < numInPorts(); ++p) {
        if (Channel *ch = inChannels[static_cast<std::size_t>(p)])
            flitSources.push_back({ch, p});
    }
    creditSources.clear();
    for (int p = 0; p < NUM_PORTS; ++p) {
        OutputUnit &ou = *outputs[static_cast<std::size_t>(p)];
        if (ou.outChannel())
            creditSources.push_back({ou.outChannel(), &ou});
    }
}

int
Router::addGeneratorPort()
{
    INPG_ASSERT(genPort < 0, "generator port already present");
    if (!soa) {
        inputs.push_back(
            std::make_unique<InputUnit>(cfg.totalVcs(), cfg.vcDepth));
    }
    // The SoA block is already sized for this port (NUM_PORTS + 1).
    inChannels.push_back(nullptr);
    genPort = nInPorts;
    ++nInPorts;
    return genPort;
}

void
Router::injectGenerated(const PacketPtr &pkt, Cycle now)
{
    INPG_ASSERT(genPort >= 0, "no generator port on router %d", id);
    INPG_ASSERT(pkt->numFlits == 1,
                "generated packets must be single-flit control messages");
    (void)now;
    genQueue.push_back(pkt);
    ++stats.counter("gen_packets_queued");
    wakeSelf();
}

std::string
Router::tickName() const
{
    return format("router%d", id);
}

std::size_t
Router::bufferedFlits() const
{
    if (soa)
        return soa->totalOccupancy();
    std::size_t n = 0;
    for (const auto &iu : inputs)
        n += iu->totalOccupancy();
    return n;
}

Router::VcSnapshot
Router::vcSnapshot(int port, VcId v) const
{
    if (soa) {
        const std::size_t s = soa->slot(port, v);
        return {soa->state[s], soa->vcOccupancy(s), soa->outPort[s],
                soa->outClass[s], soa->outVc[s], soa->headAt[s]};
    }
    const VirtualChannel &ch = inputs[static_cast<std::size_t>(port)]->vc(v);
    std::uint8_t st = VcStateArray::Idle;
    if (ch.state == VirtualChannel::State::WaitVc)
        st = VcStateArray::WaitVc;
    else if (ch.state == VirtualChannel::State::Active)
        st = VcStateArray::Active;
    return {st, ch.buffer.size(), ch.outPort, ch.outClass, ch.outVc,
            ch.headEnqueuedAt};
}

JsonValue
Router::debugJson(Cycle now) const
{
    JsonValue out = JsonValue::object();
    out["node"] = static_cast<long long>(id);
    out["buffered_flits"] = static_cast<std::uint64_t>(bufferedFlits());
    out["gen_queue"] = static_cast<std::uint64_t>(genQueue.size());

    // Reads go through vcSnapshot() so both VC-state layouts emit
    // byte-identical reports.
    JsonValue vcs = JsonValue::array();
    for (int p = 0; p < numInPorts(); ++p) {
        for (VcId v = 0; v < cfg.totalVcs(); ++v) {
            const VcSnapshot ch = vcSnapshot(p, v);
            if (ch.state == VcStateArray::Idle && ch.occupancy == 0)
                continue;
            JsonValue vj = JsonValue::object();
            vj["inport"] =
                p == genPort ? std::string("gen")
                             : directionName(static_cast<Direction>(p));
            vj["vc"] = static_cast<long long>(v);
            vj["state"] = ch.state == VcStateArray::Idle
                              ? "idle"
                              : (ch.state == VcStateArray::WaitVc
                                     ? "wait-vc"
                                     : "active");
            vj["occupancy"] = static_cast<std::uint64_t>(ch.occupancy);
            if (ch.state != VcStateArray::Idle) {
                vj["out_port"] = directionName(ch.outPort);
                // Emitted only when a dateline class restricts the
                // route, so mesh hang reports keep their exact bytes.
                if (ch.outClass != VC_CLASS_ANY)
                    vj["vc_class"] =
                        static_cast<long long>(ch.outClass);
                if (ch.outVc != INVALID_VC)
                    vj["out_vc"] = static_cast<long long>(ch.outVc);
                vj["head_age"] =
                    static_cast<std::uint64_t>(now - ch.headAt);
            }
            vcs.push(std::move(vj));
        }
    }
    out["vcs"] = std::move(vcs);

    JsonValue creds = JsonValue::object();
    for (int p = 0; p < NUM_PORTS; ++p) {
        const OutputUnit *ou = outputs[static_cast<std::size_t>(p)].get();
        if (!ou || !ou->outChannel())
            continue;
        JsonValue per_vc = JsonValue::array();
        for (VcId v = 0; v < ou->numVcs(); ++v) {
            JsonValue cv = JsonValue::object();
            cv["credits"] = static_cast<long long>(ou->credits(v));
            cv["busy"] = !ou->isVcFree(v);
            per_vc.push(std::move(cv));
        }
        creds[directionName(static_cast<Direction>(p))] =
            std::move(per_vc);
    }
    out["credits"] = std::move(creds);
    return out;
}

void
Router::tick(Cycle now)
{
    drainCredits(now);
    drainFlits(now);
    // Generator machinery exists only on routers with a generator port
    // (BigRouter); skip the virtual hook on plain routers.
    if (genPort >= 0) {
        generatorPhase(now);
        drainGeneratorQueue(now);
    }
    // Idle fast path: with no buffered flit anywhere, the allocation
    // stages have no work. SoA keeps a whole-router occupancy counter,
    // so the check is one load.
    bool any = false;
    if (soa) {
        any = soa->totalOccupancy() != 0;
    } else {
        for (const auto &iu : inputs) {
            if (iu->totalOccupancy() != 0) {
                any = true;
                break;
            }
        }
    }
    if (!any) {
        // No buffered flit means VA/SA (and their rotation/aging state)
        // would not change this cycle; if nothing is in flight toward us
        // either, every tick until the next Channel push is a no-op.
        if (canSleep())
            suspendSelf();
        return;
    }
    allocateVcs(now);
    allocateSwitch(now);
}

bool
Router::canSleep() const
{
    if (genPort >= 0 && (!genQueue.empty() || !generatorIdle()))
        return false;
    // Channels must be completely empty, not merely not-ready: an item
    // already latched for a future cycle will not trigger a wake.
    for (const ConnectedIn &cp : flitSources) {
        if (!cp.channel->flits.empty())
            return false;
    }
    for (const ConnectedOut &cp : creditSources) {
        if (!cp.channel->credits.empty())
            return false;
    }
    return true;
}

void
Router::drainCredits(Cycle now)
{
    // Compact list: connected outputs only, in ascending port order.
    for (const ConnectedOut &cp : creditSources) {
        while (cp.channel->credits.ready(now)) {
            Credit credit = cp.channel->credits.pop(now);
            cp.unit->receiveCredit(credit);
        }
    }
}

void
Router::drainFlits(Cycle now)
{
    // Compact list: connected inputs only, in ascending port order (the
    // same order the full port scan used, so telemetry record order and
    // buffer contents are unchanged).
    for (const ConnectedIn &cp : flitSources) {
        const int p = cp.port;
        Channel *ch = cp.channel;
        while (ch->flits.ready(now)) {
            FlitPtr flit = ch->flits.pop(now);
            if (isHeadFlit(flit->type)) {
                onHeadFlitArrived(flit, p, now);
                if (pktTel)
                    pktTel->onRouterArrive(id, flit->packet->id, now);
            }
            if (soa)
                soa->receiveFlit(p, std::move(flit), now);
            else
                inputs[static_cast<std::size_t>(p)]->receiveFlit(flit,
                                                                 now);
            ++*flitsReceivedCtr;
        }
    }
}

void
Router::routeCompute(const FlitPtr &flit, VirtualChannel &ch)
{
    const NodeId dst = flit->packet->dst;
    const RouteEntry entry =
        routeTable.empty() ? router->routeEntry(id, dst)
                           : routeTable[static_cast<std::size_t>(dst)];
    ch.outPort = entry.dir;
    ch.outClass = entry.vcClass;
    ch.outVc = INVALID_VC;
    ch.state = VirtualChannel::State::WaitVc;
    ch.headEnqueuedAt = flit->bufferedAt;
}

void
Router::drainGeneratorQueue(Cycle now)
{
    if (genPort < 0 || genQueue.empty())
        return;
    // One injection per cycle: find an idle, empty VC in the packet's
    // vnet range and materialize the packet as a single HeadTail flit.
    const PacketPtr &pkt = genQueue.front();
    for (VcId vc = cfg.vnetVcLo(pkt->vnet); vc <= cfg.vnetVcHi(pkt->vnet);
         ++vc) {
        const VcSnapshot ch = vcSnapshot(genPort, vc);
        if (ch.state == VcStateArray::Idle && ch.occupancy == 0) {
            FlitPtr flit = makeFlit(pkt, FlitType::HeadTail, 0);
            flit->vc = vc;
            pkt->networkEntryCycle = now;
            if (pktTel) {
                // Generator packets bypass the source NI; open their
                // lifetime record here so hop stamps have a home.
                pktTel->onPacketQueued(*pkt, now);
                pktTel->onRouterArrive(id, pkt->id, now);
            }
            if (soa) {
                soa->receiveFlit(genPort, std::move(flit), now);
            } else {
                inputs[static_cast<std::size_t>(genPort)]->receiveFlit(
                    flit, now);
            }
            ++stats.counter("gen_packets_injected");
            genQueue.pop_front();
            return;
        }
    }
}

void
Router::tryAllocateVc(InputUnit &iu, VcId v, Cycle now)
{
    VirtualChannel &ch = iu.vc(v);
    // A VC whose front flit is the head of a new packet (re)enters
    // route computation; this covers back-to-back packets sharing
    // a VC buffer.
    if (ch.state == VirtualChannel::State::Idle && ch.hasFlit()) {
        const FlitPtr &front = ch.buffer.front();
        INPG_ASSERT(isHeadFlit(front->type),
                    "non-head flit at front of idle VC %d", v);
        routeCompute(front, ch);
        iu.refreshMask(v);
    }
    if (ch.state != VirtualChannel::State::WaitVc)
        return;
    if (now <= ch.headEnqueuedAt)
        return; // stage-1 charge: eligible the cycle after buffering
    OutputUnit &ou = *outputs[static_cast<std::size_t>(ch.outPort)];
    const auto [vc_lo, vc_hi] = outVcRange(cfg.vnetOfVc(v), ch.outClass);
    VcId out_vc = ou.findFreeVcInRange(vc_lo, vc_hi);
    if (out_vc == INVALID_VC)
        return;
    ou.allocateVc(out_vc);
    ch.outVc = out_vc;
    ch.state = VirtualChannel::State::Active;
    iu.refreshMask(v);
    ++*vaGrantsCtr;
    if (pktTel)
        pktTel->onVaGrant(id, ch.buffer.front()->packet->id, now);
}

void
Router::allocateVcs(Cycle now)
{
    if (soa) {
        allocateVcsSoA(now);
        return;
    }
    if (cfg.fastAllocScan) {
        allocateVcsFast(now);
        return;
    }
    const std::size_t nports = static_cast<std::size_t>(numInPorts());
    for (std::size_t k = 0; k < nports; ++k) {
        std::size_t p = (vaPointer + k) % nports;
        InputUnit &iu = *inputs[p];
        for (VcId v = 0; v < iu.numVcs(); ++v)
            tryAllocateVc(iu, v, now);
    }
    vaPointer = (vaPointer + 1) % nports;
}

void
Router::allocateVcsFast(Cycle now)
{
    const std::size_t nports = static_cast<std::size_t>(numInPorts());
    std::size_t p = vaPointer;
    for (std::size_t k = 0; k < nports; ++k) {
        InputUnit &iu = *inputs[p];
        // Snapshot is safe: handling one VC never adds another VC of
        // this port to the candidate set (VA transitions only move the
        // handled VC itself between Idle/WaitVc/Active).
        for (std::uint32_t m = iu.vaCandidates(); m; m &= m - 1)
            tryAllocateVc(iu, static_cast<VcId>(std::countr_zero(m)),
                          now);
        p = p + 1 == nports ? 0 : p + 1;
    }
    vaPointer = vaPointer + 1 == nports ? 0 : vaPointer + 1;
}

void
Router::tryAllocateVcSoA(int port, VcId v, Cycle now)
{
    VcStateArray &a = *soa;
    const std::size_t s = a.slot(port, v);
    // A VC whose front flit is the head of a new packet (re)enters
    // route computation; this covers back-to-back packets sharing
    // a VC buffer.
    if (a.state[s] == VcStateArray::Idle && a.hasFlit(s)) {
        const FlitPtr &front = a.front(s);
        INPG_ASSERT(isHeadFlit(front->type),
                    "non-head flit at front of idle VC %d", v);
        const NodeId dst = front->packet->dst;
        const RouteEntry entry =
            routeTable.empty() ? router->routeEntry(id, dst)
                               : routeTable[static_cast<std::size_t>(dst)];
        a.outPort[s] = entry.dir;
        a.outClass[s] = entry.vcClass;
        a.outVc[s] = INVALID_VC;
        a.state[s] = VcStateArray::WaitVc;
        a.headAt[s] = front->bufferedAt;
        a.refreshMask(s);
    }
    if (a.state[s] != VcStateArray::WaitVc)
        return;
    if (now <= a.headAt[s])
        return; // stage-1 charge: eligible the cycle after buffering
    OutputUnit &ou = *outputs[static_cast<std::size_t>(a.outPort[s])];
    const auto [vc_lo, vc_hi] =
        outVcRange(cfg.vnetOfVc(v), a.outClass[s]);
    VcId out_vc = ou.findFreeVcInRange(vc_lo, vc_hi);
    if (out_vc == INVALID_VC)
        return;
    ou.allocateVc(out_vc);
    a.outVc[s] = out_vc;
    a.state[s] = VcStateArray::Active;
    a.refreshMask(s);
    ++*vaGrantsCtr;
    if (pktTel)
        pktTel->onVaGrant(id, a.front(s)->packet->id, now);
}

void
Router::allocateVcsSoA(Cycle now)
{
    const std::size_t nports = static_cast<std::size_t>(numInPorts());
    VcStateArray &a = *soa;
    // One 64-bit test covers the whole router. The port loop still
    // rotates from vaPointer, and the pointer advances exactly once per
    // call whether or not candidates exist -- identical evolution to
    // the scan and AoS-mask variants.
    if (a.vaMask() != 0) {
        std::size_t p = vaPointer;
        for (std::size_t k = 0; k < nports; ++k) {
            // Snapshot is safe: handling one VC never adds another VC
            // of this port to the candidate set.
            for (std::uint32_t m = a.vaCandidates(static_cast<int>(p)); m;
                 m &= m - 1) {
                tryAllocateVcSoA(static_cast<int>(p),
                                 static_cast<VcId>(std::countr_zero(m)),
                                 now);
            }
            p = p + 1 == nports ? 0 : p + 1;
        }
    }
    vaPointer = vaPointer + 1 == nports ? 0 : vaPointer + 1;
}

void
Router::switchTraverse(int inport, VcId v, int outport, Cycle now)
{
    const std::size_t p = static_cast<std::size_t>(inport);
    InputUnit &iu = *inputs[p];
    VirtualChannel &ch = iu.vc(v);
    OutputUnit &ou = *outputs[static_cast<std::size_t>(outport)];
    INPG_ASSERT(ou.outChannel() != nullptr,
                "router %d: traversal into unconnected port %d", id,
                outport);

    FlitPtr flit = iu.popFlit(v);
    const bool tail = isTailFlit(flit->type);

    if (isHeadFlit(flit->type)) {
        onHeadFlitGranted(flit, inport, static_cast<Direction>(outport),
                          now);
        ++*packetsRoutedCtr;
        if (pktTel)
            pktTel->onRouterDepart(id, flit->packet->id, now);
    }

    // Return a buffer credit upstream (none for the generator port).
    if (Channel *up = inChannels[p])
        up->pushCredit(Credit{v, tail}, now);

    VcId out_vc = ch.outVc;
    flit->vc = out_vc;
    ou.decrementCredit(out_vc);
    if (tail) {
        ou.freeVc(out_vc);
        ch.state = VirtualChannel::State::Idle;
        ch.outVc = INVALID_VC;
        iu.refreshMask(v);
    }
    ou.outChannel()->pushFlit(std::move(flit), now);
    ++*flitsSentCtr;
}

void
Router::allocateSwitch(Cycle now)
{
    if (soa) {
        allocateSwitchSoA(now);
        return;
    }
    if (cfg.fastAllocScan) {
        allocateSwitchFast(now);
        return;
    }
    const int nports = numInPorts();

    // SA-I: pick at most one ready VC per input port. Hierarchical
    // arbitration: rotate across virtual networks, apply (OCOR)
    // priority only among VCs of the chosen vnet -- request priorities
    // must never starve forwards/responses of other message classes.
    std::vector<VcId> &inportWinner = inportWinnerScratch;
    std::fill(inportWinner.begin(), inportWinner.end(), INVALID_VC);
    for (int p = 0; p < nports; ++p) {
        InputUnit &iu = *inputs[static_cast<std::size_t>(p)];
        std::vector<PriorityArbiter::Request> &reqs = saVcReqScratch;
        std::fill(reqs.begin(), reqs.end(), PriorityArbiter::Request{});
        bool anyCandidate = false;
        for (VcId v = 0; v < iu.numVcs(); ++v) {
            VirtualChannel &ch = iu.vc(v);
            if (ch.state != VirtualChannel::State::Active || !ch.hasFlit())
                continue;
            const FlitPtr &front = ch.buffer.front();
            if (now <= front->bufferedAt)
                continue;
            OutputUnit &ou =
                *outputs[static_cast<std::size_t>(ch.outPort)];
            if (ou.credits(ch.outVc) <= 0)
                continue;
            auto &r = reqs[static_cast<std::size_t>(v)];
            r.valid = true;
            anyCandidate = true;
            if (cfg.switchPolicy == SwitchPolicy::Priority) {
                r.priority = front->packet->priority;
                r.age = now - ch.headEnqueuedAt;
            }
        }
        if (anyCandidate && cfg.switchPolicy == SwitchPolicy::Priority) {
            // Pick the vnet round-robin among those with candidates,
            // then mask out every other vnet's VCs.
            std::size_t &ptr = saInportVnetPtr[static_cast<std::size_t>(p)];
            const std::size_t nv = static_cast<std::size_t>(cfg.numVnets);
            for (std::size_t k = 0; k < nv; ++k) {
                std::size_t vn = (ptr + k) % nv;
                bool has = false;
                for (VcId v = cfg.vnetVcLo(static_cast<VnetId>(vn));
                     v <= cfg.vnetVcHi(static_cast<VnetId>(vn)); ++v)
                    has |= reqs[static_cast<std::size_t>(v)].valid;
                if (has) {
                    for (VcId v = 0; v < cfg.totalVcs(); ++v)
                        if (cfg.vnetOfVc(v) != static_cast<VnetId>(vn))
                            reqs[static_cast<std::size_t>(v)].valid =
                                false;
                    ptr = (vn + 1) % nv;
                    break;
                }
            }
        }
        inportWinner[static_cast<std::size_t>(p)] =
            saInportArb[static_cast<std::size_t>(p)]->grant(reqs);
    }

    // SA-II: pick at most one input port per output port (same
    // hierarchy: vnet rotation, then priority within the vnet).
    for (int op = 0; op < NUM_PORTS; ++op) {
        std::vector<PriorityArbiter::Request> &reqs = saPortReqScratch;
        std::fill(reqs.begin(), reqs.end(), PriorityArbiter::Request{});
        bool anyCandidate = false;
        for (int p = 0; p < nports; ++p) {
            VcId v = inportWinner[static_cast<std::size_t>(p)];
            if (v == INVALID_VC)
                continue;
            VirtualChannel &ch =
                inputs[static_cast<std::size_t>(p)]->vc(v);
            if (static_cast<int>(ch.outPort) != op)
                continue;
            auto &r = reqs[static_cast<std::size_t>(p)];
            r.valid = true;
            anyCandidate = true;
            if (cfg.switchPolicy == SwitchPolicy::Priority) {
                r.priority = ch.buffer.front()->packet->priority;
                r.age = now - ch.headEnqueuedAt;
            }
        }
        if (anyCandidate && cfg.switchPolicy == SwitchPolicy::Priority) {
            std::size_t &ptr = saOutportVnetPtr[static_cast<std::size_t>(op)];
            const std::size_t nv = static_cast<std::size_t>(cfg.numVnets);
            for (std::size_t k = 0; k < nv; ++k) {
                std::size_t vn = (ptr + k) % nv;
                bool has = false;
                for (int p = 0; p < nports; ++p) {
                    VcId v = inportWinner[static_cast<std::size_t>(p)];
                    if (v == INVALID_VC ||
                        !reqs[static_cast<std::size_t>(p)].valid)
                        continue;
                    has |= cfg.vnetOfVc(v) == static_cast<VnetId>(vn);
                }
                if (has) {
                    for (int p = 0; p < nports; ++p) {
                        VcId v = inportWinner[static_cast<std::size_t>(p)];
                        if (v != INVALID_VC &&
                            cfg.vnetOfVc(v) != static_cast<VnetId>(vn))
                            reqs[static_cast<std::size_t>(p)].valid =
                                false;
                    }
                    ptr = (vn + 1) % nv;
                    break;
                }
            }
        }
        int winner = saOutportArb[static_cast<std::size_t>(op)]->grant(reqs);
        if (winner < 0)
            continue;
        switchTraverse(winner, inportWinner[static_cast<std::size_t>(winner)],
                       op, now);
    }
}

void
Router::allocateSwitchFast(Cycle now)
{
    const int nports = numInPorts();
    const bool prio = cfg.switchPolicy == SwitchPolicy::Priority;
    std::vector<VcId> &inportWinner = inportWinnerScratch;

    // SA-I over the Active-with-flit masks. Request priorities/ages are
    // written into the scratch slots only for candidate bits; the mask
    // handed to the arbiter governs which slots are read, so the
    // remaining stale entries are never consulted.
    std::array<std::uint32_t, NUM_PORTS> outportCand{};
    bool anyWinner = false;
    for (int p = 0; p < nports; ++p) {
        inportWinner[static_cast<std::size_t>(p)] = INVALID_VC;
        InputUnit &iu = *inputs[static_cast<std::size_t>(p)];
        std::uint32_t valid = 0;
        for (std::uint32_t m = iu.saCandidates(); m; m &= m - 1) {
            const VcId v = static_cast<VcId>(std::countr_zero(m));
            VirtualChannel &ch = iu.vc(v);
            const FlitPtr &front = ch.buffer.front();
            if (now <= front->bufferedAt)
                continue;
            OutputUnit &ou =
                *outputs[static_cast<std::size_t>(ch.outPort)];
            if (ou.credits(ch.outVc) <= 0)
                continue;
            valid |= 1u << static_cast<std::uint32_t>(v);
            if (prio) {
                auto &r = saVcReqScratch[static_cast<std::size_t>(v)];
                r.priority = front->packet->priority;
                r.age = now - ch.headEnqueuedAt;
            }
        }
        if (!valid)
            continue;
        if (prio) {
            // Vnet rotation: keep only the first vnet (from the
            // pointer) that has a candidate.
            std::size_t &ptr = saInportVnetPtr[static_cast<std::size_t>(p)];
            const std::size_t nv = static_cast<std::size_t>(cfg.numVnets);
            for (std::size_t k = 0; k < nv; ++k) {
                std::size_t vn = ptr + k >= nv ? ptr + k - nv : ptr + k;
                const std::uint32_t vm =
                    vnetVcMask(static_cast<VnetId>(vn));
                if (valid & vm) {
                    valid &= vm;
                    ptr = vn + 1 == nv ? 0 : vn + 1;
                    break;
                }
            }
        }
        const int w = saInportArb[static_cast<std::size_t>(p)]->grantMasked(
            valid, prio ? saVcReqScratch.data() : nullptr);
        INPG_ASSERT(w != INVALID_VC, "no grant from nonzero request mask");
        inportWinner[static_cast<std::size_t>(p)] = w;
        anyWinner = true;
        const auto op = static_cast<std::size_t>(iu.vc(w).outPort);
        outportCand[op] |= 1u << static_cast<std::uint32_t>(p);
    }
    // An all-invalid grant() touches no arbiter state, so outports
    // without candidates need no SA-II visit.
    if (!anyWinner)
        return;

    // SA-II over the per-outport winner masks (bit = input port).
    for (int op = 0; op < NUM_PORTS; ++op) {
        std::uint32_t valid = outportCand[static_cast<std::size_t>(op)];
        if (!valid)
            continue;
        if (prio) {
            for (std::uint32_t m = valid; m; m &= m - 1) {
                const auto p =
                    static_cast<std::size_t>(std::countr_zero(m));
                const VirtualChannel &ch = inputs[p]->vc(inportWinner[p]);
                auto &r = saPortReqScratch[p];
                r.priority = ch.buffer.front()->packet->priority;
                r.age = now - ch.headEnqueuedAt;
            }
            std::size_t &ptr = saOutportVnetPtr[static_cast<std::size_t>(op)];
            const std::size_t nv = static_cast<std::size_t>(cfg.numVnets);
            for (std::size_t k = 0; k < nv; ++k) {
                std::size_t vn = ptr + k >= nv ? ptr + k - nv : ptr + k;
                std::uint32_t in_vnet = 0;
                for (std::uint32_t m = valid; m; m &= m - 1) {
                    const auto p =
                        static_cast<std::size_t>(std::countr_zero(m));
                    if (cfg.vnetOfVc(inportWinner[p]) ==
                        static_cast<VnetId>(vn))
                        in_vnet |= 1u << p;
                }
                if (in_vnet) {
                    valid = in_vnet;
                    ptr = vn + 1 == nv ? 0 : vn + 1;
                    break;
                }
            }
        }
        const int winner =
            saOutportArb[static_cast<std::size_t>(op)]->grantMasked(
                valid, prio ? saPortReqScratch.data() : nullptr);
        INPG_ASSERT(winner >= 0, "no grant from nonzero request mask");
        switchTraverse(winner,
                       inportWinner[static_cast<std::size_t>(winner)], op,
                       now);
    }
}

void
Router::switchTraverseSoA(int inport, VcId v, int outport, Cycle now)
{
    VcStateArray &a = *soa;
    const std::size_t s = a.slot(inport, v);
    OutputUnit &ou = *outputs[static_cast<std::size_t>(outport)];
    INPG_ASSERT(ou.outChannel() != nullptr,
                "router %d: traversal into unconnected port %d", id,
                outport);

    FlitPtr flit = a.popFlit(s);
    const bool tail = isTailFlit(flit->type);

    if (isHeadFlit(flit->type)) {
        onHeadFlitGranted(flit, inport, static_cast<Direction>(outport),
                          now);
        ++*packetsRoutedCtr;
        if (pktTel)
            pktTel->onRouterDepart(id, flit->packet->id, now);
    }

    // Return a buffer credit upstream (none for the generator port).
    if (Channel *up = inChannels[static_cast<std::size_t>(inport)])
        up->pushCredit(Credit{v, tail}, now);

    VcId out_vc = a.outVc[s];
    flit->vc = out_vc;
    ou.decrementCredit(out_vc);
    if (tail) {
        ou.freeVc(out_vc);
        a.state[s] = VcStateArray::Idle;
        a.outVc[s] = INVALID_VC;
        a.refreshMask(s);
    }
    ou.outChannel()->pushFlit(std::move(flit), now);
    ++*flitsSentCtr;
}

void
Router::allocateSwitchSoA(Cycle now)
{
    VcStateArray &a = *soa;
    // No Active VC holds a flit anywhere in the router: SA is a no-op,
    // and since all-invalid arbiter calls are skipped in every variant,
    // returning here leaves identical arbiter state.
    if (a.activeMask == 0)
        return;
    const int nports = numInPorts();
    const bool prio = cfg.switchPolicy == SwitchPolicy::Priority;
    std::vector<VcId> &inportWinner = inportWinnerScratch;

    // SA-I over per-port slices of the whole-router Active mask. Same
    // candidate filters, vnet rotation and arbiter calls as the AoS
    // mask variant; only the state loads differ (flat arrays instead of
    // VirtualChannel objects).
    std::array<std::uint32_t, NUM_PORTS> outportCand{};
    bool anyWinner = false;
    for (int p = 0; p < nports; ++p) {
        inportWinner[static_cast<std::size_t>(p)] = INVALID_VC;
        const std::size_t base = a.slot(p, 0);
        std::uint32_t valid = 0;
        for (std::uint32_t m = a.saCandidates(p); m; m &= m - 1) {
            const VcId v = static_cast<VcId>(std::countr_zero(m));
            const std::size_t s = base + static_cast<std::size_t>(v);
            const FlitPtr &front = a.front(s);
            if (now <= front->bufferedAt)
                continue;
            OutputUnit &ou =
                *outputs[static_cast<std::size_t>(a.outPort[s])];
            if (ou.credits(a.outVc[s]) <= 0)
                continue;
            valid |= 1u << static_cast<std::uint32_t>(v);
            if (prio) {
                auto &r = saVcReqScratch[static_cast<std::size_t>(v)];
                r.priority = front->packet->priority;
                r.age = now - a.headAt[s];
            }
        }
        if (!valid)
            continue;
        if (prio) {
            // Vnet rotation: keep only the first vnet (from the
            // pointer) that has a candidate.
            std::size_t &ptr = saInportVnetPtr[static_cast<std::size_t>(p)];
            const std::size_t nv = static_cast<std::size_t>(cfg.numVnets);
            for (std::size_t k = 0; k < nv; ++k) {
                std::size_t vn = ptr + k >= nv ? ptr + k - nv : ptr + k;
                const std::uint32_t vm =
                    vnetVcMask(static_cast<VnetId>(vn));
                if (valid & vm) {
                    valid &= vm;
                    ptr = vn + 1 == nv ? 0 : vn + 1;
                    break;
                }
            }
        }
        const int w = saInportArb[static_cast<std::size_t>(p)]->grantMasked(
            valid, prio ? saVcReqScratch.data() : nullptr);
        INPG_ASSERT(w != INVALID_VC, "no grant from nonzero request mask");
        inportWinner[static_cast<std::size_t>(p)] = w;
        anyWinner = true;
        const auto op = static_cast<std::size_t>(
            a.outPort[base + static_cast<std::size_t>(w)]);
        outportCand[op] |= 1u << static_cast<std::uint32_t>(p);
    }
    // An all-invalid grant() touches no arbiter state, so outports
    // without candidates need no SA-II visit.
    if (!anyWinner)
        return;

    // SA-II over the per-outport winner masks (bit = input port).
    for (int op = 0; op < NUM_PORTS; ++op) {
        std::uint32_t valid = outportCand[static_cast<std::size_t>(op)];
        if (!valid)
            continue;
        if (prio) {
            for (std::uint32_t m = valid; m; m &= m - 1) {
                const auto p =
                    static_cast<std::size_t>(std::countr_zero(m));
                const std::size_t s =
                    a.slot(static_cast<int>(p), inportWinner[p]);
                auto &r = saPortReqScratch[p];
                r.priority = a.front(s)->packet->priority;
                r.age = now - a.headAt[s];
            }
            std::size_t &ptr = saOutportVnetPtr[static_cast<std::size_t>(op)];
            const std::size_t nv = static_cast<std::size_t>(cfg.numVnets);
            for (std::size_t k = 0; k < nv; ++k) {
                std::size_t vn = ptr + k >= nv ? ptr + k - nv : ptr + k;
                std::uint32_t in_vnet = 0;
                for (std::uint32_t m = valid; m; m &= m - 1) {
                    const auto p =
                        static_cast<std::size_t>(std::countr_zero(m));
                    if (cfg.vnetOfVc(inportWinner[p]) ==
                        static_cast<VnetId>(vn))
                        in_vnet |= 1u << p;
                }
                if (in_vnet) {
                    valid = in_vnet;
                    ptr = vn + 1 == nv ? 0 : vn + 1;
                    break;
                }
            }
        }
        const int winner =
            saOutportArb[static_cast<std::size_t>(op)]->grantMasked(
                valid, prio ? saPortReqScratch.data() : nullptr);
        INPG_ASSERT(winner >= 0, "no grant from nonzero request mask");
        switchTraverseSoA(winner,
                          inportWinner[static_cast<std::size_t>(winner)],
                          op, now);
    }
}


} // namespace inpg

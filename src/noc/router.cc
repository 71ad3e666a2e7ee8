#include "noc/router.hh"

#include <bit>

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

namespace {

/** N elements each constructed from the same arguments. */
template <typename T, std::size_t N, typename... Args>
std::array<T, N>
filledArray(const Args &...args)
{
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return std::array<T, N>{((void)I, T(args...))...};
    }(std::make_index_sequence<N>{});
}

/** Keys every router registers at construction (ascending). */
constexpr std::string_view ROUTER_COUNTERS[] = {
    "flits_received",
    "flits_sent",
    "packets_routed",
    "va_grants",
};
constexpr StatKeys ROUTER_KEYS{ROUTER_COUNTERS, {}};

} // namespace

std::size_t
Router::vcStorageBytes(const NocConfig &cfg)
{
    return VcStateArray::storageBytes(NUM_PORTS + 1, cfg.totalVcs(),
                                      cfg.vcDepth);
}

Router::Router(NodeId node_id, const NocConfig &config_in,
               const RouterEnv &env)
    : stats("router", node_id, ROUTER_KEYS), id(node_id), cfg(config_in),
      // Sized for every port the router can ever have (the generator
      // port arrives after construction).
      inVcs(NUM_PORTS + 1, config_in.totalVcs(), config_in.vcDepth,
            env.vcStorage),
      outputs(filledArray<OutputUnit, NUM_PORTS>(config_in.totalVcs(),
                                                 config_in.vcDepth)),
      saInportArb(filledArray<PriorityArbiter, NUM_PORTS + 1>(
          static_cast<std::size_t>(config_in.totalVcs()),
          config_in.agingQuantum)),
      saOutportArb(filledArray<PriorityArbiter, NUM_PORTS>(
          std::size_t{NUM_PORTS + 1}, config_in.agingQuantum)),
      telem(env.telemetry)
{
    INPG_ASSERT(env.routing != nullptr,
                "router %d needs a routing algorithm", node_id);
    routeRow.resize(env.routing->rowSize());
    env.routing->fillRow(node_id, routeRow);
    routeKeys = env.routing->routeKeys();
    routeFirst = env.routing->firstCoordOf(node_id);
    nInPorts = NUM_PORTS;
    inportWinnerScratch.fill(INVALID_VC);
    flitsReceivedCtr =
        &stats.counterAt(keyIndex(ROUTER_COUNTERS, "flits_received"));
    flitsSentCtr = &stats.counterAt(keyIndex(ROUTER_COUNTERS, "flits_sent"));
    packetsRoutedCtr =
        &stats.counterAt(keyIndex(ROUTER_COUNTERS, "packets_routed"));
    vaGrantsCtr = &stats.counterAt(keyIndex(ROUTER_COUNTERS, "va_grants"));
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
    outputs[static_cast<std::size_t>(d)].connect(channel);
    channel->setCreditSink(this);
    rebuildConnectedLists();
}

void
Router::rebuildConnectedLists()
{
    // Rebuilt on every connect call (construction-time only). Ascending
    // port order keeps drain iteration identical to a full port scan.
    numFlitSources = 0;
    for (int p = 0; p < numInPorts(); ++p) {
        if (Channel *ch = inChannels[static_cast<std::size_t>(p)])
            flitSources[numFlitSources++] = {ch, p};
    }
    numCreditSources = 0;
    for (OutputUnit &ou : outputs) {
        if (ou.outChannel())
            creditSources[numCreditSources++] = {ou.outChannel(), &ou};
    }
}

int
Router::addGeneratorPort()
{
    INPG_ASSERT(genPort < 0, "generator port already present");
    // inVcs and the per-port arrays are already sized for this port
    // (NUM_PORTS + 1); it has no input channel.
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
    return inVcs.totalOccupancy();
}

JsonValue
Router::debugJson(Cycle now) const
{
    JsonValue out = JsonValue::object();
    out["node"] = static_cast<long long>(id);
    out["buffered_flits"] = static_cast<std::uint64_t>(bufferedFlits());
    out["gen_queue"] = static_cast<std::uint64_t>(genQueue.size());

    JsonValue vcs = JsonValue::array();
    for (int p = 0; p < numInPorts(); ++p) {
        for (VcId v = 0; v < cfg.totalVcs(); ++v) {
            const std::size_t s = inVcs.slot(p, v);
            const std::uint8_t state = inVcs.state[s];
            if (state == VcStateArray::Idle && !inVcs.hasFlit(s))
                continue;
            JsonValue vj = JsonValue::object();
            vj["inport"] =
                p == genPort ? std::string("gen")
                             : directionName(static_cast<Direction>(p));
            vj["vc"] = static_cast<long long>(v);
            vj["state"] = state == VcStateArray::Idle
                              ? "idle"
                              : (state == VcStateArray::WaitVc
                                     ? "wait-vc"
                                     : "active");
            vj["occupancy"] =
                static_cast<std::uint64_t>(inVcs.vcOccupancy(s));
            if (state != VcStateArray::Idle) {
                vj["out_port"] = directionName(inVcs.outPort[s]);
                // Emitted only when a dateline class restricts the
                // route, so mesh hang reports keep their exact bytes.
                if (inVcs.outClass[s] != VC_CLASS_ANY)
                    vj["vc_class"] =
                        static_cast<long long>(inVcs.outClass[s]);
                if (inVcs.outVc[s] != INVALID_VC)
                    vj["out_vc"] = static_cast<long long>(inVcs.outVc[s]);
                vj["head_age"] =
                    static_cast<std::uint64_t>(now - inVcs.headAt[s]);
            }
            vcs.push(std::move(vj));
        }
    }
    out["vcs"] = std::move(vcs);

    JsonValue creds = JsonValue::object();
    for (int p = 0; p < NUM_PORTS; ++p) {
        const OutputUnit *ou = &outputs[static_cast<std::size_t>(p)];
        if (!ou->outChannel())
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
    // stages have no work (one load of the whole-router occupancy).
    if (inVcs.totalOccupancy() == 0) {
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
    for (const ConnectedIn &cp :
         std::span(flitSources).first(numFlitSources)) {
        if (!cp.channel->flits.empty())
            return false;
    }
    for (const ConnectedOut &cp :
         std::span(creditSources).first(numCreditSources)) {
        if (!cp.channel->credits.empty())
            return false;
    }
    return true;
}

void
Router::drainCredits(Cycle now)
{
    // Compact list: connected outputs only, in ascending port order.
    for (const ConnectedOut &cp :
         std::span(creditSources).first(numCreditSources)) {
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
    for (const ConnectedIn &cp :
         std::span(flitSources).first(numFlitSources)) {
        const int p = cp.port;
        Channel *ch = cp.channel;
        while (ch->flits.ready(now)) {
            FlitPtr flit = ch->flits.pop(now);
            if (isHeadFlit(flit->type)) {
                onHeadFlitArrived(flit, p, now);
                if (telem)
                    telem->emit({SimEventKind::RouterArrive, now, id,
                                 flit->packet->id});
            }
            inVcs.receiveFlit(p, std::move(flit), now);
            ++*flitsReceivedCtr;
        }
    }
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
        const std::size_t s = inVcs.slot(genPort, vc);
        if (inVcs.state[s] == VcStateArray::Idle && !inVcs.hasFlit(s)) {
            FlitPtr flit = makeFlit(pkt, FlitType::HeadTail, 0);
            flit->vc = vc;
            pkt->networkEntryCycle = now;
            if (telem) {
                telem->emit({SimEventKind::RouterGenerate, now, id, pkt->id,
                             0, nullptr, pkt.get()});
            }
            inVcs.receiveFlit(genPort, std::move(flit), now);
            ++stats.counter("gen_packets_injected");
            genQueue.pop_front();
            return;
        }
    }
}

void
Router::tryAllocateVc(int port, VcId v, Cycle now)
{
    VcStateArray &a = inVcs;
    const std::size_t s = a.slot(port, v);
    // A VC whose front flit is the head of a new packet (re)enters
    // route computation; this covers back-to-back packets sharing
    // a VC buffer.
    if (a.state[s] == VcStateArray::Idle && a.hasFlit(s)) {
        const FlitPtr &front = a.front(s);
        INPG_ASSERT(isHeadFlit(front->type),
                    "non-head flit at front of idle VC %d", v);
        const RouteEntry entry = routeRow[RoutingAlgorithm::rowIndex(
            routeKeys[front->packet->dst], routeFirst)];
        a.outPort[s] = entry.dir;
        a.outClass[s] = entry.vcClass;
        a.outVc[s] = INVALID_VC;
        a.state[s] = VcStateArray::WaitVc;
        a.headAt[s] = front->bufferedAt;
        // No mask refresh: an Idle VC holding a flit and a WaitVc VC
        // are both VA candidates and neither is an SA candidate.
    }
    if (a.state[s] != VcStateArray::WaitVc)
        return;
    if (now <= a.headAt[s])
        return; // stage-1 charge: eligible the cycle after buffering
    OutputUnit &ou = outputs[static_cast<std::size_t>(a.outPort[s])];
    const auto [vc_lo, vc_hi] =
        outVcRange(cfg.vnetOfVc(v), a.outClass[s]);
    VcId out_vc = ou.findFreeVcInRange(vc_lo, vc_hi);
    if (out_vc == INVALID_VC)
        return;
    ou.allocateVc(out_vc);
    a.outVc[s] = out_vc;
    a.state[s] = VcStateArray::Active;
    a.refreshMask(port, v);
    ++*vaGrantsCtr;
    if (telem)
        telem->emit({SimEventKind::RouterVaGrant, now, id,
                     a.front(s)->packet->id});
}

void
Router::allocateVcs(Cycle now)
{
    const std::size_t nports = static_cast<std::size_t>(numInPorts());
    const VcStateArray &a = inVcs;
    // One summary-word test covers the whole router. The port loop
    // rotates from vaPointer, and the pointer advances exactly once per
    // call whether or not candidates exist.
    if (a.vaPorts() != 0) {
        std::size_t p = vaPointer;
        for (std::size_t k = 0; k < nports; ++k) {
            // Snapshot is safe: handling one VC never adds another VC
            // of this port to the candidate set.
            for (std::uint32_t m = a.vaCandidates(static_cast<int>(p)); m;
                 m &= m - 1) {
                tryAllocateVc(static_cast<int>(p),
                              static_cast<VcId>(std::countr_zero(m)), now);
            }
            p = p + 1 == nports ? 0 : p + 1;
        }
    }
    vaPointer = vaPointer + 1 == nports ? 0 : vaPointer + 1;
}

void
Router::switchTraverse(int inport, VcId v, int outport, Cycle now)
{
    VcStateArray &a = inVcs;
    const std::size_t s = a.slot(inport, v);
    OutputUnit &ou = outputs[static_cast<std::size_t>(outport)];
    INPG_ASSERT(ou.outChannel() != nullptr,
                "router %d: traversal into unconnected port %d", id,
                outport);

    const bool tail = isTailFlit(a.front(s)->type);
    const VcId out_vc = a.outVc[s];
    if (tail) {
        // Release the input VC before the pop, so the pop's mask
        // refresh already sees the final state.
        a.state[s] = VcStateArray::Idle;
        a.outVc[s] = INVALID_VC;
    }
    FlitPtr flit = a.popFlit(inport, v);

    if (isHeadFlit(flit->type)) {
        onHeadFlitGranted(flit, inport, static_cast<Direction>(outport),
                          now);
        ++*packetsRoutedCtr;
        if (telem)
            telem->emit({SimEventKind::RouterDepart, now, id,
                         flit->packet->id});
    }

    // Return a buffer credit upstream (none for the generator port).
    if (Channel *up = inChannels[static_cast<std::size_t>(inport)])
        up->pushCredit(Credit{v, tail}, now);

    flit->vc = out_vc;
    ou.decrementCredit(out_vc);
    if (tail)
        ou.freeVc(out_vc);
    ou.outChannel()->pushFlit(std::move(flit), now);
    ++*flitsSentCtr;
}

void
Router::allocateSwitch(Cycle now)
{
    const VcStateArray &a = inVcs;
    // No Active VC holds a flit anywhere in the router: SA is a no-op,
    // and an empty request set leaves the arbiters untouched.
    if (a.saPorts() == 0)
        return;
    const int nports = numInPorts();
    const bool prio = cfg.switchPolicy == SwitchPolicy::Priority;
    auto &inportWinner = inportWinnerScratch;

    // SA-I: pick at most one ready VC per input port. Hierarchical
    // arbitration: rotate across virtual networks, apply (OCOR)
    // priority only among VCs of the chosen vnet -- request priorities
    // must never starve forwards/responses of other message classes.
    // Priorities/ages are written into the scratch slots only for
    // candidate bits; the mask handed to the arbiter governs which
    // slots are read, so stale entries are never consulted.
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
                outputs[static_cast<std::size_t>(a.outPort[s])];
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
        const int w = saInportArb[static_cast<std::size_t>(p)].grantMasked(
            valid, prio ? saVcReqScratch.data() : nullptr);
        INPG_ASSERT(w != INVALID_VC, "no grant from nonzero request mask");
        inportWinner[static_cast<std::size_t>(p)] = w;
        anyWinner = true;
        const auto op = static_cast<std::size_t>(
            a.outPort[base + static_cast<std::size_t>(w)]);
        outportCand[op] |= 1u << static_cast<std::uint32_t>(p);
    }
    // An empty request set touches no arbiter state, so outports
    // without candidates need no SA-II visit.
    if (!anyWinner)
        return;

    // SA-II: pick at most one input port per output port over the
    // per-outport winner masks (bit = input port), with the same
    // hierarchy: vnet rotation, then priority within the vnet.
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
            saOutportArb[static_cast<std::size_t>(op)].grantMasked(
                valid, prio ? saPortReqScratch.data() : nullptr);
        INPG_ASSERT(winner >= 0, "no grant from nonzero request mask");
        switchTraverse(winner,
                       inportWinner[static_cast<std::size_t>(winner)], op,
                       now);
    }
}
} // namespace inpg

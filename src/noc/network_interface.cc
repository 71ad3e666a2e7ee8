#include "noc/network_interface.hh"

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

namespace {

/** Keys every network interface registers at construction (ascending). */
constexpr std::string_view NI_COUNTERS[] = {
    "flits_sent",
    "packets_delivered",
    "packets_queued",
    "packets_sent",
};
constexpr std::string_view NI_SAMPLES[] = {
    "packet_latency",
};
constexpr StatKeys NI_KEYS{NI_COUNTERS, NI_SAMPLES};

} // namespace

NetworkInterface::NetworkInterface(NodeId node_id, const NocConfig &config,
                                   Telemetry *telemetry)
    : stats("ni", node_id, NI_KEYS), id(node_id), cfg(config),
      baseNode(node_id * cfg.concentration),
      deliver(static_cast<std::size_t>(cfg.concentration)),
      routerPort(cfg.totalVcs(), cfg.vcDepth), telem(telemetry)
{
    packetsQueuedCtr =
        &stats.counterAt(keyIndex(NI_COUNTERS, "packets_queued"));
    packetsDeliveredCtr =
        &stats.counterAt(keyIndex(NI_COUNTERS, "packets_delivered"));
    packetsSentCtr = &stats.counterAt(keyIndex(NI_COUNTERS, "packets_sent"));
    flitsSentCtr = &stats.counterAt(keyIndex(NI_COUNTERS, "flits_sent"));
    packetLatencySample =
        &stats.sampleAt(keyIndex(NI_SAMPLES, "packet_latency"));
    injectQueues.resize(static_cast<std::size_t>(cfg.numVnets));
    reassembly.resize(static_cast<std::size_t>(cfg.totalVcs()));
}

void
NetworkInterface::connect(Channel *to_router, Channel *from_router)
{
    INPG_ASSERT(to_router && from_router, "NI %d: null channel", id);
    txChannel = to_router;
    rxChannel = from_router;
    routerPort.connect(to_router);
    to_router->setCreditSink(this);
    from_router->setFlitSink(this);
}

void
NetworkInterface::sendPacket(const PacketPtr &pkt, Cycle now)
{
    INPG_ASSERT(pkt->vnet >= 0 && pkt->vnet < cfg.numVnets,
                "packet on invalid vnet %d", pkt->vnet);
    INPG_ASSERT(servesNode(pkt->src), "packet src %d injected at NI %d",
                pkt->src, id);
    INPG_ASSERT(pkt->dst >= 0 && pkt->dst < cfg.numNodes(),
                "packet dst %d out of range", pkt->dst);
    pkt->injectCycle = now;
    injectQueues[static_cast<std::size_t>(pkt->vnet)].push_back(pkt);
    ++queuedPkts;
    ++*packetsQueuedCtr;
    if (telem) {
        telem->emit({SimEventKind::NiInject, now, id, pkt->id, pkt->dst,
                     nullptr, pkt.get()});
    }
    wakeSelf();
}

std::string
NetworkInterface::tickName() const
{
    return format("ni%d", id);
}

bool
NetworkInterface::idle() const
{
    return queuedPkts == 0 && inflight.empty() && reassemblingFlits == 0;
}

void
NetworkInterface::tick(Cycle now)
{
    drainCredits(now);
    ejectFlits(now);
    allocateInjectVcs(now);
    injectOneFlit(now);
    // Empty queues AND empty channels (items latched for future cycles
    // would not re-wake us): every tick is a no-op until the next
    // sendPacket() or Channel push.
    if (idle() && (!txChannel || txChannel->credits.empty()) &&
        (!rxChannel || rxChannel->flits.empty()))
        suspendSelf();
}

void
NetworkInterface::drainCredits(Cycle now)
{
    if (!txChannel)
        return;
    while (txChannel->credits.ready(now))
        routerPort.receiveCredit(txChannel->credits.pop(now));
}

void
NetworkInterface::ejectFlits(Cycle now)
{
    if (!rxChannel)
        return;
    while (rxChannel->flits.ready(now)) {
        FlitPtr flit = rxChannel->flits.pop(now);
        INPG_ASSERT(servesNode(flit->packet->dst),
                    "NI %d ejected packet destined to %d", id,
                    flit->packet->dst);
        const VcId vc = flit->vc;
        const bool tail = isTailFlit(flit->type);
        PacketPtr pkt = tail ? flit->packet : nullptr;
        auto &buf = reassembly[static_cast<std::size_t>(vc)];
        buf.push_back(std::move(flit));
        ++reassemblingFlits;
        // The NI drains its buffers instantly; credit back every flit.
        rxChannel->pushCredit(Credit{vc, tail}, now);
        if (tail) {
            INPG_ASSERT(static_cast<int>(buf.size()) == pkt->numFlits,
                        "packet %llu reassembled with %zu of %d flits",
                        static_cast<unsigned long long>(pkt->id),
                        buf.size(), pkt->numFlits);
            reassemblingFlits -= buf.size();
            buf.clear();
            ++*packetsDeliveredCtr;
            packetLatencySample->add(
                static_cast<double>(now - pkt->injectCycle));
            if (telem) {
                telem->emit({SimEventKind::NiEject, now, id, pkt->id,
                             pkt->src, nullptr, pkt.get()});
            }
            const auto sink =
                static_cast<std::size_t>(pkt->dst - baseNode);
            if (deliver[sink])
                deliver[sink](pkt, now);
        }
    }
}

void
NetworkInterface::allocateInjectVcs(Cycle now)
{
    if (queuedPkts == 0)
        return;
    const std::size_t nvnets = injectQueues.size();
    // Fairness rotation derived from the clock instead of a per-tick
    // counter: equal to the old vnetPointer (incremented once per cycle
    // since cycle 0) at every cycle, but unaffected by skipped idle
    // ticks -- bit-identical with sleep/fast-forward on or off.
    const std::size_t base = static_cast<std::size_t>(now) % nvnets;
    for (std::size_t k = 0; k < nvnets; ++k) {
        // Conditional subtract, not %: nvnets is a runtime value, so
        // the compiler cannot strength-reduce the division away.
        std::size_t v = base + k;
        if (v >= nvnets)
            v -= nvnets;
        auto &q = injectQueues[v];
        // One allocation per vnet per cycle; honour the 1-cycle NI
        // injection latency by skipping packets queued this cycle.
        if (q.empty() || q.front()->injectCycle >= now)
            continue;
        VnetId vnet = static_cast<VnetId>(v);
        VcId vc = routerPort.findFreeVcInRange(cfg.vnetVcLo(vnet),
                                               cfg.vnetVcHi(vnet));
        if (vc == INVALID_VC)
            continue;
        routerPort.allocateVc(vc);
        InFlight fl;
        fl.pkt = q.pop_front();
        fl.vc = vc;
        --queuedPkts;
        inflight.push_back(fl);
    }
}

void
NetworkInterface::injectOneFlit(Cycle now)
{
    if (inflight.empty() || !txChannel)
        return;
    const std::size_t n = inflight.size();
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t i = inflightPointer + k;
        if (i >= n)
            i -= n;
        InFlight &fl = inflight[i];
        if (routerPort.credits(fl.vc) <= 0)
            continue;

        PacketPtr pkt = fl.pkt;
        FlitType type;
        if (pkt->numFlits == 1)
            type = FlitType::HeadTail;
        else if (fl.nextSeq == 0)
            type = FlitType::Head;
        else if (fl.nextSeq == pkt->numFlits - 1)
            type = FlitType::Tail;
        else
            type = FlitType::Body;

        FlitPtr flit = makeFlit(pkt, type, fl.nextSeq);
        flit->vc = fl.vc;
        if (fl.nextSeq == 0) {
            pkt->networkEntryCycle = now;
            if (telem)
                telem->emit({SimEventKind::NiEnter, now, id, pkt->id});
        }
        routerPort.decrementCredit(fl.vc);
        txChannel->pushFlit(std::move(flit), now);
        ++*flitsSentCtr;

        ++fl.nextSeq;
        if (fl.nextSeq == pkt->numFlits) {
            routerPort.freeVc(fl.vc);
            ++*packetsSentCtr;
            inflight.erase(inflight.begin() +
                           static_cast<std::ptrdiff_t>(i));
            inflightPointer = n > 1 ? i % (n - 1) : 0;
        } else {
            inflightPointer = (i + 1) % n;
        }
        return; // one flit per cycle
    }
}

JsonValue
NetworkInterface::debugJson() const
{
    JsonValue out = JsonValue::object();
    out["node"] = static_cast<long long>(id);
    JsonValue queues = JsonValue::array();
    for (const auto &q : injectQueues)
        queues.push(static_cast<std::uint64_t>(q.size()));
    out["inject_queues"] = std::move(queues);

    JsonValue serializing = JsonValue::array();
    for (const InFlight &fl : inflight) {
        JsonValue fj = JsonValue::object();
        fj["packet"] = static_cast<std::uint64_t>(fl.pkt->id);
        fj["dst"] = static_cast<long long>(fl.pkt->dst);
        fj["next_flit"] = static_cast<long long>(fl.nextSeq);
        fj["of"] = static_cast<long long>(fl.pkt->numFlits);
        fj["vc"] = static_cast<long long>(fl.vc);
        serializing.push(std::move(fj));
    }
    out["serializing"] = std::move(serializing);

    std::uint64_t reassembling = 0;
    for (const auto &r : reassembly)
        reassembling += r.size();
    out["reassembly_flits"] = reassembling;
    return out;
}

} // namespace inpg

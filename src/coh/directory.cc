#include "coh/directory.hh"

#include "coh/protocol_tables.hh"
#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

namespace {

/** Keys every directory registers at construction (ascending). */
constexpr std::string_view DIR_COUNTERS[] = {
    "msgs_received",
    "msgs_sent",
};
constexpr std::string_view DIR_SAMPLES[] = {
    "queue_depth_at_dequeue",
};
constexpr StatKeys DIR_KEYS{DIR_COUNTERS, DIR_SAMPLES};

/** Directory-entry state as classified by the protocol table. */
DirState
dirStateFor(const Directory::DirEntry &e, CoreId requester)
{
    if (e.owner == INVALID_NODE)
        return e.sharers.empty() ? DirState::Uncached : DirState::Shared;
    return e.owner == requester ? DirState::OwnedSelf : DirState::Owned;
}

/** Map a serialized message onto the directory event space. */
DirEvent
dirEventFor(const CohMsgPtr &msg)
{
    switch (msg->kind) {
      case CohMsgKind::GetS:
        return DirEvent::GetS;
      case CohMsgKind::GetX:
        return msg->demotable ? DirEvent::GetXDemotable : DirEvent::GetX;
      case CohMsgKind::InvAck:
        return DirEvent::EarlyInvAck;
      default:
        break;
    }
    panic("directory cannot process %s", msg->toString().c_str());
}

} // namespace

Directory::Directory(NodeId node_id, const CohConfig &config,
                     Network &network, Simulator &simulator,
                     MemoryController *memory, CohStats *coh_stats)
    : stats("dir", node_id, DIR_KEYS), node(node_id), cfg(config),
      net(network), sim(simulator),
      mem(memory), cohStats(coh_stats)
{
    msgsReceivedCtr =
        &stats.counterAt(keyIndex(DIR_COUNTERS, "msgs_received"));
    msgsSentCtr = &stats.counterAt(keyIndex(DIR_COUNTERS, "msgs_sent"));
    queueDepthSample =
        &stats.sampleAt(keyIndex(DIR_SAMPLES, "queue_depth_at_dequeue"));
}

std::string
Directory::tickName() const
{
    return format("dir%d", node);
}

Directory::DirEntry &
Directory::entryFor(Addr line)
{
    return entries[line];
}

const Directory::DirEntry *
Directory::findEntry(Addr line) const
{
    return entries.find(line);
}

const Directory::DirEntry *
Directory::entry(Addr addr) const
{
    return findEntry(cfg.lineBase(addr));
}

void
Directory::initValue(Addr addr, std::uint64_t value)
{
    DirEntry &e = entryFor(cfg.lineBase(addr));
    INPG_ASSERT(e.cold, "initValue on an already active line");
    e.value = value;
}

void
Directory::receiveMessage(const CohMsgPtr &msg, Cycle now)
{
    INPG_ASSERT(cfg.homeOf(msg->addr) == node,
                "message homed at %d delivered to directory %d",
                cfg.homeOf(msg->addr), node);
    queue.push_back(msg);
    ++*msgsReceivedCtr;
    if (Telemetry *t = sim.telemetry()) {
        t->emit({SimEventKind::DirArrive, now, node, msg->addr, 0,
                 msg.get()});
    }
    wakeSelf();
}

void
Directory::tick(Cycle now)
{
    if (blockedOnFetch || queue.empty()) {
        // Ticks stay no-ops until receiveMessage() or the DRAM-fetch
        // completion, and both wake us.
        suspendSelf();
        return;
    }
    if (now < busyUntil)
        return; // stay awake: nothing will wake us at busyUntil

    CohMsgPtr msg = queue.pop_front();
    queueDepthSample->add(static_cast<double>(queue.size()));

    const Cycle cost = msg->kind == CohMsgKind::InvAck ? cfg.dirAckLatency
                                                       : cfg.l2Latency;
    busyUntil = now + cost;

    if (Telemetry *t = sim.telemetry()) {
        t->emit({SimEventKind::DirService, now, node, msg->addr,
                 static_cast<std::int64_t>(cost), msg.get()});
    }

    DirEntry &e = entryFor(cfg.lineBase(msg->addr));
    if (e.cold &&
        (msg->kind == CohMsgKind::GetS || msg->kind == CohMsgKind::GetX)) {
        // First touch: block the bank on the DRAM fetch, then service.
        e.cold = false;
        blockedOnFetch = true;
        ++stats.counter("cold_misses");
        mem->fetch(msg->addr, [this, msg] {
            blockedOnFetch = false;
            busyUntil = sim.now();
            wakeSelf();
            process(msg, sim.now());
        });
        return;
    }

    // Responses leave when the L2 access completes.
    sim.events().schedule(busyUntil,
                          [this, msg] { process(msg, sim.now()); });
}

void
Directory::process(const CohMsgPtr &msg, Cycle now)
{
    DirEntry &e = entryFor(cfg.lineBase(msg->addr));

    // Table dispatch: classify the entry against the requester and the
    // message onto the declarative directory table; an unhandled or
    // declared-illegal pair (e.g. a GetS from the recorded owner, which
    // the imperative code would have answered with a self-forward)
    // panics with the precise coordinates.
    const DirEvent ev = dirEventFor(msg);
    const DirState st = dirStateFor(e, msg->requester);
    // The request's directory-service leg (and a big router's early-Inv
    // credit) closes in the telemetry consumer.
    if (Telemetry *t = sim.telemetry()) {
        t->emit({SimEventKind::DirProcess, now, node, msg->addr,
                 msg->requester, msg.get(), nullptr, "dir",
                 dirStateName(static_cast<int>(st)),
                 dirEventName(static_cast<int>(ev))});
    }
    const ProtoTransition &tr = directoryProtocolTable().require(
        static_cast<int>(st), static_cast<int>(ev));

    switch (ev) {
      case DirEvent::GetS:
        ++stats.counter("gets");
        break;
      case DirEvent::GetX:
      case DirEvent::GetXDemotable:
        ++stats.counter("getx");
        if (msg->earlyInvalidated)
            ++stats.counter("getx_early_invalidated");
        break;
      case DirEvent::EarlyInvAck:
        INPG_ASSERT(msg->fromBigRouter,
                    "directory %d got a non-early InvAck: %s", node,
                    msg->toString().c_str());
        ++stats.counter("early_acks");
        break;
    }

    switch (static_cast<DirAction>(tr.action)) {
      case DirAction::GrantExclusive:
        grantExclusive(msg, e, now);
        break;
      case DirAction::AnswerShared:
        answerShared(msg, e, now);
        break;
      case DirAction::ForwardGetS:
        forwardGetS(msg, e, now);
        break;
      case DirAction::InvalidateAndGrant:
        invalidateAndGrant(msg, e, now);
        break;
      case DirAction::ForwardGetX:
        forwardGetX(msg, e, now);
        break;
      case DirAction::OwnerUpgrade:
        ownerUpgrade(msg, e, now);
        break;
      case DirAction::DemoteViaOwner:
        demoteViaOwner(msg, e, now);
        break;
      case DirAction::DemoteOrGrant:
        // The home holds the line: demote only while the lock reads
        // held; a free lock falls through to the full exclusive grant
        // so the acquire can actually write (paper Fig. 4 Step 4).
        if (e.value != 0)
            demoteAtHome(msg, e, now);
        else
            invalidateAndGrant(msg, e, now);
        break;
      case DirAction::TrimSharer:
        trimSharer(msg, e, now);
        break;
      default:
        panic("directory %d: table action %d has no dispatch for %s",
              node, tr.action, msg->toString().c_str());
    }

    // Arm the trim guard only after the action ran: the marked GetX's
    // own demote registration belongs to the same transaction, not a
    // newer one. A second early-invalidated GetX from a core whose
    // ack is still in flight is ambiguous -- forgo both trims (the
    // trim is an optimization; skipping it only costs one redundant
    // Inv/Ack round trip later).
    if ((ev == DirEvent::GetX || ev == DirEvent::GetXDemotable) &&
        msg->earlyInvalidated) {
        if (!e.eiPending.insert(msg->requester).second) {
            e.eiPending.erase(msg->requester);
            ++stats.counter("ei_guard_ambiguous");
        }
    }
}

void
Directory::grantExclusive(const CohMsgPtr &msg, DirEntry &e, Cycle now)
{
    // Uncached read: grant exclusivity (MOESI E state).
    const CoreId req = msg->requester;
    e.owner = req;
    auto data = std::make_shared<CoherenceMsg>();
    data->kind = CohMsgKind::DataExcl;
    data->addr = msg->addr;
    data->requester = req;
    data->value = e.value;
    data->ackCount = 0;
    data->isLock = msg->isLock;
    send(data, req, now);
    ++stats.counter("excl_grants");
}

void
Directory::answerShared(const CohMsgPtr &msg, DirEntry &e, Cycle now)
{
    const CoreId req = msg->requester;
    e.sharers.insert(req);
    // A fresh registration invalidates any EI ack still in flight.
    e.eiPending.erase(req);
    auto data = std::make_shared<CoherenceMsg>();
    data->kind = CohMsgKind::Data;
    data->addr = msg->addr;
    data->requester = req;
    data->value = e.value;
    data->isLock = msg->isLock;
    send(data, req, now);
}

void
Directory::forwardGetS(const CohMsgPtr &msg, DirEntry &e, Cycle now)
{
    // Owner supplies the data; it transitions M/E/O -> O.
    const CoreId req = msg->requester;
    auto fwd = std::make_shared<CoherenceMsg>();
    fwd->kind = CohMsgKind::FwdGetS;
    fwd->addr = msg->addr;
    fwd->requester = req;
    fwd->isLock = msg->isLock;
    fwd->epoch = epochCounter;
    e.sharers.insert(req);
    // A fresh registration invalidates any EI ack still in flight.
    e.eiPending.erase(req);
    send(fwd, e.owner, now);
    ++stats.counter("fwd_gets");
}

void
Directory::invalidateAndGrant(const CohMsgPtr &msg, DirEntry &e,
                              Cycle now)
{
    // No owner: the home supplies data; invalidate all other sharers.
    const CoreId req = msg->requester;
    const std::uint64_t epoch = ++epochCounter;
    std::set<CoreId> to_inv = e.sharers;
    to_inv.erase(req);
    sendInvalidations(to_inv, msg->addr, req, msg->isLock, epoch, now);

    auto data = std::make_shared<CoherenceMsg>();
    data->kind = CohMsgKind::DataExcl;
    data->addr = msg->addr;
    data->requester = req;
    data->value = e.value;
    data->ackCount = static_cast<int>(to_inv.size());
    data->isLock = msg->isLock;
    data->epoch = epoch;
    send(data, req, now);

    e.owner = req;
    e.sharers.clear();
}

void
Directory::forwardGetX(const CohMsgPtr &msg, DirEntry &e, Cycle now)
{
    const CoreId req = msg->requester;
    const std::uint64_t epoch = ++epochCounter;
    std::set<CoreId> to_inv = e.sharers;
    to_inv.erase(req);
    to_inv.erase(e.owner);

    auto fwd = std::make_shared<CoherenceMsg>();
    fwd->kind = CohMsgKind::FwdGetX;
    fwd->addr = msg->addr;
    fwd->requester = req;
    fwd->isLock = msg->isLock;
    fwd->epoch = epoch;
    send(fwd, e.owner, now);
    ++stats.counter("fwd_getx");

    auto ack = std::make_shared<CoherenceMsg>();
    ack->kind = CohMsgKind::AckCount;
    ack->addr = msg->addr;
    ack->requester = req;
    ack->ackCount = static_cast<int>(to_inv.size());
    ack->isLock = msg->isLock;
    ack->epoch = epoch;
    send(ack, req, now);

    sendInvalidations(to_inv, msg->addr, req, msg->isLock, epoch, now);
    e.owner = req;
    e.sharers.clear();
}

void
Directory::ownerUpgrade(const CohMsgPtr &msg, DirEntry &e, Cycle now)
{
    // Upgrade from O: the requester already holds the data.
    const CoreId req = msg->requester;
    const std::uint64_t epoch = ++epochCounter;
    std::set<CoreId> to_inv = e.sharers;
    to_inv.erase(req);

    auto ack = std::make_shared<CoherenceMsg>();
    ack->kind = CohMsgKind::AckCount;
    ack->addr = msg->addr;
    ack->requester = req;
    ack->ackCount = static_cast<int>(to_inv.size());
    ack->isLock = msg->isLock;
    ack->epoch = epoch;
    ack->ownerUpgrade = true;
    send(ack, req, now);
    ++stats.counter("upgrades");

    sendInvalidations(to_inv, msg->addr, req, msg->isLock, epoch, now);
    e.owner = req;
    e.sharers.clear();
}

void
Directory::demoteViaOwner(const CohMsgPtr &msg, DirEntry &e, Cycle now)
{
    // Demotable lock acquire while another core owns the line: the
    // owner supplies a shared copy; no ownership transfer, no
    // invalidations, no ack storm.
    const CoreId req = msg->requester;
    ++stats.counter("getx_demoted_via_owner");
    e.sharers.insert(req);
    // A fresh registration invalidates any EI ack still in flight.
    e.eiPending.erase(req);
    auto fwd = std::make_shared<CoherenceMsg>();
    fwd->kind = CohMsgKind::FwdGetS;
    fwd->addr = msg->addr;
    fwd->requester = req;
    fwd->isLock = msg->isLock;
    fwd->demoted = true;
    fwd->epoch = epochCounter;
    send(fwd, e.owner, now);
}

void
Directory::demoteAtHome(const CohMsgPtr &msg, DirEntry &e, Cycle now)
{
    // The home holds the (locked) value: answer directly.
    const CoreId req = msg->requester;
    ++stats.counter("getx_demoted_at_home");
    e.sharers.insert(req);
    // A fresh registration invalidates any EI ack still in flight.
    e.eiPending.erase(req);
    auto data = std::make_shared<CoherenceMsg>();
    data->kind = CohMsgKind::Data;
    data->addr = msg->addr;
    data->requester = req;
    data->value = e.value;
    data->isLock = msg->isLock;
    data->demoted = true;
    send(data, req, now);
}

void
Directory::trimSharer(const CohMsgPtr &msg, DirEntry &e, Cycle now)
{
    (void)now;
    // (The early Inv-Ack round trip was recorded at the relaying big
    // router; here only the sharer list is trimmed.)
    // The acking core's shared copy is gone; if it was still recorded
    // as a sharer, the next GetX no longer needs to invalidate it.
    // Guarded: an ack that was overtaken by a newer registration of
    // the same core (its GetS beat the relayed ack home) must be
    // ignored, or the next Inv storm would skip a live copy.
    if (!e.eiPending.erase(msg->requester)) {
        ++stats.counter("early_acks_overtaken");
        return;
    }
    if (e.sharers.erase(msg->requester))
        ++stats.counter("early_acks_applied");
    else
        ++stats.counter("early_acks_stale");
}

void
Directory::sendInvalidations(const std::set<CoreId> &targets, Addr addr,
                             NodeId collector, bool is_lock,
                             std::uint64_t epoch, Cycle now)
{
    for (CoreId c : targets) {
        auto inv = std::make_shared<CoherenceMsg>();
        inv->kind = CohMsgKind::Inv;
        inv->addr = addr;
        inv->requester = c;
        inv->collector = collector;
        inv->isLock = is_lock;
        inv->epoch = epoch;
        inv->invGeneratedAt = now;
        send(inv, c, now);
        ++stats.counter("invalidations_sent");
    }
}

void
Directory::send(const CohMsgPtr &msg, NodeId dst, Cycle now)
{
    ++sendCounter;
    // Test-only hang seeder (see CohConfig::dropDirResponseNth):
    // swallow this message deterministically so the watchdog path can
    // be exercised end-to-end.
    const bool drop = cfg.dropDirResponseNth != 0 &&
                      sendCounter == cfg.dropDirResponseNth;
    if (Telemetry *t = sim.telemetry()) {
        t->emit({drop ? SimEventKind::DirDrop : SimEventKind::DirSend, now,
                 node, msg->addr, dst, msg.get(), nullptr,
                 cohMsgKindName(msg->kind)});
    }
    if (drop) {
        ++stats.counter("msgs_dropped_testknob");
        return;
    }
    const int flits = carriesData(msg->kind) ? net.config().dataPacketFlits
                                             : net.config().ctrlPacketFlits;
    PacketPtr pkt =
        net.makePacket(node, dst, vnetForKind(msg->kind), flits, msg);
    net.inject(pkt, now);
    ++*msgsSentCtr;
}

JsonValue
Directory::debugJson(Cycle now) const
{
    JsonValue out = JsonValue::object();
    out["node"] = static_cast<long long>(node);
    out["queue_depth"] = static_cast<std::uint64_t>(queue.size());
    out["busy"] = busyUntil > now;
    if (busyUntil > now)
        out["busy_for"] = static_cast<std::uint64_t>(busyUntil - now);
    out["blocked_on_fetch"] = blockedOnFetch;
    JsonValue queued = JsonValue::array();
    for (std::size_t i = 0; i < queue.size() && i < 8; ++i)
        queued.push(queue[i]->toString());
    out["queued"] = std::move(queued);
    return out;
}

} // namespace inpg

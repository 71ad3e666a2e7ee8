#include "coh/l1_controller.hh"

#include <utility>

#include "coh/protocol_tables.hh"
#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

// The declarative table (coh/protocol_tables.cc) is keyed by the int
// values of L1State; pin the correspondence.
static_assert(static_cast<int>(L1State::I) == 0 &&
                  static_cast<int>(L1State::S) == 1 &&
                  static_cast<int>(L1State::E) == 2 &&
                  static_cast<int>(L1State::M) == 3 &&
                  static_cast<int>(L1State::O) == 4 &&
                  L1_NUM_STATES == 5,
              "L1State layout must match the protocol table");

namespace {

/** Keys every L1 controller registers at construction (ascending). */
constexpr std::string_view L1_COUNTERS[] = {
    "atomics_demoted",
    "forwards_chained",
    "forwards_deferred",
    "fwd_gets_served",
    "fwd_getx_served",
    "inv_acks_collected",
    "inv_on_invalid",
    "invalidations",
    "load_hits",
    "load_misses",
    "lock_coh_cycles",
    "msgs_sent",
    "ops_completed",
    "ops_issued",
    "pre_epoch_forwards_served",
    "pre_epoch_forwards_served_early",
    "stale_inv_on_owner",
    "write_hits",
    "write_misses",
    "write_upgrades",
};
constexpr std::string_view L1_SAMPLES[] = {
    "load_latency",
    "lock_rmw_latency",
    "write_latency",
};
constexpr StatKeys L1_KEYS{L1_COUNTERS, L1_SAMPLES};

/**
 * Stable sort of a forward queue by epoch. Insertion sort: the queue
 * holds a handful of forwards, and swapping only on a strictly smaller
 * epoch keeps equal epochs in arrival order.
 */
template <typename Queue>
void
sortByEpoch(Queue &q)
{
    for (std::size_t i = 1; i < q.size(); ++i)
        for (std::size_t j = i; j > 0 && q[j]->epoch < q[j - 1]->epoch; --j)
            std::swap(q[j], q[j - 1]);
}

} // namespace

const char *
l1StateName(L1State s)
{
    switch (s) {
      case L1State::I:
        return "I";
      case L1State::S:
        return "S";
      case L1State::E:
        return "E";
      case L1State::M:
        return "M";
      case L1State::O:
        return "O";
    }
    return "?";
}

L1Controller::L1Controller(CoreId core_id, NodeId node_id,
                           const CohConfig &config, Network &network,
                           Simulator &simulator, CohStats *coh_stats)
    : stats("l1_", core_id, L1_KEYS), core(core_id), node(node_id),
      cfg(config), net(network),
      sim(simulator), cohStats(coh_stats)
{
    // Cached: bumped once per retired memory op; also the watchdog's
    // per-core retirement progress signal.
    opsCompletedCtr = &stats.counterAt(keyIndex(L1_COUNTERS, "ops_completed"));
    opsIssuedCtr = &stats.counterAt(keyIndex(L1_COUNTERS, "ops_issued"));
    msgsSentCtr = &stats.counterAt(keyIndex(L1_COUNTERS, "msgs_sent"));
    lockCohCyclesCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "lock_coh_cycles"));
    loadLatencySample = &stats.sampleAt(keyIndex(L1_SAMPLES, "load_latency"));
    writeLatencySample =
        &stats.sampleAt(keyIndex(L1_SAMPLES, "write_latency"));
    lockRmwLatencySample =
        &stats.sampleAt(keyIndex(L1_SAMPLES, "lock_rmw_latency"));
    loadHitsCtr = &stats.counterAt(keyIndex(L1_COUNTERS, "load_hits"));
    loadMissesCtr = &stats.counterAt(keyIndex(L1_COUNTERS, "load_misses"));
    writeHitsCtr = &stats.counterAt(keyIndex(L1_COUNTERS, "write_hits"));
    writeMissesCtr = &stats.counterAt(keyIndex(L1_COUNTERS, "write_misses"));
    writeUpgradesCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "write_upgrades"));
    preEpochFwdServedCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "pre_epoch_forwards_served"));
    preEpochFwdServedEarlyCtr = &stats.counterAt(
        keyIndex(L1_COUNTERS, "pre_epoch_forwards_served_early"));
    atomicsDemotedCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "atomics_demoted"));
    fwdGetsServedCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "fwd_gets_served"));
    fwdGetxServedCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "fwd_getx_served"));
    forwardsChainedCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "forwards_chained"));
    invalidationsCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "invalidations"));
    invOnInvalidCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "inv_on_invalid"));
    staleInvOnOwnerCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "stale_inv_on_owner"));
    forwardsDeferredCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "forwards_deferred"));
    invAcksCollectedCtr =
        &stats.counterAt(keyIndex(L1_COUNTERS, "inv_acks_collected"));
}

L1Controller::Line &
L1Controller::line(Addr addr)
{
    return lines[cfg.lineBase(addr)];
}

const L1Controller::Line *
L1Controller::findLine(Addr addr) const
{
    return lines.find(cfg.lineBase(addr));
}

L1State
L1Controller::lineState(Addr addr) const
{
    const Line *l = findLine(addr);
    return l ? l->state : L1State::I;
}

std::uint64_t
L1Controller::lineValue(Addr addr) const
{
    const Line *l = findLine(addr);
    INPG_ASSERT(l && l->state != L1State::I,
                "reading value of invalid line 0x%llx",
                static_cast<unsigned long long>(addr));
    return l->value;
}

void
L1Controller::issueLoad(Addr addr, bool is_lock, Completion done)
{
    Pending op;
    op.kind = OpRecord::Kind::Load;
    op.addr = cfg.lineBase(addr);
    op.isLock = is_lock;
    op.done = std::move(done);
    startOperation(std::move(op));
}

void
L1Controller::issueStore(Addr addr, std::uint64_t value, bool is_lock,
                         Completion done)
{
    Pending op;
    op.kind = OpRecord::Kind::Store;
    op.addr = cfg.lineBase(addr);
    op.operandA = value;
    op.isLock = is_lock;
    op.done = std::move(done);
    startOperation(std::move(op));
}

void
L1Controller::issueAtomic(Addr addr, AtomicOp atomic_op, std::uint64_t a,
                          std::uint64_t b, bool is_lock,
                          AtomicCompletion done, bool demotable)
{
    Pending op;
    op.kind = OpRecord::Kind::Atomic;
    op.op = atomic_op;
    op.addr = cfg.lineBase(addr);
    op.operandA = a;
    op.operandB = b;
    op.isLock = is_lock;
    // Only failure-idempotent ops may be demoted.
    op.demotable = demotable &&
        (atomic_op == AtomicOp::Swap || atomic_op == AtomicOp::Cas);
    op.atomicDone = std::move(done);
    startOperation(std::move(op));
}

void
L1Controller::startOperation(Pending &&op)
{
    INPG_ASSERT(!pending, "core %d issued an op while one is outstanding",
                core);
    op.issuedAt = sim.now();
    ++*opsIssuedCtr;
    if (Telemetry *t = sim.telemetry())
        t->emit({SimEventKind::L1OpIssued, op.issuedAt, core});
    pending.emplace(std::move(op));
    // The L1 array access takes l1Latency cycles; hit/miss is decided
    // when it completes (the line may change state in between).
    sim.scheduleIn(cfg.l1Latency, [this] {
        INPG_ASSERT(pending, "L1 latency event with no pending op");
        Pending op_now = std::move(*pending);
        pending.reset();
        issueAfterL1Latency(std::move(op_now));
    });
}

void
L1Controller::issueAfterL1Latency(Pending &&op)
{
    Line &l = line(op.addr);
    const Cycle now = sim.now();

    // Table dispatch: the declarative MOESI table names the action for
    // this (line state, core event) pair; an undeclared pair panics
    // with the precise coordinates.
    const L1Event ev = op.kind == OpRecord::Kind::Load
                           ? L1Event::CoreLoad
                           : L1Event::CoreWrite;
    const ProtoTransition &tr = l1ProtocolTable().require(
        static_cast<int>(l.state), static_cast<int>(ev));

    switch (static_cast<L1Action>(tr.action)) {
      case L1Action::LoadHit:
        ++*loadHitsCtr;
        pending.emplace(std::move(op));
        pending->hasData = true;
        pending->data = l.value;
        executePendingOp(now);
        return;
      case L1Action::BeginLoadMiss:
        ++*loadMissesCtr;
        op.exclusive = false;
        beginMiss(std::move(op));
        return;
      case L1Action::WriteHit:
        ++*writeHitsCtr;
        l.state = L1State::M;
        pending.emplace(std::move(op));
        pending->hasData = true;
        pending->data = l.value;
        executePendingOp(now);
        return;
      case L1Action::BeginUpgrade:
        // Upgrade attempt. Whether this serializes as an upgrade (we
        // keep the data) or as a chain GetX (an earlier-serialized
        // FwdGetX takes our copy first) is only known when the home
        // answers; capture no data here. The request must NOT be
        // demotable: a demoted transaction never learns its epoch, so
        // an owner with one pending could hold deferred forwards
        // forever and deadlock the ownership chain.
        ++*writeUpgradesCtr;
        op.exclusive = true;
        op.demotable = false;
        beginMiss(std::move(op));
        return;
      case L1Action::BeginWriteMiss:
        ++*writeMissesCtr;
        op.exclusive = true;
        beginMiss(std::move(op));
        return;
      default:
        panic("L1 %d: core-event action %d has no dispatch", core,
              tr.action);
    }
}

void
L1Controller::beginMiss(Pending &&op)
{
    const Cycle now = sim.now();
    auto msg = std::make_shared<CoherenceMsg>();
    msg->kind = op.exclusive ? CohMsgKind::GetX : CohMsgKind::GetS;
    msg->addr = op.addr;
    msg->requester = core;
    msg->isLock = op.isLock;
    msg->demotable = op.exclusive && op.demotable;
    msg->isAtomicOp = op.kind == OpRecord::Kind::Atomic;
    msg->toDirectory = true;
    const NodeId home = cfg.homeOf(op.addr);
    const int prio = nextPriority;
    nextPriority = 0;
    pending.emplace(std::move(op));
    send(msg, home, now, prio);
}

void
L1Controller::executePendingOp(Cycle now)
{
    INPG_ASSERT(pending && pending->hasData,
                "executing op without data on core %d", core);
    Pending op = std::move(*pending);
    pending.reset();
    ++*opsCompletedCtr;
    if (Telemetry *t = sim.telemetry())
        t->emit({SimEventKind::L1OpCompleted, now, core});

    Line &l = line(op.addr);

    if (op.exclusive && op.epochKnown && !deferredForwards.empty()) {
        // Forwards serialized before our own GetX must observe the
        // pre-operation value: apply the fill provisionally and serve
        // them first (epoch order). Their targets' invalidations are
        // already counted in our ackCount, so no stale copy survives
        // our write. A pre-epoch FwdGetX cannot be deferred here (the
        // previous tenure must have ended for this GetX to exist), so
        // the line stays ours.
        sortByEpoch(deferredForwards);
        l.value = op.data;
        l.state = L1State::M;
        while (!deferredForwards.empty() &&
               deferredForwards.front()->epoch < op.myEpoch) {
            CohMsgPtr fwd = deferredForwards.pop_front();
            INPG_ASSERT(fwd->kind == CohMsgKind::FwdGetS,
                        "core %d: pre-epoch %s deferred", core,
                        fwd->toString().c_str());
            serveForward(fwd, now);
            ++*preEpochFwdServedCtr;
        }
    }
    OpRecord rec;
    rec.kind = op.kind;
    rec.op = op.op;
    rec.addr = op.addr;
    rec.operandA = op.operandA;
    rec.operandB = op.operandB;
    rec.core = core;
    rec.executedAt = now;
    rec.oldValue = op.data;
    rec.demoted = op.demoted;

    if (op.demoted) {
        // Demoted atomic: the value was observed via a shared copy and
        // nothing was written (handleData installed the S copy).
        rec.newValue = op.data;
        ++*atomicsDemotedCtr;
        if (opLog)
            opLog(rec);
        if (op.atomicDone)
            op.atomicDone(rec.oldValue, true);
        processDeferredForwards(now);
        return;
    }

    switch (op.kind) {
      case OpRecord::Kind::Load:
        rec.newValue = op.data;
        // A load that was invalidated while filling consumes the value
        // without keeping a copy; handleData left the line in I then.
        break;
      case OpRecord::Kind::Store:
        l.value = op.operandA;
        l.state = L1State::M;
        rec.newValue = l.value;
        break;
      case OpRecord::Kind::Atomic:
        switch (op.op) {
          case AtomicOp::Swap:
            l.value = op.operandA;
            break;
          case AtomicOp::Cas:
            if (op.data == op.operandA)
                l.value = op.operandB;
            else
                l.value = op.data;
            break;
          case AtomicOp::FetchAdd:
            l.value = op.data + op.operandA;
            break;
          case AtomicOp::FetchOr:
            l.value = op.data | op.operandA;
            break;
          case AtomicOp::FetchAnd:
            l.value = op.data & op.operandA;
            break;
        }
        l.state = L1State::M;
        rec.newValue = l.value;
        break;
    }

    if (op.kind != OpRecord::Kind::Load) {
        writeLatencySample->add(static_cast<double>(now - op.issuedAt));
        if (op.isLock)
            lockRmwLatencySample->add(
                static_cast<double>(now - op.issuedAt));
    } else {
        loadLatencySample->add(static_cast<double>(now - op.issuedAt));
    }

    // Lock coherence overhead (paper Fig. 2): cycles a lock-variable
    // operation spent in the coherence protocol beyond the plain L1
    // access -- the time invalidations, forwards, data responses and
    // acks kept the thread from progressing.
    if (op.isLock) {
        const Cycle latency = now - op.issuedAt;
        if (latency > cfg.l1Latency)
            *lockCohCyclesCtr += latency - cfg.l1Latency;
    }

    if (opLog)
        opLog(rec);
    if (op.kind == OpRecord::Kind::Atomic) {
        if (op.atomicDone)
            op.atomicDone(rec.oldValue, false);
    } else if (op.done) {
        op.done(rec.oldValue);
    }
    processDeferredForwards(now);
}

void
L1Controller::maybeCompleteExclusive(Cycle now)
{
    if (!pending || !pending->exclusive)
        return;
    if (!pending->hasData || !pending->hasAckInfo)
        return;
    if (pending->acksReceived < pending->ackCount)
        return;
    INPG_ASSERT(pending->acksReceived == pending->ackCount,
                "core %d over-collected acks (%d of %d)", core,
                pending->acksReceived, pending->ackCount);
    executePendingOp(now);
}

void
L1Controller::processDeferredForwards(Cycle now)
{
    while (!deferredForwards.empty()) {
        serveForward(deferredForwards.pop_front(), now);
    }
}

void
L1Controller::serveForward(const CohMsgPtr &msg, Cycle now)
{
    Line &l = line(msg->addr);
    if (l.state == L1State::M || l.state == L1State::E ||
        l.state == L1State::O) {
        if (msg->kind == CohMsgKind::FwdGetS) {
            l.state = L1State::O;
            auto data = std::make_shared<CoherenceMsg>();
            data->kind = CohMsgKind::Data;
            data->addr = msg->addr;
            data->requester = msg->requester;
            data->value = l.value;
            data->isLock = msg->isLock;
            data->demoted = msg->demoted;
            data->epoch = msg->epoch;
            send(data, msg->requester, now);
            ++*fwdGetsServedCtr;
        } else {
            auto data = std::make_shared<CoherenceMsg>();
            data->kind = CohMsgKind::DataExcl;
            data->addr = msg->addr;
            data->requester = msg->requester;
            data->value = l.value;
            data->ackCount = -1; // ack info comes from the home
            data->isLock = msg->isLock;
            data->epoch = msg->epoch;
            l.state = L1State::I;
            l.forwardedTo = msg->requester;
            send(data, msg->requester, now);
            ++*fwdGetxServedCtr;
        }
        return;
    }
    // The line moved on before this (reordered) forward arrived or was
    // released from deferral; chase the ownership chain.
    INPG_ASSERT(l.forwardedTo != INVALID_NODE,
                "core %d cannot re-forward %s", core,
                msg->toString().c_str());
    send(msg, l.forwardedTo, now);
    ++*forwardsChainedCtr;
}

void
L1Controller::learnEpoch(std::uint64_t epoch, Cycle now)
{
    if (!pending || !pending->exclusive || pending->epochKnown)
        return;
    pending->epochKnown = true;
    pending->myEpoch = epoch;
    // If we still hold the pre-transaction copy (O-state upgrade that
    // serialized behind other writers), serve the pre-epoch forwards
    // from it now: their requesters precede us in the ownership chain
    // and a deferred pre-epoch FwdGetX would deadlock it. In the chain
    // case (no resident copy) pre-epoch FwdGetS entries wait for the
    // provisional fill at completion, and pre-epoch FwdGetX cannot
    // exist.
    Line &l = line(pendingAddrForAssert());
    if (!(l.state == L1State::M || l.state == L1State::E ||
          l.state == L1State::O))
        return;
    sortByEpoch(deferredForwards);
    while (!deferredForwards.empty() &&
           deferredForwards.front()->epoch < epoch) {
        serveForward(deferredForwards.pop_front(), now);
        ++*preEpochFwdServedEarlyCtr;
    }
}

Addr
L1Controller::pendingAddrForAssert() const
{
    INPG_ASSERT(pending, "no pending transaction");
    return pending->addr;
}

void
L1Controller::receiveMessage(const CohMsgPtr &msg, Cycle now)
{
    // Table dispatch: classify the message onto the L1 event space
    // (GetS/GetX panic there -- they never target an L1) and require a
    // declared-legal transition for the current stable line state. A
    // pair the table marks illegal panics with the declared reason
    // instead of tripping a downstream assertion or hanging.
    // The receive's LCO legs (response, InvAck, early-Inv credit)
    // close in the telemetry consumer, before the handler runs.
    const L1Event ev = l1EventForMsgKind(msg->kind);
    const int st = static_cast<int>(lineState(msg->addr));
    if (Telemetry *t = sim.telemetry()) {
        t->emit({SimEventKind::L1Recv, now, node, msg->addr, core,
                 msg.get(), nullptr, "l1", l1TableStateName(st),
                 l1EventName(static_cast<int>(ev))});
    }
    const ProtoTransition &tr =
        l1ProtocolTable().require(st, static_cast<int>(ev));

    switch (static_cast<L1Action>(tr.action)) {
      case L1Action::AckInvalid:
      case L1Action::InvalidateAndAck:
      case L1Action::AckStaleInv:
        handleInv(msg, now);
        return;
      case L1Action::ServeFwdGetS:
      case L1Action::ServeFwdGetX:
      case L1Action::ChainForward:
        handleForward(msg, now);
        return;
      case L1Action::FillShared:
        handleData(msg, now);
        return;
      case L1Action::FillExclusive:
        handleDataExcl(msg, now);
        return;
      case L1Action::CollectAckInfo:
        handleAckCount(msg, now);
        return;
      case L1Action::CollectInvAck:
        handleInvAck(msg, now);
        return;
      default:
        panic("L1 %d: message action %d has no dispatch for %s", core,
              tr.action, msg->toString().c_str());
    }
}

void
L1Controller::handleInv(const CohMsgPtr &msg, Cycle now)
{
    Line &l = line(msg->addr);
    switch (l.state) {
      case L1State::S:
        l.state = L1State::I;
        ++*invalidationsCtr;
        break;
      case L1State::I:
        // Already invalid: either an early (big-router) invalidation of
        // a copy we no longer hold, or a home invalidation racing an
        // early one. Acking is idempotent and required for accounting.
        ++*invOnInvalidCtr;
        break;
      case L1State::E:
      case L1State::M:
      case L1State::O:
        // A stale invalidation targeting a shared copy we have since
        // upgraded past: the S copy it aimed at is already gone (our
        // own GetX consumed it). Keep the line, ack for accounting.
        ++*staleInvOnOwnerCtr;
        break;
    }

    // A fill in flight loses its right to keep the incoming shared
    // copy (reads, and demoted atomics racing a late early-Inv).
    if (pending && pending->addr == msg->addr)
        pending->invWhileFilling = true;

    auto ack = std::make_shared<CoherenceMsg>();
    ack->kind = CohMsgKind::InvAck;
    ack->addr = msg->addr;
    ack->requester = core;
    ack->collector = msg->collector;
    ack->isLock = msg->isLock;
    ack->fromBigRouter = msg->fromBigRouter;
    ack->invGeneratedAt = msg->invGeneratedAt;
    ack->epoch = msg->epoch;
    // Early acks are consumed by the home after the big-router relay;
    // home-epoch acks go straight to the collecting winner's L1.
    ack->toDirectory = false;
    send(ack, msg->collector, now);
}

void
L1Controller::handleForward(const CohMsgPtr &msg, Cycle now)
{
    // While a transaction on this line is outstanding, forwards are
    // held back and dispatched when ordering is known: pre-epoch ones
    // observe the pre-operation value (served straight away when we
    // still hold that copy in M/E/O), post-epoch ones the result.
    if (deferIncomingForward(msg)) {
        deferredForwards.push_back(msg);
        ++*forwardsDeferredCtr;
        return;
    }
    serveForward(msg, now);
}

bool
L1Controller::deferIncomingForward(const CohMsgPtr &msg) const
{
    if (!pending || pending->addr != msg->addr)
        return false;
    // Pre-epoch forward while the pre-transaction copy is still resident
    // (the O-state upgrade window): serve immediately -- deferring a
    // pre-epoch FwdGetX here would deadlock the ownership chain.
    if (pending->epochKnown && msg->epoch < pending->myEpoch) {
        L1State s = lineState(msg->addr);
        if (s == L1State::M || s == L1State::E || s == L1State::O)
            return false;
    }
    return true;
}

void
L1Controller::handleData(const CohMsgPtr &msg, Cycle now)
{
    INPG_ASSERT(pending && pending->addr == msg->addr &&
                    (!pending->exclusive || msg->demoted),
                "core %d got unexpected %s", core,
                msg->toString().c_str());
    Line &l = line(msg->addr);
    pending->hasData = true;
    pending->data = msg->value;
    pending->demoted = msg->demoted;
    if (!pending->invWhileFilling) {
        // Shared fill; a demoted lock acquire keeps the valid copy so
        // the thread can spin locally (paper Fig. 4 Step 4).
        l.value = msg->value;
        l.state = L1State::S;
    }
    executePendingOp(now);
}

void
L1Controller::handleDataExcl(const CohMsgPtr &msg, Cycle now)
{
    INPG_ASSERT(pending && pending->addr == msg->addr,
                "core %d got unexpected %s", core,
                msg->toString().c_str());
    if (!pending->exclusive) {
        // GetS answered exclusively: no other copy exists.
        INPG_ASSERT(msg->ackCount == 0, "DataExcl for a read with acks");
        Line &l = line(msg->addr);
        l.value = msg->value;
        l.state = L1State::E;
        pending->hasData = true;
        pending->data = msg->value;
        executePendingOp(now);
        return;
    }
    pending->hasData = true;
    pending->data = msg->value;
    if (msg->ackCount >= 0) {
        // Data supplied by the home; the ack count rides along.
        INPG_ASSERT(!pending->hasAckInfo,
                    "core %d got duplicate ack info", core);
        pending->hasAckInfo = true;
        pending->ackCount = msg->ackCount;
    }
    learnEpoch(msg->epoch, now);
    maybeCompleteExclusive(now);
}

void
L1Controller::handleAckCount(const CohMsgPtr &msg, Cycle now)
{
    INPG_ASSERT(pending && pending->exclusive &&
                    pending->addr == msg->addr,
                "core %d got unexpected %s", core,
                msg->toString().c_str());
    INPG_ASSERT(!pending->hasAckInfo, "core %d got duplicate ack info",
                core);
    pending->hasAckInfo = true;
    pending->ackCount = msg->ackCount;
    if (msg->ownerUpgrade) {
        // The home serialized us as an O-state upgrade: no data response
        // follows; our resident copy is the authoritative value. The
        // line must still be in O -- forwards are deferred while we are
        // pending and only same-epoch-or-later ones can exist.
        Line &l = line(msg->addr);
        INPG_ASSERT(l.state == L1State::O,
                    "core %d upgrade-acked in state %s", core,
                    l1StateName(l.state));
        pending->hasData = true;
        pending->data = l.value;
    }
    learnEpoch(msg->epoch, now);
    maybeCompleteExclusive(now);
}

void
L1Controller::handleInvAck(const CohMsgPtr &msg, Cycle now)
{
    INPG_ASSERT(pending && pending->exclusive &&
                    pending->addr == msg->addr,
                "core %d got stray %s", core, msg->toString().c_str());
    ++pending->acksReceived;
    ++*invAcksCollectedCtr;
    if (cohStats)
        cohStats->recordInvAckRtt(msg->requester,
                                  now - msg->invGeneratedAt,
                                  msg->fromBigRouter);
    maybeCompleteExclusive(now);
}

std::string
L1Controller::debugState() const
{
    std::string out = format("L1 %d:", core);
    if (pending) {
        out += format(" pending{%s addr=0x%llx excl=%d hasData=%d "
                      "hasAck=%d acks=%d/%d epochKnown=%d epoch=%llu "
                      "demotable=%d}",
                      pending->kind == OpRecord::Kind::Load ? "load"
                      : pending->kind == OpRecord::Kind::Store ? "store"
                                                               : "atomic",
                      (unsigned long long)pending->addr,
                      (int)pending->exclusive, (int)pending->hasData,
                      (int)pending->hasAckInfo, pending->acksReceived,
                      pending->ackCount, (int)pending->epochKnown,
                      (unsigned long long)pending->myEpoch,
                      (int)pending->demotable);
        const Line *l = findLine(pending->addr);
        out += format(" line=%s", l ? l1StateName(l->state) : "I");
    } else {
        out += " no-pending";
    }
    for (std::size_t i = 0; i < deferredForwards.size(); ++i)
        out += format(" defer[%s]", deferredForwards[i]->toString().c_str());
    return out;
}

void
L1Controller::send(const CohMsgPtr &msg, NodeId dst, Cycle now,
                   int priority)
{
    if (Telemetry *t = sim.telemetry()) {
        t->emit({SimEventKind::L1Send, now, core, msg->addr, dst,
                 msg.get()});
    }
    const int flits = carriesData(msg->kind) ? net.config().dataPacketFlits
                                             : net.config().ctrlPacketFlits;
    PacketPtr pkt =
        net.makePacket(node, dst, vnetForKind(msg->kind), flits, msg);
    pkt->priority = priority;
    net.inject(pkt, now);
    ++*msgsSentCtr;
}

} // namespace inpg

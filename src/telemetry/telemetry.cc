#include "telemetry/telemetry.hh"

#include <initializer_list>
#include <utility>

#include "coh/coherence_msg.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/trace.hh"

namespace inpg {

namespace {

using K = SimEventKind;

constexpr std::uint32_t
kindBits(std::initializer_list<SimEventKind> kinds)
{
    std::uint32_t m = 0;
    for (SimEventKind k : kinds)
        m |= 1u << static_cast<unsigned>(k);
    return m;
}

// The kinds each consumer takes (DESIGN.md Section 7).
constexpr std::uint32_t LCO_KINDS = kindBits(
    {K::AcquireBegin, K::AcquireEnd, K::SleepBegin, K::SleepEnd,
     K::L1OpIssued, K::L1OpCompleted, K::L1Send, K::L1Recv, K::DirArrive,
     K::DirProcess});
constexpr std::uint32_t PACKET_KINDS = kindBits(
    {K::NiInject, K::NiEnter, K::NiEject, K::RouterGenerate,
     K::RouterArrive, K::RouterVaGrant, K::RouterDepart});
constexpr std::uint32_t RECORDER_KINDS = kindBits(
    {K::L1Recv, K::DirProcess, K::DirSend, K::DirDrop, K::NiInject,
     K::NiEject, K::BrAckRelay, K::BrStop});
constexpr std::uint32_t CHROME_KINDS = kindBits({K::DirService});
constexpr std::uint32_t TEXT_KINDS = kindBits(
    {K::L1Send, K::L1Recv, K::DirProcess, K::BrAckRelay, K::BrStop});

bool
isRequest(const CoherenceMsg &m)
{
    return m.kind == CohMsgKind::GetS || m.kind == CohMsgKind::GetX;
}

/** `make_unique<T>(args...)` when `on`, else null. */
template <typename T, typename... Args>
std::unique_ptr<T>
makeIf(bool on, Args &&...args)
{
    return on ? std::make_unique<T>(std::forward<Args>(args)...) : nullptr;
}

} // namespace

void
TelemetryConfig::applySpec(const std::string &spec)
{
    for (const std::string &tok : split(spec, ',')) {
        if (tok.empty()) {
            continue;
        } else if (tok == "off" || tok == "none") {
            lco = packets = traceEvents = kernel = recorder = false;
            timeseriesEpoch = 0;
            watchdogWindow = 0;
        } else if (tok == "all") {
            // Every pure observer; the watchdog stays opt-in because
            // tripping terminates the run.
            lco = packets = traceEvents = kernel = recorder = true;
            if (timeseriesEpoch == 0)
                timeseriesEpoch = DEFAULT_TIMESERIES_EPOCH;
        } else if (tok == "recorder") {
            recorder = true;
        } else if (tok == "timeseries") {
            if (timeseriesEpoch == 0)
                timeseriesEpoch = DEFAULT_TIMESERIES_EPOCH;
        } else if (tok == "watchdog") {
            if (watchdogWindow == 0)
                watchdogWindow = DEFAULT_WATCHDOG_WINDOW;
        } else if (tok == "lco") {
            lco = true;
        } else if (tok == "packets") {
            packets = true;
        } else if (tok == "trace") {
            traceEvents = true;
        } else if (tok == "kernel") {
            kernel = true;
        } else {
            fatal("unknown telemetry token '%s' (valid: lco, packets, "
                  "trace, kernel, recorder, timeseries, watchdog, all, "
                  "off, none)",
                  tok.c_str());
        }
    }
}

Telemetry::Telemetry(const TelemetryConfig &config, int num_cores)
    : trace(makeIf<TraceEventSink>(config.traceEvents)),
      lco(makeIf<LcoTracker>(config.lco, num_cores)),
      packets(makeIf<PacketLifetimeTracker>(config.packets, trace.get())),
      kernel(makeIf<KernelProfile>(config.kernel)),
      recorder(makeIf<FlightRecorder>(config.recorder,
                                      config.recorderCapacity)),
      timeseries(makeIf<TimeseriesSampler>(config.timeseriesEpoch > 0,
                                           config.timeseriesEpoch,
                                           config.timeseriesMaxRows)),
      watchdog(makeIf<ProgressWatchdog>(config.watchdogWindow > 0,
                                        config.watchdogWindow)),
      text(Trace::anyEnabled()),
      interest((lco ? LCO_KINDS : 0) | (packets ? PACKET_KINDS : 0) |
               (recorder ? RECORDER_KINDS : 0) |
               (trace ? CHROME_KINDS : 0) | (text ? TEXT_KINDS : 0))
{}

void
Telemetry::dispatch(const SimEvent &e)
{
    // A kind only one consumer takes arrives here only when that
    // consumer is on (the interest mask); shared kinds test each one.
    const CoherenceMsg *m = e.msg;
    auto textOn = [this](const char *channel) {
        return text && Trace::enabled(channel);
    };
    auto record = [&](FrKind k) {
        recorder->record(k, e.cycle, e.node, e.id,
                         static_cast<std::uint64_t>(e.arg), e.tag0, e.tag1,
                         e.tag2);
    };
    switch (e.kind) {
      case K::AcquireBegin:
        lco->acquireBegin(e.node, e.cycle);
        break;
      case K::AcquireEnd:
        lco->acquireEnd(e.node, e.cycle);
        break;
      case K::SleepBegin:
        lco->sleepBegin(e.node, e.cycle);
        break;
      case K::SleepEnd:
        lco->sleepEnd(e.node, e.cycle);
        break;
      case K::L1OpIssued:
        lco->opIssued(e.node, e.cycle);
        break;
      case K::L1OpCompleted:
        lco->opCompleted(e.node, e.cycle);
        break;
      case K::L1Send:
        if (lco && isRequest(*m))
            lco->requestSent(e.node, e.cycle);
        if (textOn("l1"))
            Trace::emit("l1", e.cycle,
                        format("L1 %d SEND->%d %s", e.node,
                               static_cast<NodeId>(e.arg),
                               m->toString().c_str()));
        break;
      case K::L1Recv:
        if (textOn("l1"))
            Trace::emit("l1", e.cycle,
                        format("L1 %d RECV %s", static_cast<CoreId>(e.arg),
                               m->toString().c_str()));
        if (recorder)
            record(FrKind::ProtoDispatch);
        // The hooks protocol_tables.cc declares per L1 message event.
        if (lco && m->kind == CohMsgKind::Inv && m->fromBigRouter)
            lco->earlyInvSeen(m->requester);
        else if (lco && m->kind == CohMsgKind::InvAck)
            lco->invAckArrived(static_cast<CoreId>(e.arg), e.cycle,
                               m->fromBigRouter);
        else if (lco && (m->kind == CohMsgKind::Data ||
                         m->kind == CohMsgKind::DataExcl ||
                         m->kind == CohMsgKind::AckCount))
            lco->responseArrived(static_cast<CoreId>(e.arg), e.cycle);
        break;
      case K::DirArrive:
        if (isRequest(*m))
            lco->dirArrived(m->requester, e.cycle);
        break;
      case K::DirService:
        trace->duration(TrackGroup::Directories,
                        static_cast<std::uint32_t>(e.node),
                        cohMsgKindName(m->kind), e.cycle,
                        static_cast<Cycle>(e.arg),
                        static_cast<std::uint64_t>(m->requester));
        break;
      case K::DirProcess:
        if (textOn("dir"))
            Trace::emit("dir", e.cycle,
                        format("DIR %d PROC %s", e.node,
                               m->toString().c_str()));
        if (recorder)
            record(FrKind::ProtoDispatch);
        // Fires when the bank finishes serving the request, so the
        // closed span covers queue wait + occupancy (+ DRAM). A GetX
        // the big router pre-invalidated for marks its acquire as
        // big-router-served.
        if (lco && isRequest(*m)) {
            lco->dirServed(m->requester, e.cycle);
            if (m->kind == CohMsgKind::GetX && m->earlyInvalidated)
                lco->earlyInvSeen(m->requester);
        }
        break;
      case K::DirSend:
      case K::DirDrop:
        record(e.kind == K::DirSend ? FrKind::MsgSend : FrKind::MsgDrop);
        break;
      case K::NiInject:
        if (packets)
            packets->onPacketQueued(*e.pkt, e.cycle);
        if (recorder)
            record(FrKind::NiInject);
        break;
      case K::NiEnter:
        packets->onNetworkEntry(e.id, e.cycle);
        break;
      case K::NiEject:
        if (packets)
            packets->onPacketEjected(*e.pkt, e.cycle);
        if (recorder)
            record(FrKind::NiEject);
        break;
      case K::RouterGenerate:
        // Generator packets bypass the source NI; open their lifetime
        // record here so hop stamps have a home.
        packets->onPacketQueued(*e.pkt, e.cycle);
        packets->onRouterArrive(e.node, e.id, e.cycle);
        break;
      case K::RouterArrive:
        packets->onRouterArrive(e.node, e.id, e.cycle);
        break;
      case K::RouterVaGrant:
        packets->onVaGrant(e.node, e.id, e.cycle);
        break;
      case K::RouterDepart:
        packets->onRouterDepart(e.node, e.id, e.cycle);
        break;
      case K::BrAckRelay:
        if (textOn("br"))
            Trace::emit("br", e.cycle,
                        format("BR %d ACK-RELAY %s", e.node,
                               m->toString().c_str()));
        if (recorder && e.arg != INVALID_NODE)
            record(FrKind::AckRelay);
        break;
      case K::BrStop:
        if (textOn("br"))
            Trace::emit("br", e.cycle,
                        format("BR %d STOP %s", e.node,
                               m->toString().c_str()));
        if (recorder)
            record(FrKind::BarrierStop);
        break;
      case K::NumKinds:
        break;
    }
}

} // namespace inpg

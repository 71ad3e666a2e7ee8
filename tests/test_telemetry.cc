/**
 * @file
 * Telemetry subsystem tests: the LCO attribution tiling invariant
 * (leg sum == end-to-end acquire latency, exactly), the TAS-vs-MCS
 * attribution ordering of Figure 2, packet-lifetime accounting,
 * trace-sink capping, the stats snapshot document, the event-stream
 * dispatch to each consumer, and that enabling telemetry never
 * changes simulated results.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "coh/coherence_msg.hh"
#include "coh/protocol_tables.hh"
#include "common/trace.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace inpg {
namespace {

/** One instrumented run; keeps the tracker state alive for asserts. */
struct LcoRun {
    std::vector<LcoAcquireRecord> records;
    LcoSummary summary;
    Cycle roi = 0;
    std::uint64_t lockCohCycles = 0;
    std::uint64_t csCompleted = 0;
};

LcoRun
runWithLco(LockKind kind, Mechanism mech = Mechanism::Original,
           const char *bench = "face", double cs_scale = 0.01,
           int num_locks = 0)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.lockKind = kind;
    cfg.mechanism = mech;
    cfg.telemetry.lco = true;
    cfg.finalize();
    System system(cfg);

    Workload::Params wp;
    wp.profile = benchmarkByName(bench);
    if (num_locks > 0)
        wp.profile.numLocks = num_locks;
    wp.threads = cfg.numCores();
    wp.csScale = cs_scale;
    wp.lockKind = kind;
    wp.seed = 1;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); });

    LcoRun out;
    LcoTracker *lco = system.telemetry()->lco.get();
    out.records = lco->records();
    out.summary = lco->summary();
    out.roi = w.roiFinish();
    out.csCompleted = w.csCompleted();
    for (int c = 0; c < cfg.numCores(); ++c)
        out.lockCohCycles +=
            system.coherent().l1(c).stats.value("lock_coh_cycles");
    return out;
}

/** Coherence-protocol share of the attributed acquire time. */
double
cohShare(const LcoSummary &s)
{
    const Cycle coh = s.legs.l1Access + s.legs.reqNetwork +
                      s.legs.dirService + s.legs.respNetwork +
                      s.legs.invAckWait;
    return s.totalLatency
               ? static_cast<double>(coh) /
                     static_cast<double>(s.totalLatency)
               : 0;
}

TEST(LcoAttribution, LegsTileEveryAcquireExactly_Tas)
{
    LcoRun r = runWithLco(LockKind::Tas);
    ASSERT_GT(r.records.size(), 0u);
    for (const auto &rec : r.records)
        ASSERT_EQ(rec.legs.sum(), rec.latency())
            << "thread " << rec.thread << " acquire at " << rec.start;
    EXPECT_EQ(r.summary.legs.sum(), r.summary.totalLatency);
    EXPECT_EQ(r.summary.acquires, r.csCompleted);
}

TEST(LcoAttribution, LegsTileEveryAcquireExactly_Mcs)
{
    LcoRun r = runWithLco(LockKind::Mcs);
    ASSERT_GT(r.records.size(), 0u);
    for (const auto &rec : r.records)
        ASSERT_EQ(rec.legs.sum(), rec.latency())
            << "thread " << rec.thread << " acquire at " << rec.start;
    EXPECT_EQ(r.summary.legs.sum(), r.summary.totalLatency);
}

TEST(LcoAttribution, LegsTileEveryAcquireExactly_QslWithSleeps)
{
    // QSL exercises the sleep legs; the tiling must still be exact.
    LcoRun r = runWithLco(LockKind::Qsl);
    ASSERT_GT(r.records.size(), 0u);
    for (const auto &rec : r.records)
        ASSERT_EQ(rec.legs.sum(), rec.latency());
    EXPECT_EQ(r.summary.legs.sum(), r.summary.totalLatency);
}

TEST(LcoAttribution, TasVsMcsOrderingMatchesFig02)
{
    // Figure 2: TAS has the highest lock-coherence share, MCS among
    // the lowest. The attribution must reproduce that ordering, and
    // agree with the independent L1-side lock_coh_cycles accounting.
    // Like bench_fig02_lco, concentrate all threads on a single lock
    // so contention (which is what separates the two) dominates.
    LcoRun tas = runWithLco(LockKind::Tas, Mechanism::Original, "face",
                            0.01, 1);
    LcoRun mcs = runWithLco(LockKind::Mcs, Mechanism::Original, "face",
                            0.01, 1);
    ASSERT_GT(tas.summary.acquires, 0u);
    ASSERT_GT(mcs.summary.acquires, 0u);

    const double tas_attr =
        static_cast<double>(tas.summary.totalLatency) * cohShare(
            tas.summary);
    const double mcs_attr =
        static_cast<double>(mcs.summary.totalLatency) * cohShare(
            mcs.summary);
    EXPECT_GT(tas_attr, mcs_attr);
    EXPECT_GT(tas.lockCohCycles, mcs.lockCohCycles);
}

TEST(LcoAttribution, InpgMarksEarlyInvalidatedAcquires)
{
    LcoRun r = runWithLco(LockKind::Tas, Mechanism::Inpg);
    EXPECT_GT(r.summary.acquiresWithEarlyInv, 0u);
    EXPECT_GT(r.summary.earlyInvAcks + r.summary.homeInvAcks, 0u);
}

TEST(Telemetry, EnablingItNeverChangesSimulatedResults)
{
    auto fingerprint = [](bool telemetry_on) {
        SystemConfig cfg;
        cfg.noc.meshWidth = 4;
        cfg.noc.meshHeight = 4;
        cfg.lockKind = LockKind::Tas;
        cfg.mechanism = Mechanism::Inpg;
        if (telemetry_on)
            cfg.telemetry.applySpec("all");
        cfg.finalize();
        System system(cfg);
        Workload::Params wp;
        wp.profile = benchmarkByName("face");
        wp.threads = cfg.numCores();
        wp.csScale = 0.01;
        wp.lockKind = cfg.lockKind;
        wp.seed = 3;
        Workload w(wp, system.coherent(), system.locks(),
                   system.sim());
        w.start();
        system.runUntil([&] { return w.done(); });
        std::uint64_t l1_sum = 0;
        for (int c = 0; c < cfg.numCores(); ++c)
            system.coherent().l1(c).stats.forEachCounter(
                [&](std::string_view, std::uint64_t v) { l1_sum += v; });
        return std::make_tuple(w.roiFinish(), w.csCompleted(), l1_sum,
                               system.totalEarlyInvs());
    };
    EXPECT_EQ(fingerprint(false), fingerprint(true));
}

TEST(Telemetry, ConfigSpecParsing)
{
    TelemetryConfig tc;
    EXPECT_FALSE(tc.any());
    tc.applySpec("lco,trace");
    EXPECT_TRUE(tc.lco);
    EXPECT_TRUE(tc.traceEvents);
    EXPECT_FALSE(tc.packets);
    tc.applySpec("all");
    EXPECT_TRUE(tc.packets && tc.kernel);
    tc.applySpec("off");
    EXPECT_FALSE(tc.any());
    // A misspelled token is an error, not a silently ignored feature.
    try {
        tc.applySpec("kernel,lcoo");
        ADD_FAILURE() << "unknown telemetry token accepted";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'lcoo'"), std::string::npos) << what;
        EXPECT_NE(what.find("valid: lco, packets"), std::string::npos)
            << what;
    }
    tc.applySpec("kernel,,lco,"); // empty segments are skipped
    EXPECT_TRUE(tc.kernel && tc.lco);
}

TEST(PacketLifetime, QueueAndNetworkLegsSumToTotalLatency)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.telemetry.packets = true;
    cfg.finalize();
    System system(cfg);
    Workload::Params wp;
    wp.profile = benchmarkByName("freq");
    wp.threads = cfg.numCores();
    wp.csScale = 0.005;
    wp.lockKind = cfg.lockKind;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); });

    const StatGroup &ps = system.telemetry()->packets->statGroup();
    ASSERT_GT(ps.value("packets_completed"), 0u);
    EXPECT_EQ(ps.value("packets_tracked"),
              ps.value("packets_completed") +
                  system.telemetry()->packets->inFlight());
    EXPECT_DOUBLE_EQ(ps.sampleValue("queue_wait").sum() +
                         ps.sampleValue("net_latency").sum(),
                     ps.sampleValue("total_latency").sum());
    EXPECT_GE(ps.sampleValue("hops").min(), 1.0);
}

TEST(TraceEvents, SinkCapsAndCounts)
{
    TraceEventSink sink(/*max_events=*/3);
    sink.duration(TrackGroup::Routers, 0, "a", 10, 5);
    sink.instant(TrackGroup::Routers, 0, "b", 12);
    sink.duration(TrackGroup::Threads, 1, "c", 14, 2);
    sink.instant(TrackGroup::Threads, 1, "d", 20); // over the cap
    EXPECT_EQ(sink.eventCount(), 3u);
    EXPECT_EQ(sink.droppedCount(), 1u);
    const std::string json = sink.writeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"d\""), std::string::npos);
}

TEST(StatsSnapshot, DocumentHasAllSections)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 2;
    cfg.noc.meshHeight = 2;
    cfg.telemetry.applySpec("all");
    cfg.finalize();
    System system(cfg);
    system.locks().createLock(LockKind::Tas, cfg.numCores());
    system.sim().run(50);

    StatsRegistry reg = system.buildStatsRegistry();
    EXPECT_GT(reg.groupCount(), 0u);
    JsonValue snap = system.statsSnapshot();
    const std::string text = snap.dump();
    EXPECT_NE(text.find("\"groups\""), std::string::npos);
    EXPECT_NE(text.find("\"scalars\""), std::string::npos);
    EXPECT_NE(text.find("\"histograms\""), std::string::npos);
    EXPECT_NE(text.find("\"lco\""), std::string::npos);
    EXPECT_NE(text.find("\"sim.cycles\""), std::string::npos);
    EXPECT_NE(text.find("\"l1.0\""), std::string::npos);
    EXPECT_NE(text.find("lock.") , std::string::npos);
}

TEST(Json, BuilderEmitsValidDocuments)
{
    JsonValue doc = JsonValue::object();
    doc["int"] = -3;
    doc["uint"] = static_cast<std::uint64_t>(1) << 40;
    doc["str"] = "a\"b\\c\n\t";
    doc["bool"] = true;
    doc["null"];
    doc["arr"].push(1);
    doc["arr"].push("two");
    doc["nested"]["x"] = 0.5;
    EXPECT_EQ(doc.dump(),
              "{\"int\":-3,\"uint\":1099511627776,"
              "\"str\":\"a\\\"b\\\\c\\n\\t\",\"bool\":true,"
              "\"null\":null,\"arr\":[1,\"two\"],"
              "\"nested\":{\"x\":0.5}}");
}

/** Text-trace lines of every channel, captured for one test. */
struct TextCapture {
    TextCapture()
    {
        Trace::enable("all");
        previous = Trace::setSink(
            [this](const std::string &line) { lines.push_back(line); });
    }

    ~TextCapture()
    {
        Trace::setSink(previous);
        Trace::disable("all");
    }

    /** Channel of each captured line, in order. */
    std::vector<std::string>
    channels() const
    {
        std::vector<std::string> out;
        for (const std::string &l : lines) {
            const std::size_t open = l.find("] ") + 2;
            out.push_back(l.substr(open, l.find(':', open) - open));
        }
        return out;
    }

    std::vector<std::string> lines;
    Trace::Sink previous;
};

/** Kind names of the recorder's retained events, oldest first. */
std::vector<std::string>
recordedKinds(const FlightRecorder &rec)
{
    std::vector<std::string> out;
    const JsonValue events = rec.toJson();
    for (const JsonValue &e : events.items())
        out.push_back(e.at("kind").asString());
    return out;
}

CohMsgPtr
cohMsg(CohMsgKind kind, CoreId requester)
{
    auto m = std::make_shared<CoherenceMsg>();
    m->kind = kind;
    m->addr = 0x1040;
    m->requester = requester;
    return m;
}

TEST(TelemetryStream, EachKindReachesEveryConsumerThatTakesIt)
{
    TextCapture text;
    TelemetryConfig tc;
    tc.applySpec("lco,packets,trace,recorder");
    Telemetry telem(tc, 4);
    using K = SimEventKind;
    auto emitMsg = [&](K kind, Cycle now, int node, const CohMsgPtr &m,
                       std::int64_t arg = 0) {
        telem.emit({.kind = kind, .cycle = now, .node = node,
                    .id = m->addr, .arg = arg, .msg = m.get()});
    };

    // Acquire A (thread/core 1): one GetX miss through a directory the
    // big router pre-invalidated for, answered by DataExcl plus one
    // home InvAck, then a sleep. Each event closes exactly one leg.
    auto getx = cohMsg(CohMsgKind::GetX, 1);
    getx->earlyInvalidated = true;
    telem.emit({K::AcquireBegin, 100, 1});
    telem.emit({K::L1OpIssued, 103, 1});           // spin 3
    emitMsg(K::L1Send, 105, 1, getx, 4);          // l1 access 2
    emitMsg(K::DirArrive, 110, 4, getx);          // request net 5
    emitMsg(K::DirProcess, 120, 4, getx, 1);      // dir service 10
    emitMsg(K::L1Recv, 127, 1, cohMsg(CohMsgKind::DataExcl, 4),
            1);                                   // response net 7
    emitMsg(K::L1Recv, 130, 1, cohMsg(CohMsgKind::InvAck, 2),
            1);                                   // InvAck wait 3
    telem.emit({K::L1OpCompleted, 131, 1});       // other 1
    telem.emit({K::SleepBegin, 134, 1});          // spin 3
    telem.emit({K::SleepEnd, 140, 1});            // sleep 6
    telem.emit({K::AcquireEnd, 142, 1});          // other 2

    // Acquire B (thread 2): an early Inv for its GetX reaches core 3.
    telem.emit({K::AcquireBegin, 150, 2});
    auto inv = cohMsg(CohMsgKind::Inv, 2);
    inv->fromBigRouter = true;
    emitMsg(K::L1Recv, 155, 3, inv, 3);
    telem.emit({K::AcquireEnd, 160, 2});

    const std::vector<LcoAcquireRecord> &recs = telem.lco->records();
    ASSERT_EQ(recs.size(), 2u);
    const LcoLegs &a = recs[0].legs;
    EXPECT_EQ(a.spinWait, 6u);
    EXPECT_EQ(a.l1Access, 2u);
    EXPECT_EQ(a.reqNetwork, 5u);
    EXPECT_EQ(a.dirService, 10u);
    EXPECT_EQ(a.respNetwork, 7u);
    EXPECT_EQ(a.invAckWait, 3u);
    EXPECT_EQ(a.sleepWait, 6u);
    EXPECT_EQ(a.other, 3u);
    EXPECT_EQ(a.sum(), recs[0].latency());
    EXPECT_EQ(recs[0].misses, 1u);
    EXPECT_EQ(recs[0].homeInvAcks, 1u);
    EXPECT_TRUE(recs[0].sawEarlyInv); // from the directory event
    EXPECT_TRUE(recs[1].sawEarlyInv); // from the L1 Inv event

    // Packet 7 crosses router 0 from node 0 to node 3.
    auto pkt = std::make_shared<Packet>(7, 0, 3, 0, 1, getx);
    telem.emit({.kind = K::NiInject, .cycle = 200, .node = 0, .id = 7,
                .arg = 3, .pkt = pkt.get()});
    telem.emit({K::NiEnter, 202, 0, 7});
    telem.emit({K::RouterArrive, 203, 0, 7});
    telem.emit({K::RouterVaGrant, 205, 0, 7});
    telem.emit({K::RouterDepart, 206, 0, 7});
    telem.emit({.kind = K::NiEject, .cycle = 210, .node = 3, .id = 7,
                .arg = 0, .pkt = pkt.get()});
    // A big router's generated packet 9 opens its record at router 2.
    auto gen = std::make_shared<Packet>(9, 2, 1, 0, 1, inv);
    telem.emit({.kind = K::RouterGenerate, .cycle = 220, .node = 2,
                .id = 9, .pkt = gen.get()});

    const StatGroup &ps = telem.packets->statGroup();
    EXPECT_EQ(ps.value("packets_tracked"), 2u);
    EXPECT_EQ(ps.value("packets_completed"), 1u);
    EXPECT_DOUBLE_EQ(ps.sampleValue("queue_wait").sum(), 2.0);
    EXPECT_DOUBLE_EQ(ps.sampleValue("net_latency").sum(), 8.0);
    EXPECT_DOUBLE_EQ(ps.sampleValue("hop_buffer_wait").sum(), 2.0);
    EXPECT_DOUBLE_EQ(ps.sampleValue("hop_switch_wait").sum(), 1.0);
    const JsonValue live = telem.packets->inFlightJson(230);
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live.item(0).at("hops").item(0).at("router").asInt(), 2);
    // The ejection drew packet 7's router, NI and arrival slices.
    EXPECT_EQ(telem.trace->eventCount(), 3u);

    emitMsg(K::DirService, 240, 4, getx, 12);
    EXPECT_EQ(telem.trace->eventCount(), 4u);
    EXPECT_NE(telem.trace->writeJson().find("\"dur\":12"),
              std::string::npos);

    telem.emit({K::DirSend, 250, 4, getx->addr, 1, getx.get(), nullptr,
                "Data"});
    telem.emit({K::DirDrop, 251, 4, getx->addr, 1, getx.get(), nullptr,
                "Data"});
    auto ack = cohMsg(CohMsgKind::InvAck, 2);
    ack->fromBigRouter = true;
    emitMsg(K::BrAckRelay, 260, 5, ack, 4);
    emitMsg(K::BrAckRelay, 261, 5, ack,
            INVALID_NODE); // not relayed
    emitMsg(K::BrStop, 262, 5, getx, 1);

    EXPECT_EQ(recordedKinds(*telem.recorder),
              (std::vector<std::string>{
                  "proto", "proto", "proto", "proto", "inject", "eject",
                  "send", "drop", "ack-relay", "barrier-stop"}));
    EXPECT_EQ(telem.recorder->toJson().item(6).at("tag").asString(),
              "Data");
    EXPECT_EQ(text.channels(),
              (std::vector<std::string>{"l1", "dir", "l1", "l1", "l1",
                                        "br", "br", "br"}));
    EXPECT_EQ(text.lines[0], "[105] l1: L1 1 SEND->4 " + getx->toString());
    EXPECT_EQ(text.lines[1], "[120] dir: DIR 4 PROC " + getx->toString());
    EXPECT_EQ(text.lines[5], "[260] br: BR 5 ACK-RELAY " + ack->toString());
    EXPECT_EQ(text.lines[7], "[262] br: BR 5 STOP " + getx->toString());
}

TEST(TelemetryStream, RecorderIgnoresKindsItDoesNotRecord)
{
    TextCapture text; // the text consumer takes L1 sends
    TelemetryConfig tc;
    tc.applySpec("lco,packets,trace,recorder");
    Telemetry telem(tc, 2);
    using K = SimEventKind;
    auto getx = cohMsg(CohMsgKind::GetX, 1);
    auto pkt = std::make_shared<Packet>(3, 0, 1, 0, 1, getx);
    telem.emit({K::AcquireBegin, 10, 1});
    telem.emit({K::L1OpIssued, 11, 1});
    telem.emit({.kind = K::L1Send, .cycle = 12, .node = 1,
                .id = getx->addr, .arg = 0, .msg = getx.get()});
    telem.emit({.kind = K::DirArrive, .cycle = 13, .node = 0,
                .id = getx->addr, .msg = getx.get()});
    telem.emit({.kind = K::DirService, .cycle = 14, .node = 0,
                .id = getx->addr, .arg = 2, .msg = getx.get()});
    telem.emit({.kind = K::RouterGenerate, .cycle = 15, .node = 0,
                .id = 3, .pkt = pkt.get()});
    telem.emit({K::NiEnter, 16, 0, 3});
    telem.emit({K::RouterArrive, 17, 1, 3});
    telem.emit({K::RouterVaGrant, 18, 1, 3});
    telem.emit({K::RouterDepart, 19, 1, 3});
    telem.emit({K::L1OpCompleted, 20, 1});
    telem.emit({K::SleepBegin, 21, 1});
    telem.emit({K::SleepEnd, 22, 1});
    telem.emit({K::AcquireEnd, 23, 1});

    EXPECT_EQ(telem.recorder->recordedTotal(), 0u);
    // ... while the consumers that take them saw them.
    EXPECT_EQ(telem.lco->summary().acquires, 1u);
    EXPECT_EQ(telem.packets->inFlight(), 1u);
    EXPECT_EQ(text.lines.size(), 1u);
}

TEST(TelemetryStream, L1ReceiveHooksMatchTheProtocolTable)
{
    // For each message event, the LCO hooks the L1 table declares
    // (except opCompleted, which the completing op fires) are exactly
    // the ones the L1Recv consumer drives.
    const ProtoTableBase &table = l1ProtocolTable();
    for (CohMsgKind kind :
         {CohMsgKind::Inv, CohMsgKind::FwdGetS, CohMsgKind::FwdGetX,
          CohMsgKind::Data, CohMsgKind::DataExcl, CohMsgKind::AckCount,
          CohMsgKind::InvAck}) {
        const int ev = static_cast<int>(l1EventForMsgKind(kind));
        std::set<std::string> declared;
        for (int st = 0; st < table.numStates(); ++st) {
            const ProtoTransition *tr = table.find(st, ev);
            if (!tr || !tr->legal())
                continue;
            for (const char *h : tr->lcoHooks)
                if (std::string(h) != "opCompleted")
                    declared.insert(h);
        }

        TelemetryConfig tc;
        tc.lco = true;
        Telemetry telem(tc, 2);
        auto m = cohMsg(kind, 1);
        m->fromBigRouter = true;
        telem.emit({SimEventKind::AcquireBegin, 0, 1});
        telem.emit({SimEventKind::L1Recv, 5, 1, m->addr, 1, m.get()});
        telem.emit({SimEventKind::AcquireEnd, 9, 1});
        const LcoAcquireRecord &r = telem.lco->records().at(0);
        std::set<std::string> driven;
        if (r.legs.respNetwork > 0)
            driven.insert("responseArrived");
        if (r.legs.invAckWait > 0)
            driven.insert("invAckArrived");
        if (r.sawEarlyInv && r.earlyInvAcks == 0)
            driven.insert("earlyInvSeen");
        EXPECT_EQ(driven, declared) << cohMsgKindName(kind);
    }
}

TEST(TelemetryStream, InterestMaskRejectsKindsNoConsumerTakes)
{
    using K = SimEventKind;
    const K packet_hops[] = {K::NiInject,     K::NiEnter,
                             K::NiEject,      K::RouterGenerate,
                             K::RouterArrive, K::RouterVaGrant,
                             K::RouterDepart};
    TelemetryConfig tc;
    tc.lco = true;
    Telemetry lco_only(tc, 1);
    for (K k : packet_hops)
        EXPECT_FALSE(lco_only.wants(k)) << static_cast<int>(k);
    for (K k : {K::AcquireBegin, K::L1Send, K::L1Recv, K::DirProcess})
        EXPECT_TRUE(lco_only.wants(k)) << static_cast<int>(k);
    EXPECT_FALSE(lco_only.wants(K::DirService)); // Chrome sink only
    EXPECT_FALSE(lco_only.wants(K::DirSend));    // recorder only

    tc = TelemetryConfig{};
    tc.packets = true;
    Telemetry packets_only(tc, 1);
    for (K k : packet_hops)
        EXPECT_TRUE(packets_only.wants(k)) << static_cast<int>(k);
    EXPECT_FALSE(packets_only.wants(K::AcquireBegin));
}

TEST(KernelProfile, RecordsCyclesAndFastForwardSkips)
{
    TelemetryConfig tc;
    tc.kernel = true;
    Telemetry telem(tc, 1);
    Simulator sim;
    sim.setTelemetry(&telem);
    bool fired = false;
    sim.scheduleIn(500, [&] { fired = true; });
    sim.run(600); // idle span fast-forwards to the event
    EXPECT_TRUE(fired);
    EXPECT_GT(telem.kernel->eventsPerCycleHist().count(), 0u);
    EXPECT_GT(telem.kernel->ffSkipHist().count(), 0u);
    EXPECT_GE(telem.kernel->ffSkipHist().max(), 400u);
}

} // namespace
} // namespace inpg

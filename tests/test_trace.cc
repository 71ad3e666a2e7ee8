/**
 * @file
 * Trace facility tests: channel gating, sinks, and that protocol
 * components actually emit on their channels through the telemetry
 * text-trace consumer.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <vector>

#include "coh/coherent_system.hh"
#include "common/trace.hh"
#include "harness/sweep_runner.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"
#include "workload/benchmark_profile.hh"

namespace inpg {
namespace {

struct TraceCapture {
    TraceCapture()
    {
        previous = Trace::setSink(
            [this](const std::string &line) { lines.push_back(line); });
    }

    ~TraceCapture()
    {
        Trace::setSink(previous);
        Trace::disable("all");
    }

    std::vector<std::string> lines;
    Trace::Sink previous;
};

TEST(Trace, ChannelGating)
{
    TraceCapture cap;
    EXPECT_FALSE(Trace::enabled("l1"));
    Trace::enable("l1");
    EXPECT_TRUE(Trace::enabled("l1"));
    EXPECT_TRUE(Trace::enabled("L1")); // case-insensitive
    EXPECT_FALSE(Trace::enabled("dir"));
    Trace::disable("l1");
    EXPECT_FALSE(Trace::enabled("l1"));
    Trace::enable("all");
    EXPECT_TRUE(Trace::enabled("anything"));
    Trace::disable("all");
    EXPECT_FALSE(Trace::enabled("anything"));
}

TEST(Trace, EmitFormatsCycleAndChannel)
{
    TraceCapture cap;
    Trace::enable("x");
    Trace::emit("x", 42, "value=7");
    ASSERT_EQ(cap.lines.size(), 1u);
    EXPECT_EQ(cap.lines[0], "[42] x: value=7");

    // Component lines come from the telemetry text consumer, which
    // formats them the same way and honours each line's channel.
    Trace::enable("l1");
    Telemetry telem(TelemetryConfig{}, 1);
    CoherenceMsg msg;
    msg.kind = CohMsgKind::GetS;
    msg.addr = 0x40;
    msg.requester = 3;
    telem.emit({.kind = SimEventKind::L1Send, .cycle = 43, .node = 3,
                .id = msg.addr, .arg = 5, .msg = &msg});
    ASSERT_EQ(cap.lines.size(), 2u);
    EXPECT_EQ(cap.lines[1], "[43] l1: L1 3 SEND->5 " + msg.toString());
    // Disabled channel: no line (nor formatting).
    telem.emit({.kind = SimEventKind::DirProcess, .cycle = 44, .node = 5,
                .id = msg.addr, .arg = 3, .msg = &msg});
    EXPECT_EQ(cap.lines.size(), 2u);
}

TEST(Trace, ProtocolComponentsEmitOnTheirChannels)
{
    TraceCapture cap;
    Trace::enable("l1");
    Trace::enable("dir");

    NocConfig noc;
    noc.meshWidth = 2;
    noc.meshHeight = 2;
    CohConfig coh;
    // Installed the way System does: the event stream goes into the
    // kernel before the components are built, and the text consumer
    // attaches because channels are enabled by then.
    Telemetry telem(TelemetryConfig{}, noc.numNodes());
    Simulator sim;
    sim.setTelemetry(&telem);
    CoherentSystem sys(noc, coh, sim);
    bool done = false;
    sys.l1(0).issueLoad(coh.lineHomedAt(3), false,
                        [&](std::uint64_t) { done = true; });
    ASSERT_TRUE(sim.runUntil([&] { return done; }, 10000));

    bool saw_l1 = false;
    bool saw_dir = false;
    for (const auto &line : cap.lines) {
        saw_l1 |= line.find("l1:") != std::string::npos;
        saw_dir |= line.find("dir:") != std::string::npos;
    }
    EXPECT_TRUE(saw_l1);
    EXPECT_TRUE(saw_dir);
}

TEST(Trace, ParallelSweepDoesNotTearLines)
{
    TraceCapture cap;
    Trace::enable("l1");

    // Four concurrent workers, all tracing into the same sink.
    std::vector<RunConfig> configs;
    for (int i = 0; i < 4; ++i) {
        RunConfig rc;
        rc.profile = benchmarkByName("freq");
        rc.system.noc.meshWidth = 2;
        rc.system.noc.meshHeight = 2;
        rc.system.seed = static_cast<std::uint64_t>(i + 1);
        rc.csScale = 0.002;
        configs.push_back(rc);
    }
    SweepOptions opts;
    opts.threads = 4;
    runSweep(configs, opts);

    ASSERT_FALSE(cap.lines.empty());
    for (const auto &line : cap.lines) {
        // Every delivered line is exactly one well-formed record:
        // "[<cycle>] l1: <msg>" with no embedded newline and no second
        // header (which is what an interleaved/torn write would show).
        ASSERT_GT(line.size(), 2u) << line;
        EXPECT_EQ(line.find('\n'), std::string::npos) << line;
        ASSERT_EQ(line[0], '[') << line;
        const std::size_t close = line.find(']');
        ASSERT_NE(close, std::string::npos) << line;
        for (std::size_t i = 1; i < close; ++i)
            ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(
                line[i])))
                << line;
        ASSERT_EQ(line.compare(close, 6, "] l1: "), 0) << line;
        EXPECT_EQ(line.find("] l1: ", close + 1), std::string::npos)
            << line;
    }
}

} // namespace
} // namespace inpg

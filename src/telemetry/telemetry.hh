/**
 * @file
 * Telemetry facade: configuration, the typed simulation event stream,
 * and ownership of the optional consumers (LCO attribution, packet
 * lifetimes, flight recorder, Chrome-trace sink, text trace) plus the
 * kernel-side observers (kernel profile, timeseries, watchdog).
 *
 * Every instrumented site in noc/coh/inpg/sync makes exactly one
 * `Telemetry::emit(SimEvent)` call; the facade hands the event to each
 * consumer that takes its kind, in one switch (DESIGN.md Section 7).
 *
 * Zero-cost-when-off contract: components hold (or reach through the
 * Simulator) a `Telemetry *` that is null when nothing is on, so a
 * site costs one predictable branch. With telemetry on, a kind that no
 * enabled consumer takes costs one test of the interest mask computed
 * at construction. The determinism tests and golden fingerprints pin
 * down that enabling any consumer never changes simulated results.
 */

#ifndef INPG_TELEMETRY_TELEMETRY_HH
#define INPG_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/histogram.hh"
#include "common/types.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/lco_attribution.hh"
#include "telemetry/packet_lifetime.hh"
#include "telemetry/stats_registry.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_event.hh"
#include "telemetry/watchdog.hh"

namespace inpg {

struct CoherenceMsg;

/** Epoch length used when `timeseries` is enabled without one. */
inline constexpr Cycle DEFAULT_TIMESERIES_EPOCH = 4096;

/** No-progress window used when `watchdog` is enabled without one. */
inline constexpr Cycle DEFAULT_WATCHDOG_WINDOW = 1'000'000;

/** Which trackers to build; all default off. */
struct TelemetryConfig {
    bool lco = false;         ///< per-acquire LCO attribution
    bool packets = false;     ///< hop-granular packet lifetimes
    bool traceEvents = false; ///< Chrome-trace event sink
    bool kernel = false;      ///< kernel profile (events/cycle, FF skips)
    bool recorder = false;    ///< flight recorder of recent events

    /** Flight-recorder ring capacity (rounded up to a power of two). */
    std::size_t recorderCapacity = 4096;

    /** Timeseries epoch length in cycles; 0 = sampler off. */
    Cycle timeseriesEpoch = 0;

    /** Timeseries row cap (bounded-recording discipline). */
    std::size_t timeseriesMaxRows = 1u << 20;

    /** Watchdog no-progress window in executed cycles; 0 = off. */
    Cycle watchdogWindow = 0;

    bool
    any() const
    {
        return lco || packets || traceEvents || kernel || recorder ||
               timeseriesEpoch > 0 || watchdogWindow > 0;
    }

    /**
     * Apply a comma-separated spec: `lco`, `packets`, `trace`,
     * `kernel`, `recorder`, `timeseries`, `watchdog`, `all`, `off`.
     * `timeseries`/`watchdog` use default epoch/window when none was
     * configured. `all` enables every pure observer but NOT the
     * watchdog: tripping terminates the run, so it stays opt-in.
     * Empty segments are skipped; any other token raises FatalError
     * naming it. Also the INPG_TELEMETRY env-var format.
     */
    void applySpec(const std::string &spec);
};

/** Kernel-level profile: scheduler load and fast-forward behavior. */
class KernelProfile
{
  public:
    /** Record one executed cycle's event count and queue depth. */
    void
    onCycle(std::uint64_t events_run, std::size_t queue_depth)
    {
        eventsPerCycle.add(events_run);
        wheelOccupancy.add(queue_depth);
    }

    /** Record one idle fast-forward jump of `gap` cycles. */
    void onFastForward(Cycle gap) { ffSkip.add(gap); }

    const Histogram &eventsPerCycleHist() const { return eventsPerCycle; }
    const Histogram &wheelOccupancyHist() const { return wheelOccupancy; }
    const Histogram &ffSkipHist() const { return ffSkip; }

  private:
    Histogram eventsPerCycle{1, 64};
    Histogram wheelOccupancy{4, 64};
    Histogram ffSkip{16, 64};
};

/**
 * What happened at an instrumented site. The kind fixes the meaning of
 * the SimEvent fields; DESIGN.md Section 7 tables them with the
 * consumers that take each kind.
 */
enum class SimEventKind : std::uint8_t {
    AcquireBegin,   ///< lock primitives: node = thread
    AcquireEnd,
    SleepBegin,
    SleepEnd,
    L1OpIssued,     ///< L1 controllers: node = core
    L1OpCompleted,
    L1Send,         ///< id = addr, arg = destination, msg
    L1Recv,         ///< node = L1 node, id = addr, arg = core, msg, tags
    DirArrive,      ///< directories: node = home, id = addr, msg
    DirService,     ///< bank busy for arg cycles
    DirProcess,     ///< arg = requester, tags
    DirSend,        ///< arg = destination, tag0 = message kind
    DirDrop,        ///< a send the seeded-hang knob swallowed; as DirSend
    NiInject,       ///< NIs: node = NI, id = packet id; arg = dst, pkt
    NiEnter,
    NiEject,        ///< arg = source, pkt
    RouterGenerate, ///< routers: node = router, id = packet id; pkt
    RouterArrive,
    RouterVaGrant,
    RouterDepart,
    BrAckRelay,     ///< big routers: node = router, id = addr, msg;
                    ///< arg = home, INVALID_NODE when not relayed
    BrStop,         ///< arg = requester of the stopped GetX
    NumKinds
};
static_assert(static_cast<unsigned>(SimEventKind::NumKinds) <= 32,
              "the interest mask holds one bit per kind");

/**
 * One simulation event, built on the stack at its site and handed to
 * Telemetry::emit(). Tags are static strings (table/state/event
 * names); `msg` and `pkt` are valid only during the emit() call.
 */
struct SimEvent {
    SimEventKind kind;
    Cycle cycle;
    std::int32_t node;    ///< thread, core, node, NI or router id
    std::uint64_t id = 0; ///< line address or packet id
    std::int64_t arg = 0; ///< kind-specific operand
    const CoherenceMsg *msg = nullptr;
    const Packet *pkt = nullptr;
    const char *tag0 = nullptr;
    const char *tag1 = nullptr;
    const char *tag2 = nullptr;
};

/**
 * Owner of the enabled consumers and the event stream feeding them.
 * A consumer is null when it is off; readers (the harness, tests,
 * perfbench) use them directly after a run.
 */
class Telemetry
{
  public:
    /**
     * The text-trace consumer is attached when Trace has any channel
     * enabled now; each line still honours its channel when emitted.
     */
    Telemetry(const TelemetryConfig &config, int num_cores);

    /** Hand `e` to every enabled consumer that takes its kind. */
    void
    emit(const SimEvent &e)
    {
        if (wants(e.kind))
            dispatch(e);
    }

    /** True when some enabled consumer takes events of kind `k`. */
    bool
    wants(SimEventKind k) const
    {
        return (interest >> static_cast<unsigned>(k)) & 1u;
    }

    const std::unique_ptr<TraceEventSink> trace;
    const std::unique_ptr<LcoTracker> lco;
    const std::unique_ptr<PacketLifetimeTracker> packets;
    const std::unique_ptr<KernelProfile> kernel;
    const std::unique_ptr<FlightRecorder> recorder;
    const std::unique_ptr<TimeseriesSampler> timeseries;
    const std::unique_ptr<ProgressWatchdog> watchdog;

  private:
    void dispatch(const SimEvent &e);

    const bool text; ///< text-trace consumer attached
    const std::uint32_t interest; ///< bit k: some consumer takes kind k
};

} // namespace inpg

#endif // INPG_TELEMETRY_TELEMETRY_HH

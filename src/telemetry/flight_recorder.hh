/**
 * @file
 * Flight recorder: a bounded, pooled ring buffer of the most recent
 * protocol / NoC events, kept cheap enough to leave on during long
 * runs and dumped when something goes wrong (watchdog hang report, sim
 * panic).
 *
 * Recording discipline: the ring is preallocated at construction and
 * one record is one POD store -- no allocation, no formatting, no
 * string copies (all text fields are static-lifetime table/tag
 * strings, reusing the declarative transition-table names from the
 * protocol layer). When the ring is full the oldest entry is
 * overwritten; `wrapped()` counts how many were lost. The recorder is
 * a consumer of the telemetry event stream: Telemetry owns it and
 * records the seven kinds below, so it costs nothing when off.
 *
 * Panic integration: live recorders register themselves in a global
 * (mutex-guarded) registry and install a panic hook, so `panic()`
 * dumps the most recent events to stderr before aborting.
 */

#ifndef INPG_TELEMETRY_FLIGHT_RECORDER_HH
#define INPG_TELEMETRY_FLIGHT_RECORDER_HH

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/types.hh"
#include "telemetry/json.hh"

namespace inpg {

/** Event class of one flight-recorder entry. */
enum class FrKind : std::uint8_t {
    ProtoDispatch, ///< a transition table dispatched (tag0/1/2 = table/state/event)
    MsgSend,       ///< a coherence controller sent a message (tag0 = kind)
    MsgDrop,       ///< a message was dropped (seeded-hang knob; tag0 = kind)
    NiInject,      ///< a packet entered the fabric at its source NI
    NiEject,       ///< a packet was reassembled and delivered at its dest NI
    BarrierStop,   ///< a big router stopped a GetX under a barrier (EI open)
    AckRelay,      ///< a big router relayed an InvAck toward the home node
};

/** Name of a FrKind ("proto", "send", ...). */
const char *frKindName(FrKind k);

/** Bounded ring recorder of recent protocol/NoC events. */
class FlightRecorder
{
  public:
    /** @param capacity ring size; rounded up to a power of two. */
    explicit FlightRecorder(std::size_t capacity = 4096);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Record one event. All strings must have static lifetime (table
     * names, enum-name functions, literals); they are stored by
     * pointer. Hot path: one ring store, no allocation.
     */
    void
    record(FrKind kind, Cycle now, NodeId node, Addr addr,
           std::uint64_t arg = 0, const char *tag0 = nullptr,
           const char *tag1 = nullptr, const char *tag2 = nullptr)
    {
        Event &e = ring[head & mask];
        e.cycle = now;
        e.addr = addr;
        e.arg = arg;
        e.tag0 = tag0;
        e.tag1 = tag1;
        e.tag2 = tag2;
        e.node = node;
        e.kind = kind;
        ++head;
        ++total;
    }

    /** Events recorded over the recorder's lifetime. */
    std::uint64_t recordedTotal() const { return total; }

    /** Events lost to ring wrap-around (recorded - retained). */
    std::uint64_t
    wrapped() const
    {
        return total > ring.size() ? total - ring.size() : 0;
    }

    /** Events currently retained in the ring. */
    std::size_t
    retained() const
    {
        return total < ring.size() ? static_cast<std::size_t>(total)
                                   : ring.size();
    }

    std::size_t capacity() const { return ring.size(); }

    /** Retained events, oldest first, as a JSON array. */
    JsonValue toJson() const;

    /**
     * Plain-text dump of the newest `max_events` retained events to a
     * stream (the panic path: no allocation-heavy JSON machinery).
     */
    void dumpText(std::FILE *out, std::size_t max_events = 64) const;

  private:
    struct Event {
        Cycle cycle = 0;
        Addr addr = 0;
        std::uint64_t arg = 0;
        const char *tag0 = nullptr;
        const char *tag1 = nullptr;
        const char *tag2 = nullptr;
        NodeId node = INVALID_NODE;
        FrKind kind = FrKind::ProtoDispatch;
    };

    std::vector<Event> ring;
    std::uint64_t mask;
    std::uint64_t head = 0;
    std::uint64_t total = 0;
};

} // namespace inpg

#endif // INPG_TELEMETRY_FLIGHT_RECORDER_HH

/**
 * @file
 * Per-lock-acquire latency attribution: decomposes lock coherence
 * overhead (LCO) into the legs the paper's Fig. 2 reports -- request
 * network traversal, directory occupancy, response leg, Inv/InvAck
 * round trips -- and distinguishes home-node-served from
 * big-router-served invalidations so iNPG's mechanism (moving the
 * early-Inv leg off the home node) is directly observable.
 *
 * Accounting model: a mark cursor per core. acquireBegin() plants the
 * cursor; every subsequent protocol hook closes the half-open
 * interval [mark, now) into exactly one named leg and advances the
 * cursor; acquireEnd() closes the residual. Because the legs tile
 * the acquire window with no gaps or overlaps, their sum equals the
 * end-to-end acquire latency *exactly*, cycle for cycle, no matter
 * which hooks fire (hits, misses, early-Inv shortcuts, retries,
 * sleeps). Tests assert that invariant.
 */

#ifndef INPG_TELEMETRY_LCO_ATTRIBUTION_HH
#define INPG_TELEMETRY_LCO_ATTRIBUTION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace inpg {

class JsonValue;

/** Cycle totals per attribution leg; together they tile an acquire. */
struct LcoLegs {
    Cycle l1Access = 0;   ///< L1 lookup/RMW latency (incl. spin loads)
    Cycle reqNetwork = 0; ///< GetS/GetX travel, NI inject -> directory
    Cycle dirService = 0; ///< directory queue wait + occupancy + DRAM
    Cycle respNetwork = 0; ///< Data/AckCount travel back to requester
    Cycle invAckWait = 0; ///< waiting on InvAcks after the response
    Cycle spinWait = 0;   ///< spin backoff between lock attempts
    Cycle sleepWait = 0;  ///< QSL sleep (context switch + wakeup)
    Cycle other = 0;      ///< residual (callback scheduling slack)

    Cycle
    sum() const
    {
        return l1Access + reqNetwork + dirService + respNetwork +
               invAckWait + spinWait + sleepWait + other;
    }

    void add(const LcoLegs &o);
};

/** One completed lock acquire, fully attributed. */
struct LcoAcquireRecord {
    ThreadId thread = 0;
    Cycle start = 0;
    Cycle end = 0;
    LcoLegs legs;
    std::uint32_t ops = 0;    ///< lock-line L1 operations issued
    std::uint32_t misses = 0; ///< of which missed to the directory
    std::uint32_t homeInvAcks = 0;  ///< InvAcks from home-node Invs
    std::uint32_t earlyInvAcks = 0; ///< InvAcks from big-router Invs
    bool sawEarlyInv = false; ///< any big-router Inv touched this acquire

    Cycle latency() const { return end - start; }
};

/** Aggregate over all completed acquires. */
struct LcoSummary {
    std::uint64_t acquires = 0;
    Cycle totalLatency = 0;
    Cycle maxLatency = 0;
    LcoLegs legs;
    std::uint64_t ops = 0;
    std::uint64_t misses = 0;
    std::uint64_t homeInvAcks = 0;
    std::uint64_t earlyInvAcks = 0;
    std::uint64_t acquiresWithEarlyInv = 0;

    double
    meanLatency() const
    {
        return acquires
                   ? static_cast<double>(totalLatency) /
                         static_cast<double>(acquires)
                   : 0;
    }

    JsonValue toJson() const;
};

/**
 * Consumer of the lock, L1 and directory events of the telemetry
 * stream (Telemetry's dispatch calls these hooks). All hooks are keyed by core id (== thread id in this simulator) and
 * ignore cores with no acquire in flight, so release-path traffic and
 * non-lock workload ops never pollute the attribution.
 */
class LcoTracker
{
  public:
    explicit LcoTracker(int num_cores);

    // -- lock primitive hooks ------------------------------------------
    void acquireBegin(ThreadId t, Cycle now);
    void acquireEnd(ThreadId t, Cycle now);

    // -- L1 / directory hooks ------------------------------------------
    void opIssued(CoreId c, Cycle now);
    void requestSent(CoreId c, Cycle now);
    void dirArrived(CoreId c, Cycle now);
    void dirServed(CoreId c, Cycle now);
    void responseArrived(CoreId c, Cycle now);
    void invAckArrived(CoreId c, Cycle now, bool early);
    void earlyInvSeen(CoreId requester);
    void opCompleted(CoreId c, Cycle now);

    // -- QSL sleep hooks -----------------------------------------------
    void sleepBegin(ThreadId t, Cycle now);
    void sleepEnd(ThreadId t, Cycle now);

    const LcoSummary &summary() const { return total; }

    /** Retained individual records (capped; aggregation never caps). */
    const std::vector<LcoAcquireRecord> &records() const { return kept; }

    /** Per-record retention cap; 0 keeps aggregates only. */
    void setRecordCap(std::size_t cap) { recordCap = cap; }

  private:
    struct CoreState {
        bool active = false;
        bool opMissed = false; ///< current L1 op went to the directory
        Cycle start = 0;
        Cycle mark = 0;
        LcoAcquireRecord rec;
    };

    /** Close [mark, now) into `leg` and advance the cursor. */
    void
    close(CoreState &st, Cycle now, Cycle LcoLegs::*leg)
    {
        st.rec.legs.*leg += now - st.mark;
        st.mark = now;
    }

    std::vector<CoreState> cores;
    LcoSummary total;
    std::vector<LcoAcquireRecord> kept;
    std::size_t recordCap = 65536;
};

} // namespace inpg

#endif // INPG_TELEMETRY_LCO_ATTRIBUTION_HH

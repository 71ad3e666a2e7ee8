/**
 * @file
 * Private L1 cache controller implementing the core side of the
 * directory-based MOESI protocol (paper Section 3.2).
 *
 * The controller services one outstanding core operation at a time
 * (the modeled cores are single threads blocking on synchronization
 * operations) and reacts to directory forwards and invalidations at any
 * time. No capacity evictions are modeled: lock and synchronization
 * lines are few and stay resident, which is the regime the paper
 * studies.
 *
 * Stable states: I, S, E, M, O. Transients are expressed through the
 * pending-transaction record (IS_D and IM_AD in protocol terms).
 */

#ifndef INPG_COH_L1_CONTROLLER_HH
#define INPG_COH_L1_CONTROLLER_HH

#include <functional>
#include <optional>

#include "coh/coh_config.hh"
#include "coh/coh_stats.hh"
#include "coh/coherence_msg.hh"
#include "common/flat_hash_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/network.hh"
#include "noc/ring_buffer.hh"
#include "sim/simulator.hh"

namespace inpg {

/** Stable MOESI states of an L1 line. */
enum class L1State {
    I,
    S,
    E,
    M,
    O,
};

/** Name of an L1 state ("I", "S", ...). */
const char *l1StateName(L1State s);

/** Atomic read-modify-write operations supported by the core. */
enum class AtomicOp {
    Swap,     ///< old = line; line = a
    Cas,      ///< old = line; if (old == a) line = b
    FetchAdd, ///< old = line; line = old + a
    FetchOr,  ///< old = line; line = old | a
    FetchAnd, ///< old = line; line = old & a
};

/** Completed-operation record for the golden-model verifier. */
struct OpRecord {
    enum class Kind { Load, Store, Atomic } kind = Kind::Load;
    AtomicOp op = AtomicOp::Swap;
    Addr addr = INVALID_ADDR;
    std::uint64_t operandA = 0;
    std::uint64_t operandB = 0;
    std::uint64_t oldValue = 0;
    std::uint64_t newValue = 0;
    CoreId core = INVALID_CORE;
    Cycle executedAt = 0;
    /** Demoted atomic: observed only, wrote nothing. */
    bool demoted = false;
};

/** Private L1 cache + coherence controller of one core. */
class L1Controller
{
  public:
    /** Callback delivering the result value of a core operation. */
    using Completion = std::function<void(std::uint64_t value)>;

    /**
     * Atomic completion: `demoted` is true when the RMW was answered
     * with a shared copy (lock held elsewhere) and therefore did NOT
     * write; `value` is the observed lock value. A demoted result with
     * value 0 means the lock was freed in flight -- retry with
     * demotable=false to force ownership.
     */
    using AtomicCompletion =
        std::function<void(std::uint64_t value, bool demoted)>;

    /** Optional sink for completed-operation records. */
    using OpLogFn = std::function<void(const OpRecord &)>;

    /**
     * @param core_id  owning core
     * @param node_id  mesh node (equal to core id on the target chip)
     * @param cfg      memory-system parameters
     * @param network  NoC endpoint access
     * @param sim      kernel (latency events)
     * @param stats    optional shared coherence statistics sink
     */
    L1Controller(CoreId core_id, NodeId node_id, const CohConfig &cfg,
                 Network &network, Simulator &sim,
                 CohStats *stats = nullptr);

    /** Issue a load; `done(value)` fires at completion. */
    void issueLoad(Addr addr, bool is_lock, Completion done);

    /** Issue a store; `done(old value)` fires at completion. */
    void issueStore(Addr addr, std::uint64_t value, bool is_lock,
                    Completion done);

    /**
     * Issue an atomic RMW; `done(old value, demoted)` fires at
     * completion. For Cas, a = expected, b = desired; for Swap/FetchAdd
     * only a is used. `demotable` marks failure-idempotent lock
     * acquires eligible for shared-copy demotion.
     */
    void issueAtomic(Addr addr, AtomicOp op, std::uint64_t a,
                     std::uint64_t b, bool is_lock, AtomicCompletion done,
                     bool demotable = false);

    /**
     * OCOR support: priority attached to the next request packet this
     * controller sends (reset to 0 after each issue).
     */
    void setNextRequestPriority(int priority) { nextPriority = priority; }

    /** Deliver a protocol message addressed to this L1. */
    void receiveMessage(const CohMsgPtr &msg, Cycle now);

    /** Stable state of a line (transients report their base state). */
    L1State lineState(Addr addr) const;

    /** Value cached for a line (valid in S/E/M/O). */
    std::uint64_t lineValue(Addr addr) const;

    /** True while a core operation is outstanding. */
    bool busy() const { return pending.has_value(); }

    /** Owner-forwards deferred behind the pending op (MSHR debug). */
    std::size_t
    deferredForwardCount() const
    {
        return deferredForwards.size();
    }

    CoreId coreId() const { return core; }
    NodeId nodeId() const { return node; }

    /** Register the golden-model op log sink. */
    void setOpLog(OpLogFn fn) { opLog = std::move(fn); }

    /** Diagnostic one-line state dump (pending op, deferred forwards). */
    std::string debugState() const;

    StatGroup stats;

  private:
    struct Line {
        L1State state = L1State::I;
        std::uint64_t value = 0;
        /** Node this L1 last surrendered the line to (FwdGetX). */
        NodeId forwardedTo = INVALID_NODE;
    };

    struct Pending {
        OpRecord::Kind kind = OpRecord::Kind::Load;
        AtomicOp op = AtomicOp::Swap;
        Addr addr = INVALID_ADDR;
        std::uint64_t operandA = 0;
        std::uint64_t operandB = 0;
        bool isLock = false;
        bool demotable = false;
        bool demoted = false;
        Completion done;
        AtomicCompletion atomicDone;

        bool exclusive = false; ///< GetX (vs GetS) transaction
        bool hasData = false;
        std::uint64_t data = 0;
        bool hasAckInfo = false;
        int ackCount = 0;
        int acksReceived = 0;
        bool invWhileFilling = false;
        Cycle issuedAt = 0;

        /** Directory serialization point of this GetX, once learned. */
        bool epochKnown = false;
        std::uint64_t myEpoch = 0;
    };

    void startOperation(Pending &&op);
    void issueAfterL1Latency(Pending &&op);
    void beginMiss(Pending &&op);
    void maybeCompleteExclusive(Cycle now);
    void executePendingOp(Cycle now);
    void processDeferredForwards(Cycle now);
    void serveForward(const CohMsgPtr &msg, Cycle now);
    void learnEpoch(std::uint64_t epoch, Cycle now);
    bool deferIncomingForward(const CohMsgPtr &msg) const;
    Addr pendingAddrForAssert() const;

    void handleInv(const CohMsgPtr &msg, Cycle now);
    void handleForward(const CohMsgPtr &msg, Cycle now);
    void handleData(const CohMsgPtr &msg, Cycle now);
    void handleDataExcl(const CohMsgPtr &msg, Cycle now);
    void handleAckCount(const CohMsgPtr &msg, Cycle now);
    void handleInvAck(const CohMsgPtr &msg, Cycle now);

    void send(const CohMsgPtr &msg, NodeId dst, Cycle now,
              int priority = 0);
    Line &line(Addr addr);
    const Line *findLine(Addr addr) const;

    CoreId core;
    NodeId node;
    CohConfig cfg;
    Network &net;
    Simulator &sim;
    CohStats *cohStats;
    OpLogFn opLog;

    /**
     * Cached hot stat handles (eager keys, taken by index at
     * construction; their addresses are stable). opsCompletedCtr doubles
     * as the watchdog's retirement progress signal.
     */
    std::uint64_t *opsCompletedCtr = nullptr;
    std::uint64_t *opsIssuedCtr = nullptr;
    std::uint64_t *msgsSentCtr = nullptr;
    std::uint64_t *lockCohCyclesCtr = nullptr;
    std::uint64_t *loadHitsCtr = nullptr;
    std::uint64_t *loadMissesCtr = nullptr;
    std::uint64_t *writeHitsCtr = nullptr;
    std::uint64_t *writeMissesCtr = nullptr;
    std::uint64_t *writeUpgradesCtr = nullptr;
    std::uint64_t *preEpochFwdServedCtr = nullptr;
    std::uint64_t *preEpochFwdServedEarlyCtr = nullptr;
    std::uint64_t *atomicsDemotedCtr = nullptr;
    std::uint64_t *fwdGetsServedCtr = nullptr;
    std::uint64_t *fwdGetxServedCtr = nullptr;
    std::uint64_t *forwardsChainedCtr = nullptr;
    std::uint64_t *invalidationsCtr = nullptr;
    std::uint64_t *invOnInvalidCtr = nullptr;
    std::uint64_t *staleInvOnOwnerCtr = nullptr;
    std::uint64_t *forwardsDeferredCtr = nullptr;
    std::uint64_t *invAcksCollectedCtr = nullptr;
    SampleStat *loadLatencySample = nullptr;
    SampleStat *writeLatencySample = nullptr;
    SampleStat *lockRmwLatencySample = nullptr;

    /** Line table (protocol code never iterates it). */
    FlatHashMap<Addr, Line> lines;
    std::optional<Pending> pending;
    RingBuffer<CohMsgPtr, 4> deferredForwards;
    int nextPriority = 0;
};

} // namespace inpg

#endif // INPG_COH_L1_CONTROLLER_HH

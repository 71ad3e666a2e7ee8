/**
 * @file
 * Directory controller: one shared-L2 bank with its coherence directory
 * (the "home node" of the paper).
 *
 * The directory is the serialization point of the protocol: it services
 * its input queue one message at a time, occupying the bank for the L2
 * access latency per request. This explicit occupancy is what produces
 * the home-node queueing delay ("long tail" of Figure 10b) that iNPG's
 * distributed early invalidation removes.
 */

#ifndef INPG_COH_DIRECTORY_HH
#define INPG_COH_DIRECTORY_HH

#include <set>

#include "coh/coh_config.hh"
#include "coh/coh_stats.hh"
#include "coh/coherence_msg.hh"
#include "coh/memory_controller.hh"
#include "common/flat_hash_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/network.hh"
#include "noc/ring_buffer.hh"
#include "sim/simulator.hh"
#include "sim/ticking.hh"
#include "telemetry/json.hh"

namespace inpg {

/** Home-node directory + L2 bank controller for one tile. */
class Directory : public Ticking
{
  public:
    /** Directory knowledge about one line. */
    struct DirEntry {
        std::uint64_t value = 0;
        /** Exclusive/owned holder; INVALID_NODE when none. */
        NodeId owner = INVALID_NODE;
        /** Cores holding shared copies. */
        std::set<CoreId> sharers;
        /**
         * Early-invalidation trim guard: core c is in the set while
         * exactly one big-router early-InvAck from c is expected and
         * c has not re-registered at the home since its
         * early-invalidated GetX was served. TrimSharer only applies
         * while the guard holds -- an EI ack overtaken by a newer
         * GetS/demote registration of the same core must not erase
         * the fresh sharer entry. The model checker (tools/protocol_mc)
         * found that reordering as an SWMR violation; see
         * docs/PROTOCOL.md.
         */
        std::set<CoreId> eiPending;
        /** Line never fetched from memory yet. */
        bool cold = true;
    };

    Directory(NodeId node_id, const CohConfig &cfg, Network &network,
              Simulator &sim, MemoryController *memory,
              CohStats *coh_stats = nullptr);

    /** Enqueue a protocol message for serialized processing. */
    void receiveMessage(const CohMsgPtr &msg, Cycle now);

    void tick(Cycle now) override;

    std::string tickName() const override;

    HostPhase hostPhase() const override { return HostPhase::Dir; }

    NodeId nodeId() const { return node; }

    /** Directory entry for a line; nullptr if never touched. */
    const DirEntry *entry(Addr addr) const;

    /** Pre-set a line's initial memory value (before first access). */
    void initValue(Addr addr, std::uint64_t value);

    /** True when no message is queued or being processed. */
    bool idle() const { return queue.empty() && !blockedOnFetch; }

    /** Messages waiting for the bank (occupancy probe). */
    std::size_t queueDepth() const { return queue.size(); }

    /**
     * Bank/queue state for the hang report: occupancy, fetch block,
     * and the kinds of the first queued messages.
     */
    JsonValue debugJson(Cycle now) const;

    StatGroup stats;

  private:
    void process(const CohMsgPtr &msg, Cycle now);

    // One method per declarative table action (DirAction); `process`
    // classifies the entry onto the directory transition table and
    // dispatches here.
    void grantExclusive(const CohMsgPtr &msg, DirEntry &e, Cycle now);
    void answerShared(const CohMsgPtr &msg, DirEntry &e, Cycle now);
    void forwardGetS(const CohMsgPtr &msg, DirEntry &e, Cycle now);
    void invalidateAndGrant(const CohMsgPtr &msg, DirEntry &e, Cycle now);
    void forwardGetX(const CohMsgPtr &msg, DirEntry &e, Cycle now);
    void ownerUpgrade(const CohMsgPtr &msg, DirEntry &e, Cycle now);
    void demoteViaOwner(const CohMsgPtr &msg, DirEntry &e, Cycle now);
    void demoteAtHome(const CohMsgPtr &msg, DirEntry &e, Cycle now);
    void trimSharer(const CohMsgPtr &msg, DirEntry &e, Cycle now);

    void sendInvalidations(const std::set<CoreId> &targets, Addr addr,
                           NodeId collector, bool is_lock,
                           std::uint64_t epoch, Cycle now);
    void send(const CohMsgPtr &msg, NodeId dst, Cycle now);

    NodeId node;
    CohConfig cfg;
    Network &net;
    Simulator &sim;
    MemoryController *mem;
    CohStats *cohStats;

    /** Find-or-create the entry for a line-aligned address. */
    DirEntry &entryFor(Addr line);
    /** Find the entry for a line-aligned address; nullptr if absent. */
    const DirEntry *findEntry(Addr line) const;

    /** Line table (protocol code never iterates it). */
    FlatHashMap<Addr, DirEntry> entries;
    RingBuffer<CohMsgPtr, 8> queue;

    /** Cached hot stat handles (eager keys, taken by index). */
    std::uint64_t *msgsReceivedCtr = nullptr;
    std::uint64_t *msgsSentCtr = nullptr;
    SampleStat *queueDepthSample = nullptr;

    Cycle busyUntil = 0;
    bool blockedOnFetch = false;
    std::uint64_t epochCounter = 0;
    /** Lifetime sends, for the dropDirResponseNth hang seeder. */
    std::uint64_t sendCounter = 0;
};

} // namespace inpg

#endif // INPG_COH_DIRECTORY_HH

/**
 * @file
 * Two-stage pipelined speculative VC router (paper Section 4.1 baseline,
 * after Peh & Dally [29]).
 *
 * Stage 1 performs route computation, VC allocation and switch
 * allocation in parallel (speculatively); stage 2 is switch traversal.
 * In this model a flit buffered at cycle t becomes eligible for stage 1
 * at t+1; a switch-allocation winner at cycle g is delivered to the next
 * hop's buffers at g + 1 (ST) + linkLatency, giving the paper's
 * 2-cycle router + 1-cycle link hop time.
 *
 * The class exposes protected hooks and an optional internal "generator"
 * input port so that BigRouter (src/inpg) can implement in-network
 * packet generation without duplicating the pipeline.
 */

#ifndef INPG_NOC_ROUTER_HH
#define INPG_NOC_ROUTER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "noc/arbiter.hh"
#include "noc/link.hh"
#include "noc/noc_config.hh"
#include "noc/output_unit.hh"
#include "noc/ring_buffer.hh"
#include "noc/routing.hh"
#include "noc/vc_state.hh"
#include "sim/ticking.hh"
#include "telemetry/json.hh"

namespace inpg {

class Telemetry;

/** What the Network hands every router it builds. */
struct RouterEnv {
    /** Routing algorithm (not owned; outlives the router). */
    const RoutingAlgorithm *routing = nullptr;
    /** Event stream; null when telemetry is off. */
    Telemetry *telemetry = nullptr;
    /**
     * Block of vcStorageBytes() for the router's input VCs, carved
     * from the Network's slab (see VcStateArray's constructor).
     */
    std::byte *vcStorage = nullptr;
};

/** Baseline ("normal") NoC router. */
class Router : public Ticking
{
  public:
    /**
     * @param node_id mesh node this router serves
     * @param cfg     shared NoC configuration (copied)
     * @param env     routing, telemetry and VC storage from the Network
     */
    Router(NodeId node_id, const NocConfig &cfg, const RouterEnv &env);

    /** VC storage bytes a router built from `cfg` needs (RouterEnv). */
    static std::size_t vcStorageBytes(const NocConfig &cfg);

    ~Router() override = default;

    /**
     * Attach the channel whose flit line feeds this router on port `d`
     * (credits for those flits are returned on the same channel).
     */
    void connectInput(Direction d, Channel *channel);

    /** Attach the channel this router drives on port `d`. */
    void connectOutput(Direction d, Channel *channel);

    void tick(Cycle now) override;

    std::string tickName() const override;

    HostPhase hostPhase() const override { return HostPhase::Router; }

    NodeId nodeId() const { return id; }

    /** True for BigRouter instances (iNPG deployment queries). */
    virtual bool isBigRouter() const { return false; }

    /** Router-local statistics. */
    StatGroup stats;

    /** Sum of flits buffered across all input units (invariant checks). */
    std::size_t bufferedFlits() const;

    /**
     * Structured dump of the router's pipeline state for the hang
     * report: every occupied/claimed input VC (state, occupancy,
     * routed output, head age) and per-output credit levels.
     */
    virtual JsonValue debugJson(Cycle now) const;

  protected:
    /**
     * Called when a head flit is buffered, before route computation.
     * The hook may rewrite the packet's destination (iNPG retargets
     * in-flight messages); routing uses the post-hook destination.
     */
    virtual void
    onHeadFlitArrived(const FlitPtr &flit, int inport, Cycle now)
    {
        (void)flit;
        (void)inport;
        (void)now;
    }

    /**
     * Called when a head flit wins switch allocation (entering ST).
     * iNPG uses this to observe first-GetX traversals and set barriers.
     */
    virtual void
    onHeadFlitGranted(const FlitPtr &flit, int inport, Direction outport,
                      Cycle now)
    {
        (void)flit;
        (void)inport;
        (void)outport;
        (void)now;
    }

    /** Per-cycle hook before allocation phases (BigRouter injection). */
    virtual void
    generatorPhase(Cycle now)
    {
        (void)now;
    }

    /**
     * True when generatorPhase() has no time-driven work pending, so the
     * router may leave the active set (BigRouter overrides: barrier TTL
     * expiry must observe every cycle while barriers exist).
     */
    virtual bool generatorIdle() const { return true; }

    /**
     * Enable the internal generator input port (BigRouter constructor).
     * Returns its inport index.
     */
    int addGeneratorPort();

    /**
     * Queue a locally generated packet for injection through the
     * generator port; it then competes in VA/SA like any other traffic.
     */
    void injectGenerated(const PacketPtr &pkt, Cycle now);

    const NocConfig &config() const { return cfg; }

    /** Number of input ports including the generator port if present. */
    int numInPorts() const { return nInPorts; }

    /** Telemetry event stream, or null when off (BigRouter sites). */
    Telemetry *telemetry() const { return telem; }

  private:
    void drainCredits(Cycle now);
    void drainFlits(Cycle now);
    bool canSleep() const;
    void allocateVcs(Cycle now);
    void allocateSwitch(Cycle now);
    /** One VA attempt for input VC (port, v): route compute + VA. */
    void tryAllocateVc(int port, VcId v, Cycle now);

    /** Output-VC search range for a routed VC's vnet + dateline class. */
    std::pair<VcId, VcId>
    outVcRange(VnetId vnet, std::uint8_t out_class) const
    {
        if (out_class == VC_CLASS_ANY)
            return {cfg.vnetVcLo(vnet), cfg.vnetVcHi(vnet)};
        return {cfg.classVcLo(vnet, out_class),
                cfg.classVcHi(vnet, out_class)};
    }

    /** Bitmask of the VC ids belonging to a virtual network. */
    std::uint32_t
    vnetVcMask(VnetId vn) const
    {
        return ((1u << static_cast<std::uint32_t>(cfg.vcsPerVnet)) - 1)
               << (static_cast<std::uint32_t>(vn) *
                   static_cast<std::uint32_t>(cfg.vcsPerVnet));
    }
    /** Switch traversal of SA winner (inport, vc) -> outport. */
    void switchTraverse(int inport, VcId v, int outport, Cycle now);
    void drainGeneratorQueue(Cycle now);

    NodeId id;
    NocConfig cfg;

    /**
     * Compact route row (output port + dateline VC class), width +
     * height entries filled by the topology's routing algorithm at
     * construction; a head flit's entry is
     * routeRow[RoutingAlgorithm::rowIndex(routeKeys[dst], routeFirst)].
     * iNPG destination rewrites happen in onHeadFlitArrived, before
     * route computation, so a static row stays correct.
     */
    std::vector<RouteEntry> routeRow;
    /** The routing algorithm's per-destination keys (shared). */
    const RouteKey *routeKeys = nullptr;
    /** This router's own first-routed coordinate. */
    std::uint16_t routeFirst = 0;

    /**
     * Input-VC state of every port, sized at construction for the
     * generator port too (NUM_PORTS + 1).
     */
    VcStateArray inVcs;

    std::array<OutputUnit, NUM_PORTS> outputs;

    /** Channels feeding each input port (credits go back on these). */
    std::array<Channel *, NUM_PORTS + 1> inChannels{};

    /**
     * Compact connected-port lists for the per-cycle drain loops
     * (border routers leave 1-2 ports unconnected; the generator port
     * has no channel at all). Ascending port order preserves the full
     * scan's iteration order. Rebuilt by rebuildConnectedLists(); the
     * first numFlitSources / numCreditSources entries are live.
     */
    struct ConnectedIn {
        Channel *channel;
        int port;
    };
    struct ConnectedOut {
        Channel *channel;
        OutputUnit *unit;
    };
    std::array<ConnectedIn, NUM_PORTS + 1> flitSources{};
    std::array<ConnectedOut, NUM_PORTS> creditSources{};
    std::size_t numFlitSources = 0;
    std::size_t numCreditSources = 0;

    void rebuildConnectedLists();

    /** Input ports in use, including the generator port if present. */
    int nInPorts = 0;

    /** Generator port index, or -1 when absent. */
    int genPort = -1;

    /** Generated packets waiting for a free generator-port VC. */
    RingBuffer<PacketPtr, 8> genQueue;

    /** VA scan pointer (rotates across input ports for fairness). */
    std::size_t vaPointer = 0;

    /** SA stage arbitration state. */
    std::array<PriorityArbiter, NUM_PORTS + 1> saInportArb;
    std::array<PriorityArbiter, NUM_PORTS> saOutportArb;

    /** Reused per-cycle scratch (avoids per-tick allocation). */
    std::array<PriorityArbiter::Request, OutputUnit::MAX_VCS>
        saVcReqScratch{};
    std::array<PriorityArbiter::Request, NUM_PORTS + 1> saPortReqScratch{};
    std::array<VcId, NUM_PORTS + 1> inportWinnerScratch{};

    /** Per-inport / per-outport vnet rotation for hierarchical SA:
     *  round-robin across virtual networks, priority within one (so
     *  OCOR reorders competing requests without starving responses). */
    std::array<std::size_t, NUM_PORTS + 1> saInportVnetPtr{};
    std::array<std::size_t, NUM_PORTS> saOutportVnetPtr{};

    /** Telemetry event stream; null when telemetry is off. */
    Telemetry *telem;

    /** Cached hot counters (eager keys, taken by index). */
    std::uint64_t *flitsReceivedCtr = nullptr;
    std::uint64_t *flitsSentCtr = nullptr;
    std::uint64_t *packetsRoutedCtr = nullptr;
    std::uint64_t *vaGrantsCtr = nullptr;
};

} // namespace inpg

#endif // INPG_NOC_ROUTER_HH

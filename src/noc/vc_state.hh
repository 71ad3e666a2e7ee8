/**
 * @file
 * Structure-of-arrays VC state: the router's input-VC store.
 *
 * VC allocation and switch allocation touch one or two fields of many
 * VCs per cycle, so VcStateArray flattens the entire router -- all
 * ports, all VCs -- into parallel arrays indexed by
 * slot = port * numVcs + vc:
 *
 *   state[]   1 byte per slot (Idle / WaitVc / Active)
 *   outPort[] routed output port (valid in WaitVc+)
 *   outVc[]   allocated downstream VC (valid in Active)
 *   headAt[]  cycle the resident head flit was buffered
 *
 * Flit storage is one pooled ring-buffer arena: capPerVc (vcDepth
 * rounded up to a power of two) FlitPtr slots per VC, with per-slot
 * head/count counters. Buffering a flit is an index store; popping is
 * an index move -- no deque nodes, no per-VC allocation, ever. The
 * arena and every per-slot array share one block of storageBytes()
 * that the owner provides: the Network carves every router's block
 * out of one slab, so building a fabric makes one allocation for all
 * its VC state instead of one per router.
 *
 * Candidate tracking is two 32-bit words per port (bit == VC index):
 * VA candidates (Idle VCs holding a head flit, i.e. route-compute
 * work, and WaitVc VCs) and SA candidates (Active VCs holding a flit).
 * Two summary words (bit == port) record which ports have any VA or SA
 * candidate, so a pipeline stage tests one word to know whether the
 * entire router has work.
 *
 * Capacity: at most 32 VCs per port (one mask word) and 32 ports (one
 * summary word); SystemConfig::finalize() rejects wider VC geometries.
 */

#ifndef INPG_NOC_VC_STATE_HH
#define INPG_NOC_VC_STATE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/flit.hh"
#include "noc/routing.hh"

namespace inpg {

/** Per-router SoA store of every input VC's state, buffer and masks. */
class VcStateArray
{
  public:
    /** VC FSM states. */
    enum : std::uint8_t {
        Idle = 0,   ///< no packet resident
        WaitVc = 1, ///< head buffered & routed; waiting for an output VC
        Active = 2, ///< output VC allocated; flits may traverse
    };

    /**
     * @param storage max_align_t-aligned block of at least
     *                storageBytes(num_ports, num_vcs, vc_depth) bytes,
     *                any contents; not owned, must outlive the array.
     */
    VcStateArray(int num_ports, int num_vcs, int vc_depth,
                 std::byte *storage);
    ~VcStateArray();

    /**
     * Bytes of storage one array of this shape needs, rounded up to
     * alignof(std::max_align_t) so blocks can sit back to back.
     */
    static std::size_t storageBytes(int num_ports, int num_vcs,
                                    int vc_depth);

    VcStateArray(const VcStateArray &) = delete;
    VcStateArray &operator=(const VcStateArray &) = delete;

    int numPorts() const { return ports; }
    int numVcs() const { return vcsPerPort; }
    int vcDepth() const { return depth; }

    std::size_t
    slot(int port, VcId vc) const
    {
        INPG_ASSERT(port >= 0 && port < ports && vc >= 0 &&
                        vc < vcsPerPort,
                    "bad (port %d, vc %d)", port, vc);
        return static_cast<std::size_t>(port) *
                   static_cast<std::size_t>(vcsPerPort) +
               static_cast<std::size_t>(vc);
    }

    // ----- flit ring buffer, pooled across all slots -----

    bool hasFlit(std::size_t s) const { return count[s] != 0; }
    std::size_t vcOccupancy(std::size_t s) const { return count[s]; }

    const FlitPtr &
    front(std::size_t s) const
    {
        INPG_ASSERT(count[s] > 0, "front() on empty VC slot %zu", s);
        return store[s * capPerVc + head[s]];
    }

    /** Buffer an arriving flit into its VC (flit->vc selects the VC). */
    void
    receiveFlit(int port, FlitPtr flit, Cycle now)
    {
        INPG_ASSERT(flit->vc >= 0 && flit->vc < vcsPerPort,
                    "flit arrived on bad VC %d", flit->vc);
        const VcId flit_vc = flit->vc;
        const std::size_t s = slot(port, flit_vc);
        INPG_ASSERT(count[s] < static_cast<std::uint32_t>(depth),
                    "VC %d overflow (credit protocol violated)", flit->vc);
        // Back-to-back packets may share a VC buffer (the upstream
        // output VC is released when the tail is sent); only the front
        // packet drives the VC state machine. A flit landing in an
        // idle, empty VC must start a packet.
        if (state[s] == Idle && count[s] == 0) {
            INPG_ASSERT(isHeadFlit(flit->type),
                        "body flit into idle empty VC %d", flit->vc);
        }
        flit->bufferedAt = now;
        const std::size_t idx =
            s * capPerVc + ((head[s] + count[s]) & (capPerVc - 1));
        store[idx] = std::move(flit);
        ++count[s];
        ++occupancy;
        refreshMask(port, flit_vc);
    }

    /** Pop the head flit of (port, vc) (switch traversal). */
    FlitPtr
    popFlit(int port, VcId vc)
    {
        const std::size_t s = slot(port, vc);
        INPG_ASSERT(count[s] > 0, "pop from empty VC slot %zu", s);
        FlitPtr flit = std::move(store[s * capPerVc + head[s]]);
        head[s] =
            (head[s] + 1) & static_cast<std::uint32_t>(capPerVc - 1);
        --count[s];
        INPG_ASSERT(occupancy > 0, "router occupancy underflow");
        --occupancy;
        refreshMask(port, vc);
        return flit;
    }

    // ----- per-slot FSM state (public: the router drives the stages) --
    // Arrays of numPorts() * numVcs() entries inside the shared block.

    std::uint8_t *state = nullptr;
    Direction *outPort = nullptr;
    std::uint8_t *outClass = nullptr; ///< dateline class (WaitVc+)
    VcId *outVc = nullptr;
    Cycle *headAt = nullptr;

    // ----- candidate masks -----

    /** Ports with a VA candidate (route compute or output-VC wait). */
    std::uint32_t vaPorts() const { return vaPortMask; }

    /** Ports with an SA candidate (Active VC holding a flit). */
    std::uint32_t saPorts() const { return saPortMask; }

    /** Per-port VA candidates (bit == VC index within the port). */
    std::uint32_t
    vaCandidates(int port) const
    {
        return vaWords[static_cast<std::size_t>(port)];
    }

    /** Per-port SA-I candidates (bit == VC index). */
    std::uint32_t
    saCandidates(int port) const
    {
        return saWords[static_cast<std::size_t>(port)];
    }

    /** Flits buffered across the whole router. */
    std::size_t totalOccupancy() const { return occupancy; }

    /** Flits buffered on one port (debug / hang reports). */
    std::size_t portOccupancy(int port) const;

    /**
     * Re-derive the candidate bits of (port, vc) from its state and
     * buffer occupancy. Must run after every buffer push/pop and every
     * state transition that can change those bits; receiveFlit/popFlit
     * do so themselves, the router calls it after writing state[]
     * directly.
     */
    void
    refreshMask(int port, VcId vc)
    {
        // Callers hold a (port, vc) that slot() has already checked.
        const auto p = static_cast<std::size_t>(port);
        const std::size_t s = p * static_cast<std::size_t>(vcsPerPort) +
                              static_cast<std::size_t>(vc);
        const std::uint8_t st = state[s];
        INPG_ASSERT(st <= Active, "corrupt VC state %u at slot %zu", st, s);
        const bool has_flit = count[s] != 0;
        const std::uint32_t bit = 1u << static_cast<std::uint32_t>(vc);
        const std::uint32_t va =
            (vaWords[p] & ~bit) |
            (st == WaitVc || (st == Idle && has_flit) ? bit : 0u);
        const std::uint32_t sa =
            (saWords[p] & ~bit) | (st == Active && has_flit ? bit : 0u);
        vaWords[p] = va;
        saWords[p] = sa;
        const std::uint32_t pbit = 1u << static_cast<std::uint32_t>(port);
        vaPortMask = (vaPortMask & ~pbit) | (va ? pbit : 0u);
        saPortMask = (saPortMask & ~pbit) | (sa ? pbit : 0u);
    }

  private:
    int ports;
    int vcsPerPort;
    int depth;

    /** Ring capacity per VC: vcDepth rounded up to a power of two. */
    std::size_t capPerVc;

    /**
     * Per-port candidate words (bit == VC index), sized for the 32
     * ports one summary word can name. Inline arrays, not vectors, so
     * the per-flit refresh and the per-cycle probes skip a pointer load.
     */
    std::array<std::uint32_t, 32> vaWords{}; ///< Idle w/ head flit, WaitVc
    std::array<std::uint32_t, 32> saWords{}; ///< Active VCs holding a flit

    /** Summary words (bit == port) over the per-port words. */
    std::uint32_t vaPortMask = 0;
    std::uint32_t saPortMask = 0;

    /** Flit slots in the arena (ports x VCs x capPerVc). */
    std::size_t arenaSize;

    /** Pooled flit arena: slot s owns store[s*capPerVc .. +capPerVc). */
    FlitPtr *store = nullptr;
    std::uint32_t *head = nullptr;
    std::uint32_t *count = nullptr;

    std::size_t occupancy = 0;
};

} // namespace inpg

#endif // INPG_NOC_VC_STATE_HH

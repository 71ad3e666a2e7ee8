#include "noc/vc_state.hh"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace inpg {

namespace {

/** Where every array of one VcStateArray block sits. */
struct Layout {
    std::size_t slots, capPerVc, arena;
    std::size_t headAt, store, outVc, outPort, head, count, state, outClass;
    /** Block size, rounded up so blocks can sit back to back. */
    std::size_t bytes = 0;

    Layout(int num_ports, int num_vcs, int vc_depth)
        : slots(static_cast<std::size_t>(num_ports) *
                static_cast<std::size_t>(num_vcs)),
          capPerVc(std::bit_ceil(static_cast<std::size_t>(vc_depth))),
          arena(slots * capPerVc)
    {
        // Each field aligned for its type; the block's own alignment
        // (max_align_t) covers the widest.
        static_assert(alignof(Cycle) <= alignof(std::max_align_t) &&
                      alignof(FlitPtr) <= alignof(std::max_align_t));
        headAt = place(alignof(Cycle), slots * sizeof(Cycle));
        store = place(alignof(FlitPtr), arena * sizeof(FlitPtr));
        outVc = place(alignof(VcId), slots * sizeof(VcId));
        outPort = place(alignof(Direction), slots * sizeof(Direction));
        head = place(alignof(std::uint32_t), slots * sizeof(std::uint32_t));
        count = place(alignof(std::uint32_t), slots * sizeof(std::uint32_t));
        state = place(1, slots);
        outClass = place(1, slots);
        place(alignof(std::max_align_t), 0);
    }

    std::size_t
    place(std::size_t align, std::size_t size)
    {
        bytes = (bytes + align - 1) / align * align;
        const std::size_t at = bytes;
        bytes += size;
        return at;
    }
};

} // namespace

std::size_t
VcStateArray::storageBytes(int num_ports, int num_vcs, int vc_depth)
{
    return Layout(num_ports, num_vcs, vc_depth).bytes;
}

VcStateArray::VcStateArray(int num_ports, int num_vcs, int vc_depth,
                           std::byte *storage)
    : ports(num_ports), vcsPerPort(num_vcs), depth(vc_depth)
{
    INPG_ASSERT(num_ports > 0 && num_vcs > 0 && vc_depth > 0,
                "bad VC array shape: %d ports x %d VCs x depth %d",
                num_ports, num_vcs, vc_depth);
    INPG_ASSERT(num_ports <= 32 && num_vcs <= 32,
                "%d ports x %d VCs exceeds the 32-bit mask words",
                num_ports, num_vcs);
    INPG_ASSERT(storage != nullptr, "VC array needs storage");
    INPG_ASSERT(reinterpret_cast<std::uintptr_t>(storage) %
                        alignof(std::max_align_t) == 0,
                "VC storage is not max_align_t-aligned");
    const Layout l(num_ports, num_vcs, vc_depth);
    const std::size_t n = l.slots;
    capPerVc = l.capPerVc;
    arenaSize = l.arena;

    // Every array is written here, so the storage may hold anything.
    headAt = reinterpret_cast<Cycle *>(storage + l.headAt);
    std::fill_n(headAt, n, Cycle{0});
    store = reinterpret_cast<FlitPtr *>(storage + l.store);
    std::uninitialized_value_construct_n(store, arenaSize);
    outVc = reinterpret_cast<VcId *>(storage + l.outVc);
    std::fill_n(outVc, n, INVALID_VC);
    outPort = reinterpret_cast<Direction *>(storage + l.outPort);
    std::fill_n(outPort, n, Direction::Local);
    head = reinterpret_cast<std::uint32_t *>(storage + l.head);
    std::fill_n(head, n, 0u);
    count = reinterpret_cast<std::uint32_t *>(storage + l.count);
    std::fill_n(count, n, 0u);
    state = reinterpret_cast<std::uint8_t *>(storage + l.state);
    std::fill_n(state, n, Idle);
    outClass = reinterpret_cast<std::uint8_t *>(storage + l.outClass);
    std::fill_n(outClass, n, VC_CLASS_ANY);
}

VcStateArray::~VcStateArray()
{
    std::destroy_n(store, arenaSize);
}

std::size_t
VcStateArray::portOccupancy(int port) const
{
    std::size_t total = 0;
    for (VcId vc = 0; vc < vcsPerPort; ++vc)
        total += count[slot(port, vc)];
    return total;
}

} // namespace inpg

#include "noc/vc_state.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

namespace inpg {

VcStateArray::VcStateArray(int num_ports, int num_vcs, int vc_depth)
    : ports(num_ports), vcsPerPort(num_vcs), depth(vc_depth)
{
    INPG_ASSERT(num_ports > 0 && num_vcs > 0 && vc_depth > 0,
                "bad VC array shape: %d ports x %d VCs x depth %d",
                num_ports, num_vcs, vc_depth);
    INPG_ASSERT(num_ports <= 32 && num_vcs <= 32,
                "%d ports x %d VCs exceeds the 32-bit mask words",
                num_ports, num_vcs);
    const std::size_t n = static_cast<std::size_t>(num_ports) *
                          static_cast<std::size_t>(num_vcs);
    capPerVc = std::bit_ceil(static_cast<std::size_t>(vc_depth));
    arenaSize = n * capPerVc;

    // Lay every array out in one zeroed block (each field aligned for
    // its type; operator new[] alignment covers the widest).
    std::size_t bytes = 0;
    auto place = [&bytes](std::size_t align, std::size_t size) {
        bytes = (bytes + align - 1) / align * align;
        const std::size_t at = bytes;
        bytes += size;
        return at;
    };
    const std::size_t headAtOff = place(alignof(Cycle), n * sizeof(Cycle));
    const std::size_t storeOff =
        place(alignof(FlitPtr), arenaSize * sizeof(FlitPtr));
    const std::size_t outVcOff = place(alignof(VcId), n * sizeof(VcId));
    const std::size_t outPortOff =
        place(alignof(Direction), n * sizeof(Direction));
    const std::size_t headOff =
        place(alignof(std::uint32_t), n * sizeof(std::uint32_t));
    const std::size_t countOff =
        place(alignof(std::uint32_t), n * sizeof(std::uint32_t));
    const std::size_t stateOff = place(1, n);
    const std::size_t outClassOff = place(1, n);
    static_assert(alignof(Cycle) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
                  alignof(FlitPtr) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    block = std::make_unique<std::byte[]>(bytes);
    std::byte *base = block.get();

    headAt = reinterpret_cast<Cycle *>(base + headAtOff);
    store = reinterpret_cast<FlitPtr *>(base + storeOff);
    std::uninitialized_value_construct_n(store, arenaSize);
    outVc = reinterpret_cast<VcId *>(base + outVcOff);
    std::fill_n(outVc, n, INVALID_VC);
    outPort = reinterpret_cast<Direction *>(base + outPortOff);
    std::fill_n(outPort, n, Direction::Local);
    head = reinterpret_cast<std::uint32_t *>(base + headOff);
    count = reinterpret_cast<std::uint32_t *>(base + countOff);
    state = reinterpret_cast<std::uint8_t *>(base + stateOff);
    std::fill_n(state, n, Idle);
    outClass = reinterpret_cast<std::uint8_t *>(base + outClassOff);
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

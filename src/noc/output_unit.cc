#include "noc/output_unit.hh"

#include <algorithm>

#include "common/logging.hh"

namespace inpg {

OutputUnit::OutputUnit(int num_vcs, int vc_depth)
    : vcs(num_vcs), depth(vc_depth)
{
    INPG_ASSERT(num_vcs > 0 && vc_depth > 0,
                "bad output unit shape: %d VCs x %d credits", num_vcs,
                vc_depth);
    INPG_ASSERT(num_vcs <= MAX_VCS,
                "busy mask holds at most %d VCs, got %d", MAX_VCS,
                num_vcs);
    std::fill_n(creditArr.begin(), num_vcs, vc_depth);
}

void
OutputUnit::allocateVc(VcId vc)
{
    checkVc(vc);
    INPG_ASSERT(!(busyMask & bit(vc)), "double allocation of output VC %d",
                vc);
    busyMask |= bit(vc);
}

void
OutputUnit::freeVc(VcId vc)
{
    checkVc(vc);
    INPG_ASSERT(busyMask & bit(vc), "freeing a free output VC %d", vc);
    busyMask &= ~bit(vc);
}

void
OutputUnit::decrementCredit(VcId vc)
{
    checkVc(vc);
    int &c = creditArr[static_cast<std::size_t>(vc)];
    INPG_ASSERT(c > 0, "credit underflow on VC %d", vc);
    --c;
}

void
OutputUnit::receiveCredit(const Credit &credit)
{
    checkVc(credit.vc);
    int &c = creditArr[static_cast<std::size_t>(credit.vc)];
    ++c;
    INPG_ASSERT(c <= depth, "credit overflow on VC %d", credit.vc);
}

VcId
OutputUnit::findFreeVcInRange(VcId lo, VcId hi)
{
    INPG_ASSERT(lo >= 0 && hi < numVcs() && lo <= hi,
                "bad VC range [%d, %d]", lo, hi);
    const VcId span = hi - lo + 1;
    // Whole-range fast reject: every VC in [lo, hi] busy.
    const std::uint32_t range_mask =
        ((span >= 32 ? 0u : (1u << span)) - 1u)
        << static_cast<std::uint32_t>(lo);
    if ((busyMask & range_mask) == range_mask)
        return INVALID_VC;
    // Round-robin scan from the pointer; same pointer evolution as the
    // original per-VC loop (pointer moves only on a grant).
    for (VcId i = 0; i < span; ++i) {
        VcId vc = lo + (scanPointer + i) % span;
        if (isVcFree(vc)) {
            scanPointer = (vc - lo + 1) % span;
            return vc;
        }
    }
    return INVALID_VC;
}

} // namespace inpg

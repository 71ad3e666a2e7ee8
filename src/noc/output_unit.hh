/**
 * @file
 * Output unit of a router port: downstream VC bookkeeping (credit counts
 * and VC allocation state) plus the outgoing channel reference.
 */

#ifndef INPG_NOC_OUTPUT_UNIT_HH
#define INPG_NOC_OUTPUT_UNIT_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/credit.hh"
#include "noc/link.hh"

namespace inpg {

/**
 * Tracks, for each VC of the downstream input port, whether it is bound
 * to an in-flight packet and how many buffer slots remain.
 *
 * Storage is structure-of-arrays: a packed busy bitmask plus a flat
 * credit array, probed per candidate VC in the VA and SA stages every
 * cycle. The mask makes isVcFree() a single bit test and lets the
 * free-VC scan skip an entirely-busy vnet range in one compare.
 */
class OutputUnit
{
  public:
    /**
     * @param num_vcs  VCs on the downstream input port
     * @param vc_depth downstream buffer depth (initial credits per VC)
     */
    OutputUnit(int num_vcs, int vc_depth);

    /** Attach the physical channel this port drives (not owned). */
    void connect(Channel *out_channel) { channel = out_channel; }

    Channel *outChannel() const { return channel; }

    /**
     * True if the VC is unbound and can be granted to a new packet.
     * Inline: probed per candidate VC in the VA stage every cycle.
     */
    bool
    isVcFree(VcId vc) const
    {
        checkVc(vc);
        return !(busyMask & bit(vc));
    }

    /** Bind a VC to a packet (VC allocation). */
    void allocateVc(VcId vc);

    /** Release a VC binding (tail flit traversed the switch). */
    void freeVc(VcId vc);

    /** Credits remaining on a VC. Inline: probed per SA candidate. */
    int
    credits(VcId vc) const
    {
        checkVc(vc);
        return creditArr[static_cast<std::size_t>(vc)];
    }

    /** Consume one credit (a flit was sent on this VC). */
    void decrementCredit(VcId vc);

    /** Process a returning credit from downstream. */
    void receiveCredit(const Credit &credit);

    /**
     * Find a free VC within [lo, hi] starting the scan after the last
     * grant (round-robin); INVALID_VC if none.
     */
    VcId findFreeVcInRange(VcId lo, VcId hi);

    int numVcs() const { return vcs; }

    /** VC bound of the busy mask (and of the inline credit array). */
    static constexpr int MAX_VCS = 32;

  private:
    /** Busy VCs as a packed mask (bit == VC index). */
    std::uint32_t busyMask = 0;

    /** Credits remaining per VC (inline, first `vcs` entries used). */
    std::array<int, MAX_VCS> creditArr{};

    Channel *channel = nullptr;
    int vcs;
    int depth;
    VcId scanPointer = 0;

    static std::uint32_t
    bit(VcId vc)
    {
        return 1u << static_cast<std::uint32_t>(vc);
    }

    void
    checkVc(VcId vc) const
    {
        INPG_ASSERT(vc >= 0 && vc < numVcs(), "VC id %d out of range", vc);
    }
};

} // namespace inpg

#endif // INPG_NOC_OUTPUT_UNIT_HH

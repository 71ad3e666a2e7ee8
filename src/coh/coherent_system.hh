/**
 * @file
 * CoherentSystem: wires one L1 controller, one directory (shared L2
 * bank) and the NI demux on every tile of a mesh, plus the memory
 * controllers — the complete cache-coherent many-core substrate the
 * lock primitives run on.
 */

#ifndef INPG_COH_COHERENT_SYSTEM_HH
#define INPG_COH_COHERENT_SYSTEM_HH

#include <memory>
#include <vector>

#include "coh/coh_config.hh"
#include "coh/coh_stats.hh"
#include "coh/directory.hh"
#include "coh/l1_controller.hh"
#include "coh/memory_controller.hh"
#include "noc/network.hh"
#include "sim/simulator.hh"

namespace inpg {

/** A full cache-coherent mesh: NoC + L1s + directories + MCs. */
class CoherentSystem
{
  public:
    /**
     * @param noc_cfg NoC parameters (mesh size, VCs, policy)
     * @param coh_cfg memory-system parameters
     * @param sim     kernel
     * @param factory optional router factory (iNPG big routers)
     */
    CoherentSystem(const NocConfig &noc_cfg, const CohConfig &coh_cfg,
                   Simulator &sim, RouterFactory factory = nullptr);

    Network &network() { return *net; }
    L1Controller &l1(CoreId core);
    Directory &directory(NodeId node);
    MemoryController &memoryController(int idx);
    CohStats &cohStats() { return *stats; }
    const CohConfig &cohConfig() const { return cohCfg; }

    int numCores() const { return static_cast<int>(l1s.size()); }
    int numMemoryControllers() const
    {
        return static_cast<int>(mcs.size());
    }

    /** Directory of the home node for an address. */
    Directory &homeOf(Addr addr);

    /**
     * Check the single-writer/multiple-reader invariant across all L1s.
     * @return empty string if it holds, else a description.
     */
    std::string checkSwmr(Addr addr) const;

    /** Attach one op-log sink to every L1. */
    void setOpLog(const L1Controller::OpLogFn &fn);

  private:
    CohConfig cohCfg;
    std::unique_ptr<CohStats> stats;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<L1Controller>> l1s;
    std::vector<std::unique_ptr<Directory>> dirs;
    std::vector<std::unique_ptr<MemoryController>> mcs;
};

} // namespace inpg

#endif // INPG_COH_COHERENT_SYSTEM_HH

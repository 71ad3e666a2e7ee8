/**
 * @file
 * Workload: instantiates one benchmark profile on a coherent system --
 * creates the locks and the per-core threads, runs them to completion,
 * and aggregates the phase accounting the paper's figures report.
 */

#ifndef INPG_WORKLOAD_WORKLOAD_HH
#define INPG_WORKLOAD_WORKLOAD_HH

#include <memory>
#include <vector>

#include "coh/coherent_system.hh"
#include "sync/lock_manager.hh"
#include "sync/thread_context.hh"
#include "workload/benchmark_profile.hh"

namespace inpg {

/** One benchmark run: threads + locks over a CoherentSystem. */
class Workload
{
  public:
    struct Params {
        BenchmarkProfile profile;
        /** Worker threads (one per core). */
        int threads = 64;
        /**
         * Fraction of the profile's per-thread CS count actually
         * simulated (simulation-time scaling; documented in
         * EXPERIMENTS.md). 1.0 = the paper's full count.
         */
        double csScale = 0.125;
        /**
         * Home node of the program's first lock; INVALID_NODE spreads
         * lock homes across the mesh. Figure 10 pins the lock at tile
         * (5,6).
         */
        NodeId lockHome = INVALID_NODE;
        LockKind lockKind = LockKind::Qsl;
        std::uint64_t seed = 1;
    };

    Workload(Params params, CoherentSystem &system, LockManager &locks,
             Simulator &sim);

    /** Launch all threads. */
    void start();

    /** True when every thread finished its CS target. */
    bool done() const;

    /** Region-of-interest length: the last thread's finish cycle. */
    Cycle roiFinish() const;

    /** Total CS entries completed so far across threads. */
    std::uint64_t csCompleted() const;

    /** Sum of a phase's cycles over all threads. */
    Cycle totalCycles(ThreadPhase p) const;

    const std::vector<std::unique_ptr<ThreadContext>> &threads() const
    {
        return workers;
    }

    const std::vector<LockPrimitive *> &locks() const { return lockPtrs; }

    int csTargetPerThread() const { return csTarget; }

  private:
    Params prm;
    CoherentSystem &sys;
    /** Every thread's ThreadContext::Params views these two. */
    std::vector<LockPrimitive *> lockPtrs;
    std::vector<Addr> csData;
    std::vector<std::unique_ptr<ThreadContext>> workers;
    int csTarget;
};

} // namespace inpg

#endif // INPG_WORKLOAD_WORKLOAD_HH

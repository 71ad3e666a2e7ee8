/**
 * @file
 * ThreadContext: the lifecycle of one worker thread (paper Figure 1) --
 * parallel compute, critical-section competition, critical-section
 * execution -- driven as an asynchronous state machine over the
 * simulated memory system.
 */

#ifndef INPG_SYNC_THREAD_CONTEXT_HH
#define INPG_SYNC_THREAD_CONTEXT_HH

#include <array>
#include <span>

#include "coh/coherent_system.hh"
#include "common/rng.hh"
#include "sim/simulator.hh"
#include "sync/lock_primitive.hh"
#include "workload/phase_recorder.hh"

namespace inpg {

/** One simulated worker thread pinned to its core. */
class ThreadContext
{
  public:
    struct Params {
        ThreadId tid = 0;
        /** Critical sections to execute before finishing. */
        int csTarget = 1;
        /** Mean cycles of parallel compute between CS entries. */
        double meanParallelCycles = 1000;
        /** Mean cycles of work inside a critical section. */
        double meanCsCycles = 100;
        /** Locks this thread competes for (picked uniformly); the
         *  caller owns the array and keeps it alive. */
        std::span<LockPrimitive *const> locks;
        /** Shared data line updated inside each CS (one per lock;
         *  caller-owned like `locks`). */
        std::span<const Addr> csData;
        /**
         * Mean cycles between background memory accesses during the
         * parallel phase (0 = pure compute, no traffic).
         */
        double memGapCycles = 0;
        /** Lines the background accesses touch (shared with a peer
         *  thread so ownership ping-pongs and traffic is sustained). */
        std::array<Addr, 4> bgAddrs{};
        std::uint64_t seed = 1;
    };

    ThreadContext(Params params, CoherentSystem &system, Simulator &sim);

    /** Begin the first parallel phase. */
    void start();

    bool done() const { return finished; }

    int csCompleted() const { return completed; }

    /** Cycle the thread finished its last CS (valid once done()). */
    Cycle finishCycle() const { return doneAt; }

    const PhaseRecorder &recorder() const { return phases; }
    PhaseRecorder &recorder() { return phases; }

    ThreadId threadId() const { return prm.tid; }

  private:
    void beginParallel();
    void parallelStep(Cycle remaining);
    void beginAcquire();
    void beginCs();
    void beginRelease();
    void endIteration();

    Params prm;
    CoherentSystem &sys;
    Simulator &sim;
    Rng rng;
    PhaseRecorder phases;
    ThreadHooks hooks;

    int completed = 0;
    std::size_t currentLock = 0;
    bool finished = false;
    Cycle doneAt = 0;
};

} // namespace inpg

#endif // INPG_SYNC_THREAD_CONTEXT_HH

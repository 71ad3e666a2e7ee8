/**
 * @file
 * Determinism regression tests for the activity-driven kernel: seeded
 * runs must reproduce exactly, and idle fast-forwarding must be
 * invisible in simulated results -- identical cycle counts and LCO
 * statistics with iNPG off and on, and across the parallel sweep
 * runner.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/sweep_runner.hh"
#include "harness/system.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace inpg {
namespace {

/** Everything a run can legally differ in shows up in these fields. */
struct Fingerprint {
    Cycle simCycles = 0;
    Cycle roiCycles = 0;
    std::uint64_t csCompleted = 0;
    Cycle parallelCycles = 0;
    Cycle cohCycles = 0;
    Cycle sleepCycles = 0;
    Cycle cseCycles = 0;
    std::uint64_t earlyInvs = 0;
    std::uint64_t flitsSent = 0;

    bool
    operator==(const Fingerprint &o) const
    {
        return simCycles == o.simCycles && roiCycles == o.roiCycles &&
               csCompleted == o.csCompleted &&
               parallelCycles == o.parallelCycles &&
               cohCycles == o.cohCycles && sleepCycles == o.sleepCycles &&
               cseCycles == o.cseCycles && earlyInvs == o.earlyInvs &&
               flitsSent == o.flitsSent;
    }
};

Fingerprint
runOnce(Mechanism mech, LockKind lock, bool fast_forward,
        std::uint64_t *ff_cycles = nullptr,
        std::uint64_t *schedule_heap_allocs = nullptr)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.mechanism = mech;
    cfg.lockKind = lock;
    cfg.finalize();

    System system(cfg);
    system.sim().setFastForward(fast_forward);

    Workload::Params wp;
    wp.profile = benchmarkByName("ferret");
    wp.threads = cfg.numCores();
    wp.csScale = 0.1;
    wp.lockKind = lock;
    wp.seed = cfg.seed;
    Workload workload(wp, system.coherent(), system.locks(),
                      system.sim());
    workload.start();
    system.runUntil([&] { return workload.done(); });

    Fingerprint f;
    f.simCycles = system.sim().now();
    f.roiCycles = workload.roiFinish();
    f.csCompleted = workload.csCompleted();
    f.parallelCycles = workload.totalCycles(ThreadPhase::Parallel);
    f.cohCycles = workload.totalCycles(ThreadPhase::Coh);
    f.sleepCycles = workload.totalCycles(ThreadPhase::Sleep);
    f.cseCycles = workload.totalCycles(ThreadPhase::Cse);
    f.earlyInvs = system.totalEarlyInvs();
    for (NodeId n = 0; n < system.coherent().network().numRouters();
         ++n)
        f.flitsSent += system.coherent().network().router(n)
                           .stats.value("flits_sent");
    if (ff_cycles)
        *ff_cycles = system.sim().cyclesFastForwarded();
    if (schedule_heap_allocs)
        *schedule_heap_allocs =
            system.sim().events().scheduleHeapAllocs();
    return f;
}

TEST(Determinism, SeededRunsReproduceExactly)
{
    Fingerprint a = runOnce(Mechanism::Original, LockKind::Qsl, true);
    Fingerprint b = runOnce(Mechanism::Original, LockKind::Qsl, true);
    EXPECT_TRUE(a == b);
}

TEST(Determinism, FastForwardIsInvisibleWithoutInpg)
{
    std::uint64_t skipped = 0;
    Fingerprint off = runOnce(Mechanism::Original, LockKind::Qsl, false);
    Fingerprint on =
        runOnce(Mechanism::Original, LockKind::Qsl, true, &skipped);
    EXPECT_TRUE(off == on);
    // A QSL workload idles while sleepers wait; the kernel must
    // actually have elided work.
    EXPECT_GT(skipped, 0u);
}

TEST(Determinism, FastForwardIsInvisibleWithInpg)
{
    std::uint64_t skipped = 0;
    Fingerprint off = runOnce(Mechanism::Inpg, LockKind::Qsl, false);
    Fingerprint on =
        runOnce(Mechanism::Inpg, LockKind::Qsl, true, &skipped);
    EXPECT_TRUE(off == on);
    EXPECT_GT(skipped, 0u);
}

TEST(Determinism, FastForwardIsInvisibleForSpinLocks)
{
    // TAS spinners keep the fabric busy; there is little to skip, but
    // the results must still match exactly. The busy schedule path
    // must also stay allocation-free: every callback fits the
    // SmallCallback inline buffer.
    std::uint64_t allocs_off = 1, allocs_on = 1;
    Fingerprint off = runOnce(Mechanism::Original, LockKind::Tas, false,
                              nullptr, &allocs_off);
    Fingerprint on = runOnce(Mechanism::Original, LockKind::Tas, true,
                             nullptr, &allocs_on);
    EXPECT_TRUE(off == on);
    EXPECT_EQ(allocs_off, 0u);
    EXPECT_EQ(allocs_on, 0u);
}

TEST(Determinism, SweepMatchesSerialRuns)
{
    RunConfig rc;
    rc.profile = benchmarkByName("ferret");
    rc.system.noc.meshWidth = 4;
    rc.system.noc.meshHeight = 4;
    rc.csScale = 0.05;

    std::vector<RunConfig> configs;
    for (Mechanism m : ALL_MECHANISMS) {
        rc.system.mechanism = m;
        configs.push_back(rc);
    }

    SweepOptions serial;
    serial.threads = 1;
    SweepOptions pooled;
    pooled.threads = 2;
    std::vector<RunResult> a = runSweep(configs, serial);
    std::vector<RunResult> b = runSweep(configs, pooled);

    ASSERT_EQ(a.size(), configs.size());
    ASSERT_EQ(b.size(), configs.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].mechanism, configs[i].system.mechanism);
        EXPECT_EQ(a[i].roiCycles, b[i].roiCycles) << "config " << i;
        EXPECT_EQ(a[i].csCompleted, b[i].csCompleted) << "config " << i;
        EXPECT_EQ(a[i].cohCycles, b[i].cohCycles) << "config " << i;
        EXPECT_EQ(a[i].earlyInvs, b[i].earlyInvs) << "config " << i;
    }
}

} // namespace
} // namespace inpg

/**
 * @file
 * Golden fingerprints: the simulated results of a fixed set of runs,
 * one per fabric configuration, pinned in
 * tests/golden/fabric_fingerprints.txt. Each line records the cycle
 * counts, CS completions, per-phase thread-cycles, early
 * invalidations, flits sent and a 64-bit FNV-1a hash of the full
 * statsSnapshot() bytes, so any change to simulated behavior on any
 * fabric shows up as a diff here -- not only as a disagreement between
 * two implementations that could drift together. A seeded protocol
 * hang pins the watchdog's hang-report bytes the same way.
 *
 * Regenerate after a deliberate behavior change with
 *     INPG_REGEN_GOLDEN=1 ./build/tests/inpg_tests \
 *         --gtest_filter='*GoldenFingerprints*'
 * (one process, so the tests rewrite the file one line at a time) and
 * review the diff like any other source change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

#include "harness/system.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "telemetry/watchdog.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace inpg {
namespace {

const std::string GOLDEN_PATH =
    std::string(INPG_TEST_GOLDEN_DIR) + "/fabric_fingerprints.txt";

/** Case names in file order (regeneration keeps this order). */
const char *const CASE_ORDER[] = {
    "mesh4x4_freq_original",  "mesh4x4_freq_inpg",
    "mesh8x8_freq_original",  "mesh8x8_freq_inpg",
    "mesh16x16_freq_original", "torus4x4_ferret_inpg",
    "torus8x8_freq_inpg",     "cmesh4x4x4_ferret_inpg",
    "cmesh4x4x4_freq_inpg",   "mesh4x4_freq_tas_inpg",
    "mesh4x4_freq_mcs_inpg",  "mesh4x4_freq_ocor",
    "mesh4x4_freq_inpgocor",  "mesh8x8_freq_ocor",
    "mesh8x8_freq_inpgocor",  "mesh4x4_vc3_freq_inpgocor",
    "torus4x4_vc4_ferret_inpgocor", "mesh4x4_vc8_freq_inpgocor",
    "hang_mesh4x4_tas",
};

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Golden file as name -> "field=value ..." (the rest of the line). */
std::map<std::string, std::string>
readGolden()
{
    std::map<std::string, std::string> lines;
    std::ifstream in(GOLDEN_PATH);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto sp = line.find(' ');
        lines[line.substr(0, sp)] =
            sp == std::string::npos ? "" : line.substr(sp + 1);
    }
    return lines;
}

/**
 * Compare `got` against the pinned line for `name`, or replace that
 * line when INPG_REGEN_GOLDEN is set.
 */
void
checkGolden(const std::string &name, const std::string &got)
{
    std::map<std::string, std::string> lines = readGolden();
    if (std::getenv("INPG_REGEN_GOLDEN")) {
        lines[name] = got;
        std::ofstream out(GOLDEN_PATH, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << GOLDEN_PATH;
        out << "# Pinned simulated results; see "
               "tests/test_golden_fingerprints.cc.\n";
        for (const char *n : CASE_ORDER) {
            auto it = lines.find(n);
            if (it != lines.end())
                out << n << ' ' << it->second << '\n';
        }
        GTEST_SKIP() << "regenerated " << name << " in " << GOLDEN_PATH;
    }
    auto it = lines.find(name);
    ASSERT_NE(it, lines.end())
        << "no golden line for " << name << " in " << GOLDEN_PATH
        << " (regenerate with INPG_REGEN_GOLDEN=1)";
    EXPECT_EQ(got, it->second)
        << name << " drifted from " << GOLDEN_PATH
        << "; if the change is deliberate, regenerate with "
           "INPG_REGEN_GOLDEN=1 and review the diff";
}

/** FabricCase::bigRouters values that are not a count. */
constexpr int BR_DEFAULT = -1; ///< keep the SystemConfig default
constexpr int BR_HALF = -2;    ///< one per two routers

struct FabricCase {
    const char *name;
    const char *topology;
    Mechanism mechanism;
    const char *bench;
    double csScale;
    int bigRouters; ///< a count, BR_DEFAULT or BR_HALF
    LockKind lock = LockKind::Qsl;
    int vcsPerVnet = 0; ///< 0 keeps the NocConfig default
};

/** Print cases by name: the default byte dump would list pointers,
 *  which change from run to run and would destabilize test names. */
void
PrintTo(const FabricCase &c, std::ostream *os)
{
    *os << c.name;
}

const FabricCase FABRIC_CASES[] = {
    {"mesh4x4_freq_original", "mesh:4x4", Mechanism::Original, "freq",
     0.05, BR_DEFAULT},
    {"mesh4x4_freq_inpg", "mesh:4x4", Mechanism::Inpg, "freq", 0.05,
     BR_DEFAULT},
    {"mesh8x8_freq_original", "mesh:8x8", Mechanism::Original, "freq",
     0.02, BR_DEFAULT},
    {"mesh8x8_freq_inpg", "mesh:8x8", Mechanism::Inpg, "freq", 0.02,
     BR_DEFAULT},
    {"mesh16x16_freq_original", "mesh:16x16", Mechanism::Original,
     "freq", 0.005, BR_DEFAULT},
    {"torus4x4_ferret_inpg", "torus:4x4", Mechanism::Inpg, "ferret", 0.1,
     BR_HALF},
    {"torus8x8_freq_inpg", "torus:8x8", Mechanism::Inpg, "freq", 0.05, 8},
    {"cmesh4x4x4_ferret_inpg", "cmesh:4x4x4", Mechanism::Inpg, "ferret",
     0.1, BR_HALF},
    {"cmesh4x4x4_freq_inpg", "cmesh:4x4x4", Mechanism::Inpg, "freq", 0.05,
     4},
    {"mesh4x4_freq_tas_inpg", "mesh:4x4", Mechanism::Inpg, "freq", 0.05,
     BR_DEFAULT, LockKind::Tas},
    {"mesh4x4_freq_mcs_inpg", "mesh:4x4", Mechanism::Inpg, "freq", 0.05,
     BR_DEFAULT, LockKind::Mcs},
    // OCOR mechanisms drive the Priority switch-allocation branch.
    {"mesh4x4_freq_ocor", "mesh:4x4", Mechanism::Ocor, "freq", 0.05,
     BR_DEFAULT},
    {"mesh4x4_freq_inpgocor", "mesh:4x4", Mechanism::InpgOcor, "freq",
     0.05, BR_DEFAULT},
    {"mesh8x8_freq_ocor", "mesh:8x8", Mechanism::Ocor, "freq", 0.02,
     BR_DEFAULT},
    {"mesh8x8_freq_inpgocor", "mesh:8x8", Mechanism::InpgOcor, "freq",
     0.02, BR_DEFAULT},
    // Wider VC geometries: 12, 16 and 32 VCs per port.
    {"mesh4x4_vc3_freq_inpgocor", "mesh:4x4", Mechanism::InpgOcor, "freq",
     0.05, BR_DEFAULT, LockKind::Qsl, 3},
    {"torus4x4_vc4_ferret_inpgocor", "torus:4x4", Mechanism::InpgOcor,
     "ferret", 0.1, BR_HALF, LockKind::Qsl, 4},
    {"mesh4x4_vc8_freq_inpgocor", "mesh:4x4", Mechanism::InpgOcor, "freq",
     0.05, BR_DEFAULT, LockKind::Qsl, 8},
};

/** One run of `c`, rendered as its golden line. */
std::string
fingerprint(const FabricCase &c)
{
    SystemConfig cfg;
    TopologySpec::parse(c.topology).applyTo(cfg.noc);
    cfg.mechanism = c.mechanism;
    cfg.lockKind = c.lock;
    if (c.vcsPerVnet != 0)
        cfg.noc.vcsPerVnet = c.vcsPerVnet;
    if (c.bigRouters == BR_HALF)
        cfg.inpg.numBigRouters = cfg.noc.numRouters() / 2;
    else if (c.bigRouters != BR_DEFAULT)
        cfg.inpg.numBigRouters = c.bigRouters;
    cfg.finalize();

    System system(cfg);
    Workload::Params wp;
    wp.profile = benchmarkByName(c.bench);
    wp.threads = cfg.numCores();
    wp.csScale = c.csScale;
    wp.lockKind = cfg.lockKind;
    wp.seed = cfg.seed;
    Workload workload(wp, system.coherent(), system.locks(),
                      system.sim());
    workload.start();
    system.runUntil([&] { return workload.done(); });

    std::uint64_t flits = 0;
    Network &net = system.coherent().network();
    for (NodeId n = 0; n < net.numRouters(); ++n)
        flits += net.router(n).stats.value("flits_sent");

    std::ostringstream os;
    os << "sim_cycles=" << system.sim().now()
       << " roi_cycles=" << workload.roiFinish()
       << " cs_completed=" << workload.csCompleted()
       << " parallel_cycles="
       << workload.totalCycles(ThreadPhase::Parallel)
       << " coh_cycles=" << workload.totalCycles(ThreadPhase::Coh)
       << " sleep_cycles=" << workload.totalCycles(ThreadPhase::Sleep)
       << " cse_cycles=" << workload.totalCycles(ThreadPhase::Cse)
       << " early_invs=" << system.totalEarlyInvs()
       << " flits_sent=" << flits
       << " stats_fnv1a=" << hex64(fnv1a(system.statsSnapshot().dump()));
    return os.str();
}

class GoldenFingerprints : public ::testing::TestWithParam<FabricCase>
{};

TEST_P(GoldenFingerprints, MatchesPinned)
{
    checkGolden(GetParam().name, fingerprint(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, GoldenFingerprints, ::testing::ValuesIn(FABRIC_CASES),
    [](const ::testing::TestParamInfo<FabricCase> &info) {
        return std::string(info.param.name);
    });

/**
 * Seeded protocol hang (first directory response dropped) under full
 * diagnosis instrumentation: the report dumps router pipeline state,
 * in-flight packet waterfalls and the flight-recorder ring, so its
 * bytes pin the diagnosis path as well as the simulated trajectory.
 */
TEST(GoldenFingerprintsHang, SeededHangReportMatchesPinned)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.lockKind = LockKind::Tas;
    cfg.coh.dropDirResponseNth = 1;
    cfg.telemetry.watchdogWindow = 50000;
    cfg.telemetry.recorder = true;
    cfg.telemetry.packets = true;
    cfg.finalize();
    System system(cfg);

    Workload::Params wp;
    wp.profile = benchmarkByName("freq");
    wp.threads = cfg.numCores();
    wp.csScale = 0.01;
    wp.lockKind = cfg.lockKind;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    std::string report;
    try {
        system.runUntil([&] { return w.done(); }, 5000000);
    } catch (const SimHangError &e) {
        report = e.reportJson();
    }
    ASSERT_FALSE(report.empty()) << "seeded hang did not trip the watchdog";
    checkGolden("hang_mesh4x4_tas",
                "report_bytes=" + std::to_string(report.size()) +
                    " report_fnv1a=" + hex64(fnv1a(report)));
}

} // namespace
} // namespace inpg

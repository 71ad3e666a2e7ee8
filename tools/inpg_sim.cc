/**
 * @file
 * inpg_sim: the general-purpose simulation driver.
 *
 * Runs any benchmark profile (or the whole suite) under any mechanism /
 * lock / platform configuration and reports the full set of metrics,
 * optionally as CSV and optionally with the per-component statistics
 * dump (routers, directories, L1s, locks).
 *
 * Usage:
 *   inpg_sim benchmark=freq mechanism=inpg lock=qsl cs_scale=0.1
 *   inpg_sim benchmark=all csv=1 > results.csv
 *   inpg_sim benchmark=kdtree dump_stats=1 mesh_width=4 mesh_height=4
 *   inpg_sim benchmark=freq topology=torus:8x8     # wraparound fabric
 *   inpg_sim benchmark=freq topology=cmesh:4x4x4   # 4 cores/router
 *   inpg_sim benchmark=freq topology=mesh:16x16    # 256 cores
 *   inpg_sim config=myrun.cfg        # "key = value" lines
 *   inpg_sim benchmark=freq --trace-out=run.json   # Chrome trace
 *   inpg_sim benchmark=freq telemetry=lco --stats-json=stats.json
 *   inpg_sim benchmark=freq --ledger-out=sweeps/ledger.jsonl  # append
 *       one RunRecord per run to the experiment ledger (JSONL; see
 *       src/telemetry/run_record.hh and tools/inpg_report)
 *   inpg_sim benchmark=freq --timeseries-out=ts.csv  # congestion rows
 *   inpg_sim benchmark=freq --watchdog-window=1000000 \
 *       --hang-report-out=hang.json   # exit 86 on detected no-progress
 *
 * GNU-style spellings are accepted for every key: "--trace-out=f"
 * means "trace_out=f". A key no option reads -- a misspelled flag, or
 * one this tool does not have -- is rejected with exit status 1
 * before anything runs, as is any other configuration error. --stats-json collects one machine-readable
 * snapshot (StatsRegistry + LCO attribution) per run under {"runs":
 * [...]}; --trace-out force-enables packet tracing and writes a
 * Perfetto-loadable Chrome trace of the (last) run.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "harness/table_printer.hh"
#include "inpg/big_router.hh"
#include "workload/workload.hh"

using namespace inpg;

namespace {

void
addResultRow(TablePrinter &t, const RunResult &r, int threads)
{
    t.row({r.benchmark, mechanismName(r.mechanism),
           lockKindName(r.lockKind), std::to_string(r.roiCycles),
           std::to_string(r.csCompleted),
           fixed(100.0 * r.phaseFraction(r.parallelCycles, threads), 1),
           fixed(100.0 * r.phaseFraction(r.cohCycles, threads), 1),
           fixed(100.0 * r.phaseFraction(r.cseCycles, threads), 1),
           fixed(100.0 *
                     static_cast<double>(r.lockCohCycles) /
                     (static_cast<double>(r.roiCycles) * threads),
                 1),
           fixed(r.rttMean, 1), std::to_string(r.rttMax),
           std::to_string(r.earlyInvs), std::to_string(r.sleeps)});
}

/** One run with the optional component-level statistics dump. */
RunResult
runWithDump(const RunConfig &rc, bool dump)
{
    if (!dump)
        return runBenchmark(rc);

    SystemConfig sys_cfg = rc.system;
    if (!rc.traceOutPath.empty()) {
        sys_cfg.telemetry.traceEvents = true;
        sys_cfg.telemetry.packets = true;
    }
    if (!rc.timeseriesOutPath.empty() &&
        sys_cfg.telemetry.timeseriesEpoch == 0)
        sys_cfg.telemetry.timeseriesEpoch = DEFAULT_TIMESERIES_EPOCH;
    sys_cfg.finalize();
    System system(sys_cfg);
    Workload::Params wp;
    wp.profile = rc.profile;
    wp.threads = sys_cfg.numCores();
    wp.csScale = rc.csScale;
    wp.lockHome = rc.lockHome;
    wp.lockKind = sys_cfg.lockKind;
    wp.seed = sys_cfg.seed;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); }, rc.maxCycles);

    std::printf("--- component statistics (%s / %s) ---\n",
                rc.profile.name.c_str(),
                mechanismName(sys_cfg.mechanism));
    StatGroup routers("routers.total");
    StatGroup dirs("dirs.total");
    StatGroup l1s("l1s.total");
    Network &dump_net = system.coherent().network();
    // Accumulate each component's counters into a total group.
    auto sumInto = [](StatGroup &total) {
        return [&total](std::string_view key, std::uint64_t v) {
            total.counter(key) += v;
        };
    };
    for (NodeId r = 0; r < dump_net.numRouters(); ++r)
        dump_net.router(r).stats.forEachCounter(sumInto(routers));
    for (NodeId n = 0; n < sys_cfg.numCores(); ++n) {
        system.coherent().directory(n).stats.forEachCounter(
            sumInto(dirs));
        system.coherent().l1(n).stats.forEachCounter(sumInto(l1s));
    }
    std::fputs(routers.dump().c_str(), stdout);
    std::fputs(dirs.dump().c_str(), stdout);
    std::fputs(l1s.dump().c_str(), stdout);
    for (const auto &lock : system.locks().locks())
        std::fputs(lock->stats.dump().c_str(), stdout);
    for (NodeId n = 0; n < dump_net.numRouters(); ++n) {
        if (auto *br = dynamic_cast<BigRouter *>(
                &dump_net.router(n))) {
            if (br->generator().stats.value("early_invs_generated"))
                std::fputs(br->generator().stats.dump().c_str(), stdout);
        }
    }
    std::printf("---\n");

    RunResult r;
    r.benchmark = rc.profile.name;
    r.mechanism = sys_cfg.mechanism;
    r.lockKind = sys_cfg.lockKind;
    r.roiCycles = w.roiFinish();
    r.csCompleted = w.csCompleted();
    r.parallelCycles = w.totalCycles(ThreadPhase::Parallel);
    r.cohCycles = w.totalCycles(ThreadPhase::Coh) +
                  w.totalCycles(ThreadPhase::Sleep);
    r.sleepCycles = w.totalCycles(ThreadPhase::Sleep);
    r.cseCycles = w.totalCycles(ThreadPhase::Cse);
    r.rttMean = system.coherent().cohStats().rttHistogram.mean();
    r.rttMax = system.coherent().cohStats().rttHistogram.max();
    r.earlyInvs = system.totalEarlyInvs();

    Telemetry *telem = system.telemetry();
    if (telem && telem->lco)
        r.lco = telem->lco->summary();
    if (telem && telem->trace && !rc.traceOutPath.empty())
        telem->trace->writeJsonFile(rc.traceOutPath);
    if (telem && telem->timeseries && !rc.timeseriesOutPath.empty())
        telem->timeseries->writeFile(rc.timeseriesOutPath);
    r.stats = system.statsSnapshot();
    return r;
}

} // namespace

int
run(int argc, char **argv)
{
    Config overrides;
    overrides.loadArgs(argc, argv);
    if (overrides.has("config"))
        overrides.loadFile(overrides.getString("config"));
    // Command line wins over the file: re-apply argv.
    overrides.loadArgs(argc, argv);

    const std::string bench = overrides.getString("benchmark", "freq");
    const bool csv = overrides.getBool("csv", false);
    const bool dump = overrides.getBool("dump_stats", false);
    const bool all_mechs = overrides.getBool("all_mechanisms", false);

    std::vector<BenchmarkProfile> profiles;
    if (bench == "all")
        profiles = allBenchmarks();
    else
        for (const auto &name : split(bench, ','))
            profiles.push_back(benchmarkByName(trim(name)));

    RunConfig rc;
    rc.system.applyOverrides(overrides);
    rc.csScale = overrides.getDouble("cs_scale", 0.05);
    if (overrides.has("lock_home"))
        rc.lockHome =
            static_cast<NodeId>(overrides.getInt("lock_home"));
    rc.traceOutPath = overrides.getString("trace_out", "");
    rc.timeseriesOutPath = overrides.getString("timeseries_out", "");
    const std::string stats_json_path =
        overrides.getString("stats_json", "");
    const std::string hang_report_path =
        overrides.getString("hang_report_out", "");
    const std::string ledger_path =
        overrides.getString("ledger_out", "");
    // num_locks=1 concentrates the profile's CS traffic on one lock,
    // as the LCO figure benches do.
    const bool set_num_locks = overrides.has("num_locks");
    const int num_locks =
        static_cast<int>(overrides.getInt("num_locks", 1));
    // Every option has been read by now; anything left is a typo.
    overrides.requireAllRead();
    std::unique_ptr<ExperimentLedger> ledger;
    if (!ledger_path.empty()) {
        ledger = std::make_unique<ExperimentLedger>(ledger_path);
        if (!ledger->ok())
            fatal("cannot open ledger '%s'", ledger_path.c_str());
    }

    TablePrinter t("inpg_sim results");
    t.header({"benchmark", "mechanism", "lock", "roi_cycles",
              "cs_completed", "parallel%", "coh%", "cse%", "lco%",
              "rtt_mean", "rtt_max", "early_invs", "sleeps"});

    const int threads = rc.system.numCores();
    JsonValue runs = JsonValue::array();
    auto one_run = [&](const RunConfig &run_rc) {
        RunResult r = runWithDump(run_rc, dump);
        addResultRow(t, r, threads);
        if (ledger)
            ledger->append(makeRunRecord(run_rc, r));
        if (!stats_json_path.empty()) {
            JsonValue entry = JsonValue::object();
            entry["benchmark"] = r.benchmark;
            entry["mechanism"] = mechanismName(r.mechanism);
            entry["lock"] = lockKindName(r.lockKind);
            entry["roi_cycles"] =
                static_cast<std::uint64_t>(r.roiCycles);
            entry["cs_completed"] = r.csCompleted;
            entry["stats"] = std::move(r.stats);
            runs.push(std::move(entry));
        }
    };
    try {
        for (const auto &p : profiles) {
            rc.profile = p;
            if (set_num_locks)
                rc.profile.numLocks = num_locks;
            if (all_mechs) {
                for (Mechanism m : ALL_MECHANISMS) {
                    rc.system.mechanism = m;
                    one_run(rc);
                }
            } else {
                one_run(rc);
            }
        }
    } catch (const SimHangError &e) {
        // Watchdog trip: persist the structured hang report and exit
        // with the dedicated code so harnesses can tell a detected
        // hang from an ordinary failure.
        std::fprintf(stderr, "inpg_sim: %s\n", e.what());
        std::FILE *out = stdout;
        if (!hang_report_path.empty()) {
            out = std::fopen(hang_report_path.c_str(), "w");
            if (!out)
                fatal("cannot open hang report file '%s'",
                      hang_report_path.c_str());
        }
        const std::string &report = e.reportJson();
        std::fwrite(report.data(), 1, report.size(), out);
        std::fputc('\n', out);
        if (out != stdout) {
            std::fclose(out);
            std::fprintf(stderr, "inpg_sim: hang report written to %s\n",
                         hang_report_path.c_str());
        }
        return HANG_EXIT_CODE;
    }

    if (!stats_json_path.empty()) {
        JsonValue doc = JsonValue::object();
        doc["schema_version"] = STATS_JSON_SCHEMA_VERSION;
        doc["runs"] = std::move(runs);
        std::FILE *f = std::fopen(stats_json_path.c_str(), "w");
        if (!f)
            fatal("cannot open '%s'", stats_json_path.c_str());
        const std::string text = doc.dump(2);
        std::fwrite(text.data(), 1, text.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
    }

    if (csv)
        std::fputs(t.renderCsv().c_str(), stdout);
    else
        std::fputs(t.render().c_str(), stdout);
    return 0;
}

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        // fatal() already printed the message.
        return 1;
    }
}

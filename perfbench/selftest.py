#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark (run from the repository root):

    python3 perfbench/selftest.py

Builds the benchmark like run.py does, then checks on tiny workloads that
  1. every metric named in BENCHMARK.json, plus the printed-only ones
     (PRINTED_ONLY, and inpg_roi_speedup on paper_sweep), is printed
     exactly once with its unit, and the JSON result carries exactly
     the declared metrics;
  2. a point forced to fail (too few max cycles to finish) lands in
     points_failed without aborting the batch, and the run exits 1;
  3. two back-to-back runs give identical simulated metrics.
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (same directory)

WORKLOADS = ("spin_storm", "sleepy_cs", "paper_sweep")
# Host-time metrics; everything else is simulated or a count and must
# repeat exactly.
HOST_METRICS = {
    "run_s", "setup_s", "sim_kcycles_per_s", "point_p50_s",
    "point_p90_s", "peak_rss_mb", "trace_overhead", "harness.sweep_tail_s",
    "sim.host_ns_per_event", "noc.host_ns_per_flit", "noc.host_share",
}
# Printed with their unit but not part of the JSON result.
PRINTED_ONLY = {"run_s": "s", "sim_kcycles_per_s": "kcycles/s",
                "point_p50_s": "s", "point_p90_s": "s",
                "points_failed": "failed/attempted"}
LINE = re.compile(r"^  (\S+)\s+(-?[0-9.eE+-]+)\s+(\S+)")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def drive(*args):
    """Run the program at tiny scale; return (exit code, {name: (value, unit)} as
    printed, printed name list, JSON result)."""
    out = subprocess.run([run.BINARY, "--tiny", "--seconds", "0", *args],
                         capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    printed = []
    values = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed.append(m.group(1))
            values[m.group(1)] = (float(m.group(2)), m.group(3))
    return out.returncode, values, printed, json.loads(lines[-1])


def simulated(values):
    return {k: v for k, v in values.items()
            if k not in HOST_METRICS and not k.endswith("_s")}


def main():
    if not run.build():
        print("selftest: build failed")
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in WORKLOADS:
        code, values, printed, res = drive("--workload", w, "--trace", "1")
        check(code == 0 and res["correct"] and res["failed"] == 0,
              "%s: tiny traced run is correct" % w)
        named = dict(e2e, **layers, **PRINTED_ONLY)
        if w == "paper_sweep":
            named["inpg_roi_speedup"] = "x"
        for name, unit in named.items():
            check(printed.count(name) == 1 and values[name][1] == unit,
                  "%s: %s printed once in %s" % (w, name, unit))
        check(sorted(printed) == sorted(named),
              "%s: no unnamed metric printed" % w)
        check(set(res["metrics"]) == set(layers),
              "%s: --trace 1 JSON holds the per-layer metrics" % w)
        code, _, _, res = drive("--workload", w, "--trace", "0")
        check(set(res["metrics"]) == set(e2e),
              "%s: --trace 0 JSON holds the end-to-end metrics" % w)

    code, values, _, res = drive("--workload", "paper_sweep",
                                 "--fail-point", "3")
    check(code == 1 and not res["correct"],
          "forced failure: run reports incorrect and exits 1")
    check(res["failed"] == 1 and res["attempted"] == 16,
          "forced failure: 1 of 16 points failed, batch completed")
    check(abs(values["points_failed"][0] - 1 / 16) < 1e-6,
          "forced failure: counted in points_failed")

    for w in WORKLOADS:
        first = simulated(drive("--workload", w, "--trace", "1")[1])
        second = simulated(drive("--workload", w, "--trace", "1")[1])
        check(first == second and "sim_roi_cycles" in first,
              "%s: back-to-back simulated metrics identical (%d)"
              % (w, len(first)))

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

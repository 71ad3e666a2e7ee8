#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: base revision vs working tree.

    python3 tools/perf_ab.py [--base REV] [--pairs N] [--workload W ...]
                             [-- extra perfbench/run.py arguments]
    python3 tools/perf_ab.py --self-test

The change side is this working tree. The base side (default HEAD~1,
the parent of the commit under test; pass --base HEAD to measure
uncommitted edits) is exported with `git archive` into a fresh
temporary directory, so it carries only committed files: no
.bench_build/ from another tree, and nothing registered in the
repository's own metadata if the run is killed.

perfbench/run.py caches its CMake tree in .bench_build/perfbench with
absolute paths, so a tree whose cache was configured elsewhere silently
compiles the other tree's sources. Both sides' caches are checked
before and after every run; a CMAKE_HOME_DIRECTORY outside the side's
own tree stops the comparison.

The two sides then run alternately, N >= 5 pairs per workload (the
order flips every pair so slow drift of the host hits both sides), and
the tool prints every metric's median and interquartile range per side
and, for the metrics BENCHMARK.json gives a direction, how many pairs
the change won. Each run's build output goes to
<tmp>/<side>-<workload>-<i>.log. The temporary directory is removed
after a complete comparison; when a run fails it is kept, and its path
printed, so the log the error names can still be read.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(".bench_build", "perfbench", "CMakeCache.txt")
DEFAULT_WORKLOADS = ["paper_sweep"]
MIN_PAIRS = 5
# perfbench's printMetrics(): two spaces, the name, the value, the unit.
METRIC_LINE = re.compile(r"^  (\S+)\s+(-?[0-9.]+(?:[eE][-+]?[0-9]+)?) ")


class AbError(Exception):
    pass


def cache_home(tree):
    """CMAKE_HOME_DIRECTORY of the tree's perfbench cache, or None."""
    path = os.path.join(tree, CACHE)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    raise AbError("%s has no CMAKE_HOME_DIRECTORY entry" % path)


def check_cache(tree):
    """Raise AbError when the tree's perfbench cache builds another tree."""
    home = cache_home(tree)
    if home is None:
        return
    own = os.path.realpath(tree)
    real = os.path.realpath(home)
    if os.path.commonpath([own, real]) != own:
        raise AbError(
            "%s: CMAKE_HOME_DIRECTORY is %s, outside this tree; it would "
            "build that tree's sources. Delete %s and rerun."
            % (os.path.join(tree, CACHE), home,
               os.path.join(tree, ".bench_build")))


def pair_order(i):
    """Run order of pair i: base first on even pairs, change first on odd."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def quartiles(values):
    """(q1, median, q3), inclusive linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def parse_result(stdout):
    """Metric name -> value: perfbench's printed metric lines (run_s and
    the other metrics outside the JSON result), then its last stdout
    line, the JSON result."""
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    if not lines:
        raise AbError("perfbench printed nothing")
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        raise AbError("perfbench's last line is not JSON: %r" % lines[-1])
    if not doc.get("correct", False):
        raise AbError("perfbench reported an incorrect run: %s" % lines[-1])
    out = {}
    for line in lines[:-1]:
        m = METRIC_LINE.match(line)
        if m:
            out[m.group(1)] = float(m.group(2))
    out.update({k: v["value"] for k, v in doc["metrics"].items()})
    return out


def export_base(rev, dest):
    """Write the committed tree of `rev` into dest (git archive | tar)."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise AbError("could not export revision %s" % rev)


def run_side(tree, workload, extra, log_path):
    check_cache(tree)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload] + extra
    with open(log_path, "w") as log:
        done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                              stderr=log, text=True)
    check_cache(tree)
    if done.returncode != 0:
        raise AbError("%s exited %d in %s (log: %s)"
                      % (" ".join(cmd), done.returncode, tree, log_path))
    return parse_result(done.stdout)


def directions(tree):
    """Metric name -> 'lower'/'higher' from the tree's BENCHMARK.json."""
    path = os.path.join(tree, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for key in ("end_to_end", "per_layer"):
        for m in doc.get(key, []):
            out[m["name"]] = m.get("better", "lower")
    return out


def report(workload, samples, better):
    """Print median and IQR per side and the pairs the change won."""
    print("== %s (%d pairs)" % (workload, len(samples["base"])))
    print("  %-28s %-34s %-34s %8s %6s" % ("metric", "base median [q1, q3]",
                                           "change median [q1, q3]",
                                           "delta", "won"))
    names = sorted(set(samples["base"][0]) & set(samples["change"][0]))
    for name in names:
        base = [s[name] for s in samples["base"]]
        change = [s[name] for s in samples["change"]]
        bq, cq = quartiles(base), quartiles(change)
        # Pairs won only for metrics whose direction BENCHMARK.json
        # declares; the others print their medians alone.
        if name in better:
            lower = better[name] == "lower"
            won = "%3d/%d" % (sum(1 for b, c in zip(base, change)
                                  if (c < b if lower else c > b)),
                              len(base))
        else:
            won = "     -"
        delta = ("%+7.1f%%" % (100.0 * (cq[1] - bq[1]) / bq[1])
                 if bq[1] else "     n/a")
        side = "%.4g [%.4g, %.4g]"
        print("  %-28s %-34s %-34s %s %s"
              % (name, side % (bq[1], bq[0], bq[2]),
                 side % (cq[1], cq[0], cq[2]), delta, won))


def compare(tmp, base, workloads, pairs, extra):
    """Export `base` under tmp and run the alternating pairs."""
    base_tree = os.path.join(tmp, "base")
    os.makedirs(base_tree)
    export_base(base, base_tree)
    trees = {"base": base_tree, "change": ROOT}
    for side, tree in trees.items():
        check_cache(tree)
        print("perf_ab: %s = %s" % (side, tree), file=sys.stderr)
    better = directions(ROOT)
    for w in workloads:
        samples = {"base": [], "change": []}
        for i in range(pairs):
            for side in pair_order(i):
                log = os.path.join(tmp, "%s-%s-%d.log" % (side, w, i))
                samples[side].append(run_side(trees[side], w, extra, log))
            print("perf_ab: %s pair %d/%d done" % (w, i + 1, pairs),
                  file=sys.stderr)
        report(w, samples, better)


def self_test():
    failures = []

    def expect(cond, what):
        print("perf_ab --self-test: %s: %s" % ("ok" if cond else "FAILED",
                                               what))
        if not cond:
            failures.append(what)

    expect(quartiles([1, 2, 3, 4, 5]) == (2, 3, 4), "quartiles of 1..5")
    expect(quartiles([7.0]) == (7.0, 7.0, 7.0), "quartiles of one sample")
    orders = [pair_order(i) for i in range(4)]
    expect(orders[0] == orders[2] and orders[1] == orders[3] and
           orders[0] == tuple(reversed(orders[1])),
           "pair order alternates")
    line = ('{"correct":true,"attempted":2,"failed":0,"metrics":'
            '{"setup_s":{"value":0.25,"unit":"s"}}}')
    expect(parse_result("build noise\n" + line + "\n") == {"setup_s": 0.25},
           "reads the metrics of the last stdout line")
    printed = ("end-to-end, not in the JSON result:\n"
               "  run_s                                    0.7061449545 s"
               "                (median of 2 batches)\n" + line)
    expect(parse_result(printed) == {"setup_s": 0.25, "run_s": 0.7061449545},
           "reads the printed metric lines too")
    for bad, what in (("not json", "a non-JSON"),
                      (line.replace("true", "false"), "an incorrect")):
        try:
            parse_result(bad)
            expect(False, "rejects %s result" % what)
        except AbError:
            expect(True, "rejects %s result" % what)

    with tempfile.TemporaryDirectory() as tmp:
        own = os.path.join(tmp, "own")
        copied = os.path.join(tmp, "copied")
        for tree, home in ((own, own), (copied, own)):
            os.makedirs(os.path.join(tree, os.path.dirname(CACHE)))
            with open(os.path.join(tree, CACHE), "w") as f:
                f.write("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n"
                        % os.path.join(home, "perfbench"))
        try:
            check_cache(own)
            expect(True, "accepts a cache configured in its own tree")
        except AbError:
            expect(False, "accepts a cache configured in its own tree")
        try:
            check_cache(copied)
            expect(False, "refuses a cache carried over from another tree")
        except AbError:
            expect(True, "refuses a cache carried over from another tree")
        expect(cache_home(os.path.join(tmp, "none")) is None,
               "a tree without a cache passes")

    with tempfile.TemporaryDirectory() as tmp:
        # A perfbench that fails: the error names a log that holds
        # what it printed to stderr.
        os.makedirs(os.path.join(tmp, "perfbench"))
        with open(os.path.join(tmp, "perfbench", "run.py"), "w") as f:
            f.write("import sys\nsys.exit('build failed')\n")
        log = os.path.join(tmp, "run.log")
        try:
            run_side(tmp, "w", [], log)
            expect(False, "a failed run raises")
        except AbError as e:
            with open(log) as f:
                expect(log in str(e) and "build failed" in f.read(),
                       "a failed run's error names its log")

    # main() keeps the temporary directory when a run fails and removes
    # it after a complete comparison.
    global compare
    real_compare, seen = compare, []

    def fake(fail):
        def run(tmp, *rest):
            seen.append(tmp)
            if fail:
                raise AbError("run failed")
        return run

    try:
        for fail in (True, False):
            compare = fake(fail)
            code = main(["--pairs", str(MIN_PAIRS)])
            kept = os.path.isdir(seen[-1])
            expect(code == (2 if fail else 0) and kept == fail,
                   "temporary directory %s after a %s comparison"
                   % ("kept" if fail else "removed",
                      "failed" if fail else "complete"))
            if kept:
                shutil.rmtree(seen[-1])
    finally:
        compare = real_compare

    print("perf_ab --self-test: %s" % ("FAILED (%d)" % len(failures)
                                       if failures else "all checks passed"))
    return 1 if failures else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    extra = []
    if "--" in argv:
        cut = argv.index("--")
        argv, extra = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(
        description="Alternating same-host A/B of perfbench/run.py.")
    parser.add_argument("--base", default="HEAD~1",
                        help="revision to compare against (default HEAD~1)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS,
                        help="alternating pairs per workload (>= %d)"
                        % MIN_PAIRS)
    parser.add_argument("--workload", action="append",
                        help="workload (repeatable; default paper_sweep)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.pairs < MIN_PAIRS:
        parser.error("--pairs must be at least %d" % MIN_PAIRS)
    workloads = args.workload or DEFAULT_WORKLOADS

    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    try:
        compare(tmp, args.base, workloads, args.pairs, extra)
    except AbError as e:
        print("perf_ab: %s" % e, file=sys.stderr)
        print("perf_ab: kept %s" % tmp, file=sys.stderr)
        return 2
    shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

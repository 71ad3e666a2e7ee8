#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload spin_storm --seed 1 --seconds 10 --trace 0

The simulator library and the perfbench program are built from source
(Release) into .bench_build/perfbench on first use; build output goes
to stderr. All remaining arguments are passed to the program, whose last
stdout line is the JSON result. With --trace 1 the traced pass's spans
are written to .bench_build/perfbench/spans-<workload>-seed<n>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure (once) and build the program; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0 and os.path.exists(BINARY)


def git(*args):
    out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def provenance_env():
    """INPG_GIT_SHA / INPG_GIT_DIRTY for this checkout ("unknown" when it
    is not a git work tree of its own)."""
    env = dict(os.environ)
    top = git("rev-parse", "--show-toplevel")
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        env["INPG_GIT_SHA"] = git("rev-parse", "HEAD") or "unknown"
        status = git("status", "--porcelain")
        env["INPG_GIT_DIRTY"] = "unknown" if status is None else (
            "1" if status else "0")
    else:
        env["INPG_GIT_SHA"] = "unknown"
        env["INPG_GIT_DIRTY"] = "unknown"
    return env


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY, *sys.argv[1:]]
    if known.trace == "1":
        name = "spans-%s-seed%s.json" % (known.workload, known.seed)
        cmd += ["--spans-out", os.path.join(BUILD, name)]
    return subprocess.run(cmd, env=provenance_env()).returncode


if __name__ == "__main__":
    sys.exit(main())

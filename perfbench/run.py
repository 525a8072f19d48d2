#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reorg-online --seed 1 --seconds 10 --trace 0

The benchmark binary (perfbench/main.exe, built with dune into
.bench_build/) prints a human-readable report and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.  This
script passes that output through and exits with the binary's code: 0 when
every output check passed, 1 when one failed, 2 on a usage or build error.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
WORKLOADS = ("reorg-online", "oltp-resident", "crash-restart")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    fail("dune not found on PATH or in an opam switch")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    # The benchmark drives the engine's libraries, so it needs the whole
    # source tree, not just its own directory.
    for path in ("dune-project", "lib", "perfbench/dune", "perfbench/main.ml"):
        if not os.path.exists(path):
            fail("run this from the root of a full checkout (missing %s)" % path)

    dune = find_dune()
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "-j", "2", TARGET],
        stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans-out", os.path.join(
            BUILD_DIR, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, timeout=175)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in time")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

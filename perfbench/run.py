#!/usr/bin/env python3
"""Build the ssdrr benchmark harness from this checkout and run it.

Run from the repository root:

    python3 perfbench/run.py --workload replay-usr1 --seed 1 \
        --seconds 20 --trace 0

The harness (perfbench/ssdrr_bench.cc) and the ssdrr library are built
from the checked-out sources into $CARGO_TARGET_DIR (default
.bench_build). Build output goes to stderr; the harness's report goes
to stdout and its last line is the JSON result. The exit code is the
harness's: 0 only when every correctness check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay-usr1", "tenants-rw", "raid5-fabric-failover")
# The harness exits on its own after --seconds plus one pass; this is
# only a guard against a hung run.
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build the harness; return the executable path."""
    for need in ("CMakeLists.txt", os.path.join("src", "ssdrr.hh")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("run.py: %s not found: run from an ssdrr checkout"
                     % need)
    out = build_dir()
    steps = (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "ssdrr_bench", "-j3"],
    )
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "ssdrr_bench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def harness_cmd(exe, args, workloads_dir=os.path.join(HERE, "workloads")):
    """The harness command line; workloads_dir holds <workload>.json."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workloads-dir", workloads_dir]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    return cmd


def main(argv):
    args = parse_args(argv)
    exe = build()
    sys.stdout.flush()
    try:
        return subprocess.run(harness_cmd(exe, args), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: harness exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

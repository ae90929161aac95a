#!/usr/bin/env python3
"""Positive and negative control for the ssdrr benchmark.

The worker-thread count changes host time only: the simulator's results
are bit-identical for any thread count. This test writes a copy of the
raid5-fabric-failover spec with "threads": 1 and runs it against the
workload's own spec ("threads": 2) in alternating pairs, each run as
long as BENCHMARK.json's run_seconds. It asserts:

- positive control: in every pair, threads 1 has the higher
  reads_per_host_s, by more than the metric's bound;
- negative control: two runs of the unchanged spec agree on
  reads_per_host_s within that bound;
- every simulated metric, served_share and the per-mechanism result
  digests are identical across all runs.

    python3 perfbench/test_positive_control.py   # from the repo root

It takes about (2 * PAIRS + 2) * run_seconds.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOAD = "raid5-fabric-failover"
SEED = 1
PAIRS = 5
DIGEST = re.compile(r"^(\S+)\s+reads .* digest ([0-9a-f]{16})$")


def benchmark_settings():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "reads_per_host_s")
    return bench["run_seconds"], bound


def one_thread_workloads():
    """A workloads directory whose raid5 spec runs on one thread."""
    with open(os.path.join(HERE, "workloads", WORKLOAD + ".json")) as f:
        spec = json.load(f)
    assert spec["threads"] == 2, "the workload's own spec runs 2 threads"
    spec["threads"] = 1
    out = tempfile.mkdtemp(prefix="positive-control-", dir=run.build_dir())
    with open(os.path.join(out, WORKLOAD + ".json"), "w") as f:
        json.dump(spec, f, indent=2)
    return out


def run_harness(exe, seconds, workloads_dir):
    args = run.parse_args(["--workload", WORKLOAD, "--seed", str(SEED),
                           "--seconds", str(seconds), "--trace", "0"])
    p = subprocess.run(run.harness_cmd(exe, args, workloads_dir),
                       cwd=run.ROOT, capture_output=True, text=True,
                       timeout=run.RUN_TIMEOUT_S)
    if p.returncode != 0:
        raise AssertionError("harness failed on %s:\n%s"
                             % (workloads_dir, p.stderr))
    lines = p.stdout.strip().splitlines()
    digests = dict(m.groups() for m in map(DIGEST.match, lines) if m)
    result = json.loads(lines[-1])
    result["digests"] = digests
    return result


def rate(result):
    return result["metrics"]["reads_per_host_s"]["value"]


def simulated(result):
    """Everything that must not depend on the thread count."""
    out = {name: m["value"] for name, m in result["metrics"].items()
           if name.startswith("sim_read_") or name == "served_share"}
    out["digests"] = result["digests"]
    return out


class PositiveControl(unittest.TestCase):
    def test_threads_move_host_time_not_results(self):
        exe = run.build()
        seconds, bound = benchmark_settings()
        own = os.path.join(HERE, "workloads")
        one = one_thread_workloads()

        runs = []
        for i in range(PAIRS):
            # Alternate which configuration runs first, so a slow drift
            # of the host favours neither.
            order = (one, own) if i % 2 == 0 else (own, one)
            pair = {d: run_harness(exe, seconds, d) for d in order}
            r1, r2 = rate(pair[one]), rate(pair[own])
            print("pair %d: threads 1 %.1f, threads 2 %.1f reads/s (x%.2f)"
                  % (i, r1, r2, r1 / r2), flush=True)
            self.assertGreater(r1 / r2 - 1.0, bound,
                               "pair %d: threads 1 not faster by more "
                               "than the bound" % i)
            runs += pair.values()

        a, b = (run_harness(exe, seconds, own) for _ in range(2))
        print("negative control: threads 2 %.1f vs %.1f reads/s"
              % (rate(a), rate(b)), flush=True)
        self.assertLess(abs(rate(a) / rate(b) - 1.0), bound,
                        "the same configuration differs by more than "
                        "the bound")
        runs += [a, b]

        for r in runs:
            self.assertTrue(r["correct"])
            self.assertEqual(sorted(r["digests"]), ["Baseline", "PnAR2"])
            self.assertEqual(simulated(r), simulated(runs[0]))


if __name__ == "__main__":
    unittest.main()

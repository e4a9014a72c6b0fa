"""Benchmark of the LRSCwait simulator, end to end through its CLI.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds cmd/sweep from the checkout's
sources into .bench_build/, runs the workload, checks its outputs and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines before it record
the environment and how each figure was taken. See simbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import shutil
import tempfile
import time

import harness
import layers
import serve
import sims

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("req_per_s", "1/s", "higher"),
    ("req_p50_ms", "ms", "lower"),
    ("req_tail_ms", "ms", "lower"),
    ("miss_p50_ms", "ms", "lower"),
]

WORKLOADS = list(sims.WORKLOADS) + ["serve-mixed"]


def main():
    ap = argparse.ArgumentParser(description="Benchmark of the LRSCwait simulator.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="seeds the serve-mixed request mix; the simulation workloads are "
                         "fixed paper selections and ignore it")
    ap.add_argument("--seconds", type=float, required=True, help="how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run, reporting per-layer metrics")
    a = ap.parse_args()

    try:
        harness.build()
    except harness.BenchError as e:
        print("simbench: %s" % e, file=sys.stderr)
        return 2
    env = harness.environment(a.workload, a.seed, a.trace)
    print("env " + json.dumps(env, sort_keys=True))

    os.makedirs(harness.BUILD, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=harness.BUILD)
    try:
        if a.trace:
            spans = harness.Spans()
            root = spans.open(a.workload, time.perf_counter(), seed=a.seed)
            if a.workload == "serve-mixed":
                res = serve.traced(a.seed, work, spans, root)
            else:
                res = sims.traced(a.workload, work, spans, root)
            spans.close(root, time.perf_counter())
            path = os.path.join(harness.BUILD, "spans", "%s-seed%d.json" % (a.workload, a.seed))
            spans.write(path, env)
            print("spans written to " + os.path.relpath(path, harness.ROOT))
            units = layers.per_layer_names()
        else:
            if a.workload == "serve-mixed":
                res = serve.measure(a.seed, a.seconds, work)
            else:
                res = sims.measure(a.workload, a.seconds, work)
            units = END_TO_END
    except harness.BenchError as e:
        print("simbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values, attempted, failed, notes = res
    for line in notes:
        print(line)
    metrics = {}
    for name, unit, _ in units:
        metrics[name] = {"value": values[name], "unit": unit}
        print("%-34s %14.6g %s" % (name, values[name], unit))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the superdensity H^1 pipeline.

    python3 perfbench/run.py --workload tables_n2 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  Every round runs in a fresh
interpreter (worker.py); this process only plans the rounds, draws the
seeded inputs and aggregates.  Progress goes to stderr; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  ``--smoke`` runs one tiny cell per workload, in one
round with one set-up.
See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import END_TO_END, PER_LAYER, WORKLOADS, make_job  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9          # set-ups per run, each in its own interpreter
WORKER_TIMEOUT_S = 170


def run_worker(job: dict) -> dict:
    """One round in a fresh interpreter; adds ``setup_s``, measured from
    before the interpreter starts to the end of the worker's set-up."""
    env = {k: v for k, v in os.environ.items() if k != "SUPERDENSITY_DEGREE_BOUND"}
    env["PYTHONHASHSEED"] = "0"
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-B", str(HERE / "worker.py")],
                          input=json.dumps(job), stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - t0
    return out


def log(text: str):
    print(text, file=sys.stderr, flush=True)


def describe(job: dict, r: dict, label: str):
    log(f"{job['workload']} {label}: set-up {r['setup_s']:.3f} s, cells {r['cells_s']:.3f} s, "
        f"gates {r['gates_s']:.3f} s, timed {r['timed_s']:.3f} s over {r['timed_ops']} ops, "
        f"peak RSS {r['peak_rss_mb']:.1f} MB, D {r['degree_bounds']}")
    for e in r["errors"] + r["check_failures"]:
        log(f"  FAIL {e}")


def totals(rounds):
    return {"correct": all(not r["check_failures"] for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds)}


def measure(job: dict, seconds: float, smoke: bool) -> dict:
    """End-to-end metrics.  A round is indivisible, so rounds repeat while
    the next one is expected to fit in ``seconds`` (at least one)."""
    setups = [] if smoke else [run_worker(dict(job, setup_only=True))["setup_s"]
                               for _ in range(SETUP_SAMPLES - 1)]
    rounds, spent = [], 0.0
    while True:
        r = run_worker(job)
        describe(job, r, f"round {len(rounds) + 1}")
        rounds.append(r)
        spent += r["timed_s"]
        if smoke or spent + r["timed_s"] > seconds:
            break
    setups += [r["setup_s"] for r in rounds]
    metrics = {
        "setup_s": statistics.median(setups),
        "cells_s": statistics.median(r["cells_s"] for r in rounds),
        "gates_s": statistics.median(r["gates_s"] for r in rounds),
        "queries_per_s": sum(r["timed_ops"] for r in rounds) / sum(r["timed_s"] for r in rounds),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    return dict(totals(rounds), metrics={k: {"value": v, "unit": END_TO_END[k]}
                                         for k, v in metrics.items()})


def trace(job: dict) -> dict:
    """Per-layer metrics from one traced round, and the tracing overhead
    against one untraced round of the same work."""
    plain = run_worker(job)
    describe(job, plain, "untraced")
    traced = run_worker(dict(job, trace=True))
    describe(job, traced, "traced")
    layers = dict(traced["layers"], **{"trace.overhead_s": traced["timed_s"] - plain["timed_s"]})
    return dict(totals([plain, traced]), metrics={k: {"value": layers.get(k, 0), "unit": u}
                                                  for k, u in PER_LAYER.items()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one tiny cell, one round")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "superdensity" / "__init__.py").is_file():
        log(f"no superdensity sources under {ROOT / 'src'}; run from a source checkout")
        return 2
    job = make_job(args.workload, args.seed, smoke=args.smoke)
    result = trace(job) if args.trace else measure(job, args.seconds, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference figure, not a workload: the full ``superdensity tables --n 0..2``
run (all 32 transcribed cells with their gates), timed in this fresh
interpreter, optionally under the tracer.

    python3 perfbench/reference.py            # untraced wall time
    python3 perfbench/reference.py --trace    # traced, with per-layer totals

Prints one JSON line.  The tables go to perfbench/out/reference_tables.json;
they must be byte-identical between the two modes.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    os.environ.pop("SUPERDENSITY_DEGREE_BOUND", None)
    sys.path.insert(0, str(ROOT / "src"))
    from superdensity import cli
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    suffix = "_traced" if args.trace else ""
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    rc = cli.main(["--output", str(out / f"reference_tables{suffix}.json"),
                   "tables", "--n", "0..2"])
    tables_s = time.perf_counter() - t0
    result = {"tables_s": tables_s, "exit": rc,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        summary = tracer.summary()
        result["layers"] = {k: v for k, v in sorted(summary.items())
                            if k.endswith((".calls", ".self_s")) and v}
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())

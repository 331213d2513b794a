"""One benchmark round, run by run.py in a fresh interpreter.

Reads a job (see workloads.make_job) as JSON on stdin and prints one JSON
result line on stdout.  A fresh process per round keeps every round cold:
``h1_cell`` caches whole cells and ``diffop``/``superpoly`` keep operator
caches, so a second round in one process would time cache hits.

Phases:

1. set-up: import and load the claims.  ``ready`` is the system-wide
   monotonic clock at its end, so that run.py can measure the set-up from
   before the interpreter started.
2. timed phase, untraced unless the job says ``trace``: every cell with its
   four gates, then, if the job has queries, one pass of questions over a
   field on the built cells.
3. checks, outside any timing.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GATES = ("coboundaries_are_cocycles", "lemma_aff", "stability_check",
         "specialization_check")


class Ops:
    """Calls into the program, counted; an exception fails the operation
    instead of the round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # one failed operation, recorded
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}{args!r}: {exc!r}")
            return None

    def skip(self, count, why):
        self.attempted += count
        self.failed += count
        self.errors.append(why)


def build_cells(job, coh, ops):
    """h1_cell and the four gates for every cell of the job:
    ({(n, 2*shift): cell}, {(n, 2*shift): {gate: bool}}, cells_s, gates_s)."""
    clock = time.perf_counter
    cells, gates, cells_s, gates_s = {}, {}, 0.0, 0.0
    for c in job["cells"]:
        key = (c["n"], c["twoshift"])
        t0 = clock()
        cell = ops.call(coh.h1_cell, *key)
        cells_s += clock() - t0
        if cell is None:
            ops.skip(len(GATES), f"gates of {key} skipped")
            continue
        cells[key] = cell
        got = {}
        t0 = clock()
        for g in GATES:
            got[g] = (ops.call(lambda c: c.lemma_aff_ok, cell) if g == "lemma_aff"
                      else ops.call(getattr(coh, g), cell))
        gates_s += clock() - t0
        gates[key] = got
    return cells, gates, cells_s, gates_s


def off_locus(cell, values, count, weight_key):
    """The first `count` values that are not candidate roots of the cell."""
    roots = {weight_key(r) for r in list(cell.rejected) + [w for w, _ in cell.resonances]}
    out = [v for v in values if weight_key(v) not in roots][:count]
    if len(out) < count:
        raise ValueError(f"too few off-locus draws for n={cell.n} 2*shift={cell.twoshift}")
    return out


def plan_queries(job, claims, cells, alg, ck):
    """(h1_at queries as (cell, value, expected dim H^1), invariance shifts,
    printed claims) for the queried cells that were built."""
    q = job["queries"]
    h1q = []
    for c in job["cells"]:
        key = (c["n"], c["twoshift"])
        cell = cells.get(key)
        if cell is None or not c["queried"]:
            continue
        generic = ck.paper_cell(claims, *key)["generic"]
        specials = ck.paper_specials(claims, *key, alg)
        weights = {k: (w, d) for k, (w, d) in specials.items()}
        for r in list(cell.rejected) + [w for w, _ in cell.resonances]:
            weights.setdefault(ck.weight_key(r), (r, generic))
        for _, (w, d) in sorted(weights.items(), key=lambda kv: repr(kv[0])):
            h1q.append((cell, w, d))
        rats = off_locus(cell, [Fraction(v) for v in c["rationals"]],
                         q["rationals_per_cell"], ck.weight_key)
        quads = off_locus(cell, [alg.from_json(q) for q in c["quadratics"]],
                          q["quadratics_per_cell"], ck.weight_key)
        h1q.extend((cell, v, generic) for v in rats + quads)
    queried = {(c["n"], c["twoshift"]) for c in job["cells"] if c["queried"]}
    printed = [cl for cl in claims["cocycles"]
               if (cl["n"], cl["twoshift"]) in queried and (cl["n"], cl["twoshift"]) in cells]
    return h1q, [tuple(x) for x in q["invariance"]], printed


def query_pass(job, plan, coh, reports, claims, ops):
    h1q, invariance, printed = plan
    return {
        "h1_at": [ops.call(cell.h1_at, v) for cell, v, _ in h1q],
        "invariance": [getattr(ops.call(coh.solve_invariance_bi, n, t), "dimension", None)
                       for n, t in invariance],
        "lni": ops.call(reports.lni_crosscheck, job["queries"]["lni_max_k"]),
        "claims": [ops.call(reports.verify_claim, cl, claims) for cl in printed],
    }


def check_cells(checks, ck, claims, job, cells, gates, alg):
    for c in job["cells"]:
        key = (c["n"], c["twoshift"])
        cell = cells.get(key)
        if cell is None:
            continue
        ck.check_table(checks, claims, cell, alg)
        ck.check_quadratic_roots(checks, claims, cell)
        for g, ok in gates[key].items():
            checks.expect(ok is True, f"{key}: gate {g} is {ok}")
        value = off_locus(cell, [Fraction(v) for v in c["rationals"]], 1, ck.weight_key)[0]
        dz, _, h1 = cell.h1_at(value)
        generic = ck.paper_cell(claims, *key)["generic"]
        checks.expect(h1 == generic, f"{key}: dim H^1 at {value} is {h1}, paper {generic}")
        want = ck.sympy_dim_z(cell, value)
        checks.expect(dz == want, f"{key}: dim Z at {value} is {dz}, SymPy gives {want}")


def check_queries(checks, ck, job, plan, res):
    h1q, invariance, printed = plan
    for (cell, v, want), got in zip(h1q, res["h1_at"]):
        if got is not None:
            checks.expect(got[2] == want, f"n={cell.n} 2*shift={cell.twoshift}: "
                          f"dim H^1 at {v!r} is {got[2]}, paper {want}")
    for (n, t), dim in zip(invariance, res["invariance"]):
        if dim is not None:
            want = ck.invariant_dimension(n, t)
            checks.expect(dim == want, f"invariant operators n={n} 2k={t}: {dim}, want {want}")
    if res["lni"] is not None:
        ck.check_lni(checks, res["lni"], job["queries"]["lni_max_k"])
    for cl, results in zip(printed, res["claims"]):
        if results is not None:
            checks.expect(all(r.status == "confirmed" for r in results),
                          f"printed cocycle {cl['id']} not confirmed")


def layer_metrics(summary, timed_cells):
    out = dict(summary)
    rows = sum(len(c.z_rows) for c in timed_cells)
    confirmed = sum(len(c.resonances) for c in timed_cells)
    rejected = sum(len(c.rejected) for c in timed_cells)
    out["cohomology.z_rows"] = rows
    out["cohomology.resonance.candidates"] = confirmed + rejected
    out["cohomology.resonance.confirmed"] = confirmed
    out["cohomology.resonance.rejected"] = rejected
    out["cohomology.resonance.useful_ratio"] = (confirmed / (confirmed + rejected)
                                                if confirmed + rejected else 0.0)
    return out


def main():
    job = json.loads(sys.stdin.read())
    os.environ.pop("SUPERDENSITY_DEGREE_BOUND", None)
    sys.path.insert(0, str(ROOT / "src"))
    from superdensity import cohomology as coh, reports
    from superdensity.scalars import AlgebraicScalar as alg
    claims = reports.load_claims()
    import checks as ck
    from tracer import Tracer
    if job.get("setup_only"):
        print(json.dumps({"ready": time.monotonic()}))
        return

    ops = Ops()
    result = {"degree_bounds": {f"{c['n']},{c['twoshift']}": coh.default_degree_bound(c["twoshift"])
                                for c in job["cells"]},
              "ready": time.monotonic()}
    tracer = Tracer() if job.get("trace") else None
    if tracer:
        tracer.install()
    clock = time.perf_counter
    t0 = clock()
    cells, gates, cells_s, gates_s = build_cells(job, coh, ops)
    timed_s = clock() - t0
    answers = None
    if job.get("queries"):
        plan = plan_queries(job, claims, cells, alg, ck)
        t0 = clock()
        answers = query_pass(job, plan, coh, reports, claims, ops)
        timed_s += clock() - t0
    if tracer:
        tracer.uninstall()
    result.update(cells_s=cells_s, gates_s=gates_s, timed_s=timed_s, timed_ops=ops.attempted,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        result["layers"] = layer_metrics(tracer.summary(), cells.values())
        tracer.write(HERE / "out" / f"trace_{job['workload']}")

    checks = ck.Checks()
    check_cells(checks, ck, claims, job, cells, gates, alg)
    if answers is not None:
        check_queries(checks, ck, job, plan, answers)
    result.update(attempted=ops.attempted + checks.attempted, failed=ops.failed,
                  errors=ops.errors, check_failures=checks.failures)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""What each workload computes, the seeded inputs it draws, and the
metric names it reports.

Cells are (n, 2*shift) pairs.  The seed only draws weights: the rational
lambda of each cell's checks and the rational and quadratic-irrational
lambda of the field queries.  Workers receive the drawn values, never the
seed.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

TABLES_N01 = tuple([(0, s) for s in range(0, 15, 2)] + [(1, s) for s in range(0, 11)])
TABLES_N2 = tuple((2, s) for s in range(0, 4))
# after the cells, one pass of questions over a field: h1_at on every cell
# with a resonance or a printed cocycle, and on n=1 at 2*shift=10, whose
# candidates over Q(sqrt(41)) are rejected
QUERIES = {
    "cells": tuple([(0, s) for s in (2, 4, 6, 8, 10, 12)]
                   + [(1, s) for s in (1, 3, 4, 5, 6, 8, 10)]),
    # criterion 3 of the acceptance suite: (n, 2k)
    "invariance": tuple([(0, t) for t in range(0, 15, 2)] + [(1, t) for t in range(14)]
                        + [(2, t) for t in range(13)]),
    "lni_max_k": 6,
    "rationals_per_cell": 2,
    "quadratics_per_cell": 1,
}

WORKLOADS = {
    "tables_n01": {"cells": TABLES_N01, "queries": QUERIES},
    "tables_n2": {"cells": TABLES_N2},
}

# one tiny cell per workload, for the smoke test
SMOKE = {
    "tables_n01": {"cells": ((0, 2),),
                   "queries": {"cells": ((0, 2),), "invariance": ((0, 2), (1, 1)),
                               "lni_max_k": 1, "rationals_per_cell": 1,
                               "quadratics_per_cell": 1}},
    "tables_n2": {"cells": ((2, 0),)},
}

END_TO_END = {
    "setup_s": "s",
    "cells_s": "s",
    "gates_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cohomology.assemble.self_s": "s",
    "cohomology.assemble.rows": "count",
    "cohomology.assemble.pairs": "count",
    "cohomology.z_rows": "count",
    "cohomology.h1_cell.s": "s",
    "cohomology.coboundary_vectors.s": "s",
    "cohomology.stability_check.s": "s",
    "cohomology.specialization_check.s": "s",
    "cohomology.coboundaries_are_cocycles.s": "s",
    "cohomology.resonance.candidates": "count",
    "cohomology.resonance.confirmed": "count",
    "cohomology.resonance.rejected": "count",
    "cohomology.resonance.useful_ratio": "ratio",
    "cohomology.h1_at.s": "s",
    "param_linalg.generic_nullspace.calls": "count",
    "param_linalg.generic_nullspace.self_s": "s",
    "param_linalg.generic_nullspace.rows_in": "count",
    "param_linalg.generic_nullspace.rank": "count",
    "param_linalg.field_nullspace.calls": "count",
    "param_linalg.field_nullspace.self_s": "s",
    "param_linalg.field_nullspace.rows_in": "count",
    "param_linalg.specialize_rows.self_s": "s",
    "param_linalg.specialize_rows.rows": "count",
    "param_linalg.field_rank.calls": "count",
    "param_linalg.field_rank.self_s": "s",
    "param_linalg.candidate_roots.roots": "count",
    "diffop.compose_lin.calls": "count",
    "diffop.compose_lin.self_s": "s",
    "diffop.bi_slot1_partial.calls": "count",
    "diffop.bi_slot1_partial.self_s": "s",
    "diffop.act_on_bi.calls": "count",
    "diffop.act_on_bi.self_s": "s",
    "diffop.lift_hamiltonian.calls": "count",
    "diffop.coboundary_of_lin.calls": "count",
    "contact.contact_bracket.calls": "count",
    "contact.contact_bracket.self_s": "s",
    "scalars.ParamPoly.mul.calls": "count",
    "scalars.poly_gcd.calls": "count",
    "scalars.poly_gcd.self_s": "s",
    "scalars.AlgebraicScalar.mul.calls": "count",
    "scalars.AlgebraicScalar.inverse.calls": "count",
    "scalars.irreducible_factors.calls": "count",
    "superpoly.SuperPoly.mul.calls": "count",
    "reports.verify_claim.calls": "count",
    "reports.verify_claim.self_s": "s",
    "trace.overhead_s": "s",
}


def _rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(10, 60), rng.randint(2, 12))


def _quadratic(rng):
    """Minimal polynomial l^2 + c1 l + c0, irreducible with real roots,
    and a branch; coefficients as small as the paper's resonances."""
    while True:
        c1 = Fraction(rng.randint(-9, 9), 2)
        c0 = Fraction(rng.randint(-12, 12), 4)
        disc = c1 * c1 - 4 * c0
        rad = disc.numerator * disc.denominator
        if disc > 0 and math.isqrt(rad) ** 2 != rad:
            return {"minpoly": [str(c0), str(c1), "1"], "branch": rng.randint(0, 1)}


def make_job(workload: str, seed: int, smoke: bool = False) -> dict:
    """The worker's input: cells and seeded weights, all as JSON.  Each
    cell gets spare draws so that the worker can skip any that lands on
    the cell's candidate locus."""
    spec = (SMOKE if smoke else WORKLOADS)[workload]
    queries = spec.get("queries")
    rng = random.Random(f"{workload}/{seed}")
    cells = []
    for n, s in spec["cells"]:
        queried = queries is not None and (n, s) in queries["cells"]
        cell = {"n": n, "twoshift": s, "queried": queried,
                "rationals": [str(_rational(rng)) for _ in
                              range((queries["rationals_per_cell"] if queried else 1) + 3)]}
        if queried:
            cell["quadratics"] = [_quadratic(rng)
                                  for _ in range(queries["quadratics_per_cell"] + 2)]
        cells.append(cell)
    job = {"workload": workload, "cells": cells}
    if queries:
        job["queries"] = {"invariance": [list(c) for c in queries["invariance"]],
                          "lni_max_k": queries["lni_max_k"],
                          "rationals_per_cell": queries["rationals_per_cell"],
                          "quadratics_per_cell": queries["quadratics_per_cell"]}
    return job

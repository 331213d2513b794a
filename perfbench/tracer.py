"""Out-of-program tracing for the benchmark.

The tracer replaces public functions and methods of the superdensity
modules with thin wrappers.  A function is re-bound in every loaded
superdensity module that holds it, because modules bind names at import
(``cohomology`` calls its own ``compose_lin``, not ``diffop.compose_lin``).

Span wrappers record (name, start, end, parent) into flat arrays kept in
memory; counter wrappers, used for the scalar dunder methods that run
millions of times, only bump a counter and add no span.  Either kind may
add result-derived counts (rows in, rows out, roots found).

Self time of a span is its duration minus the time covered by its child
spans.  Calls are strictly nested on one thread, so the children of a span
are disjoint and their durations simply add up.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute path, metric prefix, extra counts from (args, result));
# a counter without a prefix keeps only its extra counts
SPANS = [
    ("cohomology", "h1_cell", "cohomology.h1_cell", None),
    ("cohomology", "coboundary_vectors", "cohomology.coboundary_vectors", None),
    ("cohomology", "stability_check", "cohomology.stability_check", None),
    ("cohomology", "specialization_check", "cohomology.specialization_check", None),
    ("cohomology", "coboundaries_are_cocycles", "cohomology.coboundaries_are_cocycles", None),
    ("cohomology", "CocycleAssembler.rows", "cohomology.assemble",
     lambda a, r: {"cohomology.assemble.rows": len(r)}),
    ("cohomology", "H1Cell.h1_at", "cohomology.h1_at", None),
    ("param_linalg", "generic_nullspace", "param_linalg.generic_nullspace",
     lambda a, r: {"param_linalg.generic_nullspace.rows_in": len(a[0].rows),
                   "param_linalg.generic_nullspace.rank":
                       a[0].ncols - r.generic_dimension}),
    ("param_linalg", "field_nullspace", "param_linalg.field_nullspace",
     lambda a, r: {"param_linalg.field_nullspace.rows_in": len(a[0])}),
    ("param_linalg", "specialize_rows", "param_linalg.specialize_rows",
     lambda a, r: {"param_linalg.specialize_rows.rows": len(r)}),
    ("param_linalg", "field_rank", "param_linalg.field_rank", None),
    ("param_linalg", "candidate_roots", "param_linalg.candidate_roots",
     lambda a, r: {"param_linalg.candidate_roots.roots": len(r)}),
    ("diffop", "compose_lin", "diffop.compose_lin", None),
    ("diffop", "bi_slot1_partial", "diffop.bi_slot1_partial", None),
    ("diffop", "act_on_bi", "diffop.act_on_bi", None),
    ("diffop", "lift_hamiltonian", "diffop.lift_hamiltonian", None),
    ("diffop", "coboundary_of_lin", "diffop.coboundary_of_lin", None),
    ("contact", "contact_bracket", "contact.contact_bracket", None),
    ("scalars", "poly_gcd", "scalars.poly_gcd", None),
    ("scalars", "irreducible_factors", "scalars.irreducible_factors", None),
    ("reports", "verify_claim", "reports.verify_claim", None),
]

COUNTERS = [
    ("scalars", "ParamPoly.__mul__", "scalars.ParamPoly.mul", None),
    ("scalars", "AlgebraicScalar.__mul__", "scalars.AlgebraicScalar.mul", None),
    ("scalars", "AlgebraicScalar.inverse", "scalars.AlgebraicScalar.inverse", None),
    ("superpoly", "SuperPoly.__mul__", "superpoly.SuperPoly.mul", None),
    ("cohomology", "CocycleAssembler.pairs", None,
     lambda a, r: {"cohomology.assemble.pairs": len(r)}),
]


PACKAGE = "superdensity"


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._open = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, prefix, extra):
        nid = len(self.names)
        self.names.append(prefix)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counters, clock = self._open, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if extra is not None:
                for k, v in extra(args, result).items():
                    counters[k] = counters.get(k, 0) + v
            return result

        return wrapper

    def _counter(self, fn, prefix, extra):
        counters = self.counters
        key = None if prefix is None else prefix + ".calls"
        if key is not None:
            counters[key] = 0

        def wrapper(*args, **kwargs):
            if key is not None:
                counters[key] += 1
            result = fn(*args, **kwargs)
            if extra is not None:
                for k, v in extra(args, result).items():
                    counters[k] = counters.get(k, 0) + v
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        for specs, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for modname, attr, prefix, extra in specs:
                home = mods[f"{PACKAGE}.{modname}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    wrapped = make(orig, prefix, extra)
                    # aliases such as __rmul__ = __mul__ share one counter
                    for k, v in list(cls.__dict__.items()):
                        if v is orig:
                            self._undo.append((cls, k, v))
                            setattr(cls, k, wrapped)
                else:
                    orig = getattr(home, attr)
                    wrapped = make(orig, prefix, extra)
                    for m in mods.values():
                        for k, v in list(vars(m).items()):
                            if v is orig:
                                self._undo.append((m, k, v))
                                setattr(m, k, wrapped)

    def uninstall(self):
        for owner, k, v in reversed(self._undo):
            setattr(owner, k, v)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds (outermost spans only, so a
        recursive call is not counted twice) and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = dict(self.counters)
        for prefix in self.names:
            out.setdefault(prefix + ".calls", 0)
            out.setdefault(prefix + ".s", 0.0)
            out.setdefault(prefix + ".self_s", 0.0)
        for i in range(n):
            name = self.names[self.name_of[i]]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += dur[i] - child[i]
            if not self._has_ancestor_named(i, self.name_of[i]):
                out[name + ".s"] += dur[i]
        return out

    def _has_ancestor_named(self, i, nid):
        p = self.parent[i]
        while p >= 0:
            if self.name_of[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write(self, directory: Path):
        """Spans as four raw little-endian arrays plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        for col in ("name_of", "parent", "start", "end"):
            with open(directory / f"{col}.bin", "wb") as fh:
                getattr(self, col).tofile(fh)
        meta = {"names": self.names, "spans": len(self.start),
                "columns": {"name_of": "i", "parent": "i", "start": "d", "end": "d"},
                "counters": self.counters}
        (directory / "index.json").write_text(json.dumps(meta, indent=1))

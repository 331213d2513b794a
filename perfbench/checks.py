"""Output checks, run after the timed phase.

Expected values come from the paper's transcription
(``data/paper_claims.json``) and from closed forms, never from solver
output.  The rank check specializes the cocycle rows here, term by term,
and ranks them with SymPy's ``DomainMatrix`` over QQ; SymPy is imported
only when that check runs, so the package itself keeps no dependency.
"""
from __future__ import annotations

from fractions import Fraction


class Checks:
    """Counts checks and collects the messages of those that fail."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def weight_key(v):
    """Hashable key of a rational or AlgebraicScalar weight."""
    if isinstance(v, Fraction):
        return ("rat", v)
    return ("alg", v.c0, v.c1, v.a, v.b)


def paper_weight(j, algebraic):
    """A weight of paper_claims.json: a rational string or a quadratic
    {"minpoly", "branch"} record."""
    if isinstance(j, dict):
        return algebraic.from_json(j)
    return Fraction(j)


def paper_cell(claims, n, twoshift):
    for c in claims["h1_tables"][str(n)]["cells"]:
        if c["twoshift"] == twoshift:
            return c
    raise KeyError(f"no transcribed cell n={n} 2*shift={twoshift}")


def paper_specials(claims, n, twoshift, algebraic):
    """{weight key: (weight, dim H^1 there)} of the transcribed cell."""
    out = {}
    for sp in paper_cell(claims, n, twoshift)["special"]:
        w = paper_weight(sp["lambda"], algebraic)
        out[weight_key(w)] = (w, sp["dim"])
    return out


def check_table(checks, claims, cell, algebraic):
    """Generic dim H^1 and every resonance (weight and dim) as printed."""
    want = paper_cell(claims, cell.n, cell.twoshift)
    tag = f"n={cell.n} 2*shift={cell.twoshift}"
    checks.expect(cell.dim_h1 == want["generic"],
                  f"{tag}: generic dim H^1 {cell.dim_h1}, paper {want['generic']}")
    got = {weight_key(w): d for w, d in cell.resonances}
    printed = {k: d for k, (_, d) in
               paper_specials(claims, cell.n, cell.twoshift, algebraic).items()}
    checks.expect(got == printed, f"{tag}: resonances {got}, paper {printed}")


def check_quadratic_roots(checks, claims, cell):
    """Each quadratic resonance is a root of the printed minimal
    polynomial, evaluated in SymPy from the root's radical form."""
    import sympy
    for w, _ in cell.resonances:
        if isinstance(w, Fraction):
            continue
        tag = f"n={cell.n} 2*shift={cell.twoshift} root {w!r}"
        text = claims["resonance_minpolys"].get(str(cell.n), {}).get(str(cell.twoshift))
        if text is None:
            checks.expect(False, f"{tag}: no printed minimal polynomial")
            continue
        lam = sympy.Symbol("l")
        poly = sympy.sympify(text.replace("^", "**"), locals={"l": lam})
        q = lambda x: sympy.Rational(x.numerator, x.denominator)
        t = (-q(w.c1) + sympy.sqrt(q(w.c1) ** 2 - 4 * q(w.c0))) / 2
        value = q(w.a) + q(w.b) * t
        checks.expect(sympy.expand(poly.subs(lam, value)) == 0,
                      f"{tag}: not a root of {text}")


def _eval(p, value: Fraction) -> Fraction:
    """A ParamPoly in the single variable l, evaluated term by term."""
    return sum((c * value ** k[0] for k, c in p.terms.items()), Fraction(0))


def sympy_dim_z(cell, value: Fraction) -> int:
    """dim Z at a rational lambda: columns minus the rank over QQ of the
    specialized cocycle system."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    rows = {}
    for row in cell.z_rows:
        r = {}
        for j, e in row.items():
            q = _eval(e, value)
            if q:
                r[j] = QQ(q.numerator, q.denominator)
        if r:
            rows[len(rows)] = r
    ncols = len(cell.ansatz.terms)
    if not rows:
        return ncols
    return ncols - DomainMatrix(rows, (len(rows), ncols), QQ).rank()


def invariant_dimension(n: int, twok: int) -> int:
    """Closed forms of the invariant bilinear operators: k+1 for n=0,
    2k+1 for n=1 (both on the 2k grid); for n=2, 0 at odd 2k, 1 at k=0
    and 6k otherwise."""
    if n == 0:
        return twok // 2 + 1
    if n == 1:
        return twok + 1
    if twok % 2:
        return 0
    return 1 if twok == 0 else 3 * twok


def linear_dimension(n: int, twos: int) -> int:
    """Invariant linear operators of shift twos/2: one for F -> F^(k) at
    integer shift and one for the eta-bar family at shift k + n/2; at n=2
    and integer shift >= 1 both families are invariant and distinct."""
    on_dk = twos % 2 == 0
    on_ebar = n >= 1 and twos >= n and (twos - n) % 2 == 0
    return int(on_dk) + int(on_ebar) if n == 2 and twos >= 2 else int(on_dk or on_ebar)


def check_lni(checks, out, max_k):
    """Every shift up to 2*max_k + n is covered, every computed dimension
    matches the theorem, and each n=2 overlap cell is logged."""
    covered = {(c["n"], c["twoshift"]) for c in out["cells"]}
    want_cells = {(n, t) for n in (0, 1, 2) for t in range(2 * max_k + n + 1)}
    checks.expect(covered == want_cells, "LNI cross-check skipped shifts")
    for c in out["cells"]:
        want = linear_dimension(c["n"], c["twoshift"])
        checks.expect(c["computed"] == want,
                      f"LNI n={c['n']} 2*shift={c['twoshift']}: {c['computed']}, want {want}")
    logged = {d.split(":")[0] for d in out["discrepancies"]}
    checks.expect(all(f"n=2 shift={k}" in logged for k in range(1, max_k + 1)),
                  "LNI overlap cells not logged")

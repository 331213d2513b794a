"""Exact linear algebra for the engine: three elimination kernels.

``FieldEchelon`` eliminates over an exact field (``Fraction`` or a
quadratic ``AlgebraicScalar``; any other entry raises ``ScalarError``).
It pivots on the smallest column of each reduced row and normalises the
pivot to 1, so its nullspace basis is the unique reduced-echelon one (free
coordinate 1, the other free coordinates 0).  It serves only field
systems: ``field_nullspace`` and ``field_rank`` (invariance systems, the
relative cochains R, which are rational, specialized Z systems,
coboundary ranks), ``field_solve`` (the operator fit of
``diffop.decompose_psi``), and the span tests of the report checks.

``_IntEchelon`` eliminates sparse int vectors fraction-free over Z
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968), keeping every pivot row primitive
and reduced: each pivot key is zero in every other pivot row, so a vector
is eliminated once per pivot key it holds, and a new pivot row clears its
key from the others.  It is the flat row filter of a ``GenericSystem``: a
row is kept only when its rational coefficients, keyed by (column, power
of lambda) and cleared to a primitive int vector, are not a
Q-combination of those of the rows kept before it.  A dropped row is that same combination of the
kept rows, so the kept rows cut out the same space over Q(lambda) and at
every specialized lambda.  Q-independence does not depend on how it is
decided, so the filter keeps the rows a field echelon would keep.

``_Echelon`` eliminates fraction-free over Q[lambda] (cf. Bareiss 1968).
It pivots on the entry of least degree and strips the polynomial content
of every row it reduces.  It serves ``GenericSystem`` (every kept row goes
into it), the coboundary echelon of an H^1 cell (the rank of B and its
rank-drop candidates are read off it, not off a nullspace; the generic
H^1 representatives are the Z vectors it accepts on top), and the generic
span tests of the reports.  The elimination is single-parameter:
``GenericSystem`` and the gcds it relies on raise ``ScalarError`` on a
matrix over more than one parameter.

``GenericSystem`` is one incremental system over Q(lambda), fed rows in
order: a flat filter that sees each signed flat vector once (a repeat is
± an earlier row), and an ``_Echelon``.  Its solution space can be read
after any row.  ``generic_nullspace`` is its one-shot use (the Z system
of a cell); the Lemma 5.1 bands of a cell feed one system band by band.

A one-parameter row comes in one of two forms: {col: ParamPoly}, or a
pencil row {col: (c, x)} of ints, meaning (c + x lambda)/2 (the cocycle
rows, which the cohomology layer assembles from int sums).
``GenericSystem`` reads either, in any mix: a pencil row's flat
vector is its primitive (c, x) ints, and only a row the flat filter keeps
is built as a ParamPoly row, so the result does not depend on the form.
``annihilates`` takes either form of row against ParamPoly vectors; for
pencil rows it clears each vector once to integer polynomial coefficients
and takes the dot products in ints.

Resonance candidates are the pivot polynomials plus every nonconstant
content factor removed while building a pivot row: a specialization can
only drop the rank where one of those vanishes.  The cohomology layer
confirms each candidate root by an exact rank over the residue field
(``field_rank`` on ``specialize_rows`` output).
"""
from __future__ import annotations

import math
from fractions import Fraction

from .scalars import (AlgebraicScalar, ParamPoly, ScalarError, irreducible_factors,
                      poly_gcd, quadratic_split, rational_roots, squarefree_part)


class ParamMatrix:
    """Sparse one-parameter matrix: rows are {col: ParamPoly} or pencil
    rows {col: (c, x)} of ints, meaning (c + x lambda)/2."""

    __slots__ = ("vars", "ncols", "rows")

    def __init__(self, vars: tuple, ncols: int, rows=None):
        self.vars = vars
        self.ncols = ncols
        self.rows = rows if rows is not None else []

    def add_row(self, row: dict):
        if row:
            self.rows.append(row)


class SolutionSpace:
    __slots__ = ("basis", "pivot_polynomials", "rows")

    def __init__(self, basis, pivot_polynomials, rows):
        self.basis = basis          # list of {col: ParamPoly}, cleared + normalized
        self.pivot_polynomials = pivot_polynomials
        # the kept input rows, normalized, in input order: their Q-span is
        # the Q-span of all input rows
        self.rows = rows

    @property
    def generic_dimension(self) -> int:
        return len(self.basis)      # one vector per free column


def _row_normalize(row: dict):
    """Divide by the rational content and fix the sign of the smallest
    column's leading coefficient.  Polynomial content is deliberately kept:
    a row lambda*v is a weaker constraint than v at lambda=0."""
    if not row:
        return row
    conts = [e.content() for e in row.values()]
    cont = Fraction(math.gcd(*(c.numerator for c in conts)),
                    math.lcm(*(c.denominator for c in conts)))
    if row[min(row)].leading_coeff() < 0:
        cont = -cont
    if cont == 1:
        return row
    inv = 1 / cont
    return {j: e.scale(inv) for j, e in row.items()}


def _dot(row: dict, vec: dict):
    """Sparse dot product; None when no column is shared."""
    acc = None
    for j, e in row.items():
        v = vec.get(j)
        if v:
            t = e * v
            acc = t if acc is None else acc + t
    return acc


def _is_pencil(row: dict) -> bool:
    """A pencil row {col: (c, x)} of ints, meaning (c + x lambda)/2 in each
    column, as against a row of ParamPoly entries; False for an empty row."""
    return bool(row) and type(next(iter(row.values()))) is tuple


def pencil_poly(c: int, x: int, vars: tuple) -> ParamPoly:
    """(c + x lambda) / 2 as a ParamPoly over the one parameter of vars."""
    terms = {}
    if c:
        terms[(0,)] = Fraction(c, 2)
    if x:
        terms[(1,)] = Fraction(x, 2)
    return ParamPoly(vars, terms)


def pencil_row_poly(row: dict, vars: tuple) -> dict:
    """A pencil row with ParamPoly entries."""
    return {j: pencil_poly(c, x, vars) for j, (c, x) in row.items()}


def _int_poly_vector(vec: dict) -> dict:
    """A vector of one-parameter ParamPoly entries times the lcm of their
    denominators: {col: [(power, int coefficient)]}."""
    den = math.lcm(*(c.denominator for e in vec.values() for c in e.terms.values()))
    return {j: [(k, c.numerator * (den // c.denominator)) for (k,), c in e.terms.items()]
            for j, e in vec.items() if e}


def _pencil_dot_is_zero(row: dict, ivec: dict) -> bool:
    """Whether sum_j (c_j + x_j lambda) v_j(lambda) vanishes, for a pencil
    row and a vector cleared by _int_poly_vector."""
    acc = {}
    for j, (c, x) in row.items():
        poly = ivec.get(j)
        if poly:
            for k, a in poly:
                if c:
                    acc[k] = acc.get(k, 0) + c * a
                if x:
                    acc[k + 1] = acc.get(k + 1, 0) + x * a
    return not any(acc.values())


def annihilates(rows, vectors) -> bool:
    """Every row has a zero dot product with every vector.  rows may be a
    one-pass iterable of ParamPoly rows and pencil rows; vectors is read
    once per ParamPoly row, and once in all when a pencil row comes, which
    needs one-parameter ParamPoly entries: each vector is cleared to
    integer polynomial coefficients and the dot products are taken in
    ints."""
    ivecs = None
    for row in rows:
        if _is_pencil(row):
            if ivecs is None:
                ivecs = [_int_poly_vector(vec) for vec in vectors]
            if not all(_pencil_dot_is_zero(row, ivec) for ivec in ivecs):
                return False
        elif any(_dot(row, vec) for vec in vectors):
            return False
    return True


# ---------------------------------------------------------------------------
# field kernel
# ---------------------------------------------------------------------------

_ZERO, _ONE = Fraction(0), Fraction(1)


class FieldEchelon:
    """Row echelon over an exact field, pivots normalised to 1.

    Rows are sparse dicts {col: Fraction or AlgebraicScalar}.  A reduced row
    pivots on its smallest column; earlier pivot rows are not cleared, so
    the echelon is built in one pass."""

    __slots__ = ("pivots",)

    def __init__(self, rows=()):
        self.pivots = []          # (col, row) in insertion order
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        """The row minus its component along the pivot rows; empty exactly
        when the row lies in their span."""
        r = dict(row)
        for col, prow in self.pivots:
            c = r.get(col)
            if not c:
                continue
            for j, e in prow.items():
                v = r.get(j)
                v = -(e * c) if v is None else v - e * c
                if v:
                    r[j] = v
                elif j in r:
                    del r[j]
        return r

    def insert(self, row: dict) -> bool:
        """Add a row; False exactly when it lies in the span already."""
        r = self.reduce(row)
        if not r:
            return False
        col = min(r)
        inv = _field_inv(r[col])
        self.pivots.append((col, {j: v * inv for j, v in r.items()}))
        return True

    def nullspace(self, ncols: int) -> list:
        """One vector per free column f: coordinate 1 at f, 0 at the other
        free columns, solved by back substitution from the last pivot."""
        rows = dict(self.pivots)
        order = sorted(rows, reverse=True)
        basis = []
        for f in range(ncols):
            if f in rows:
                continue
            vec = {f: _ONE}
            for col in order:
                acc = _dot(rows[col], vec)
                if acc:
                    vec[col] = -acc
            basis.append(vec)
        return basis


def _field_inv(x):
    if isinstance(x, Fraction):
        return 1 / x
    if isinstance(x, AlgebraicScalar):
        return x.inverse()
    raise ScalarError(f"FieldEchelon needs field entries (Fraction or AlgebraicScalar), "
                      f"got {type(x).__name__} {x!r}")


def field_nullspace(rows, ncols: int):
    """Nullspace over an exact field (Fraction or AlgebraicScalar):
    (dimension, basis as dicts)."""
    basis = FieldEchelon(rows).nullspace(ncols)
    return len(basis), basis


def field_rank(rows) -> int:
    """Rank over an exact field."""
    return FieldEchelon(rows).rank


def field_solve(rows, rhs, ncols: int) -> list:
    """The solution of A x = b over an exact field with free coordinates 0:
    the nullspace vector of [A | -b] at the rhs column, which is free
    exactly when the system is consistent (else ScalarError)."""
    ech = FieldEchelon({**row, ncols: -b} if b else row for row, b in zip(rows, rhs))
    if ncols in dict(ech.pivots):
        raise ScalarError("inconsistent linear system")
    vec = ech.nullspace(ncols + 1)[-1]
    return [vec.get(j, _ZERO) for j in range(ncols)]


# ---------------------------------------------------------------------------
# fraction-free integer kernel: the flat row filter
# ---------------------------------------------------------------------------

def _primitive(vec: dict) -> dict:
    """An int vector divided by the gcd of its entries, first entry positive."""
    g = math.gcd(*vec.values())
    if vec and next(iter(vec.values())) < 0:
        g = -g
    return vec if g == 1 else {k: v // g for k, v in vec.items()}


def _flat_ints(row: dict) -> dict:
    """The rational coefficients of a row, keyed by (column, power of
    lambda), cleared of denominators to a primitive int vector, signed as
    _primitive signs it.  A pencil row's are its (c, x) ints."""
    if _is_pencil(row):
        return _primitive({(j, k): v for j, (c, x) in row.items()
                           for k, v in (((0,), c), ((1,), x)) if v})
    flat = {(j, k): c for j, e in row.items() for k, c in e.terms.items()}
    den = math.lcm(*(c.denominator for c in flat.values()))
    return _primitive({key: c.numerator * (den // c.denominator)
                       for key, c in flat.items()})


class _IntEchelon:
    """Reduced fraction-free row echelon over Z (cf. Bareiss 1968) of sparse
    int vectors.  A vector pivots on its smallest key, every pivot row is
    kept primitive, and each pivot key is zero in every other pivot row.
    So a vector r is reduced once per pivot key it holds, by that pivot
    row: with entries p at the pivot and c in r, r <- (p/g) r - (c/g) prow,
    g = gcd(p, c), which brings in no other pivot key.  A new pivot row
    clears its key from the other pivot rows the same way."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}          # pivot key -> primitive row

    @staticmethod
    def _eliminate(r: dict, key, prow: dict) -> dict:
        """r with its entry at key cleared by prow, whose pivot key it is."""
        p, c = prow[key], r[key]
        g = math.gcd(p, c)
        p, c = p // g, c // g
        r = {k: v * p for k, v in r.items()} if p != 1 else dict(r)
        for k, v in prow.items():
            x = r.get(k, 0) - c * v
            if x:
                r[k] = x
            else:
                del r[k]
        return r

    def insert(self, vec: dict) -> bool:
        """Add a vector; False exactly when it is a Q-combination of the
        vectors kept before it."""
        pivots = self.pivots
        r = vec
        for key in [k for k in vec if k in pivots]:
            r = self._eliminate(r, key, pivots[key])
        if not r:
            return False
        r = _primitive(r)
        key = min(r)
        for pkey, prow in pivots.items():
            if key in prow:
                pivots[pkey] = _primitive(self._eliminate(prow, key, r))
        pivots[key] = r
        return True


# ---------------------------------------------------------------------------
# fraction-free ParamPoly kernel
# ---------------------------------------------------------------------------

def _common_factor(row: dict):
    """Monic gcd of the entries if it is nonconstant, else None."""
    g = None
    for e in row.values():
        g = e if g is None else poly_gcd(g, e)
        if g.total_degree() == 0:
            return None
    return g


class _Echelon:
    """Incremental fraction-free echelon over ParamPoly rows, kept
    Jordan-reduced (each pivot column is zero in every other pivot row)."""

    def __init__(self, vars):
        self.vars = vars
        self.pivots = []          # list of (col, row dict), sorted by col
        self.pivot_polys = []     # pivot entries at insertion time
        self.content_factors = [] # nonconstant contents removed during reduction

    @staticmethod
    def _cross(a: dict, p, b: dict, c) -> dict:
        """p*a - c*b for sparse ParamPoly rows, zero entries dropped."""
        new = {j: e * p for j, e in a.items()}
        for j, e in b.items():
            v = new.get(j)
            t = e * c
            v = -t if v is None else v - t
            if v:
                new[j] = v
            elif j in new:
                del new[j]
        return new

    def reduce(self, row: dict) -> dict:
        row = dict(row)
        for col, prow in self.pivots:
            c = row.get(col)
            if c:
                row = self._strip_content(self._cross(row, prow[col], prow, c))
        return row

    def _strip_content(self, row):
        if not row:
            return row
        row = _row_normalize(row)
        # remove a common polynomial factor, remembering it as a candidate
        g = _common_factor(row)
        if g is not None:
            self.content_factors.append(g)
            row = _row_normalize({j: e.divexact(g) for j, e in row.items()})
        return row

    def insert(self, row: dict) -> bool:
        """Add a row; False exactly when it lies in the span over Q(params).
        Such a row adds no pivot row, so the contents its reduction removed
        are not kept."""
        n_factors = len(self.content_factors)
        row = self.reduce(row)
        if not row:
            del self.content_factors[n_factors:]
            return False
        col = min(row, key=lambda j: (row[j].total_degree(), j))
        p = row[col]
        for i, (pcol, prow) in enumerate(self.pivots):
            c = prow.get(col)
            if c:
                self.pivots[i] = (pcol, self._strip_content(self._cross(prow, p, row, c)))
        self.pivots.append((col, row))
        self.pivot_polys.append(p)
        self.pivots.sort(key=lambda cr: cr[0])
        return True

    def nullspace(self, ncols: int):
        """Back substitution on the Jordan-reduced echelon; vectors cleared
        to primitive ParamPoly entries, first nonzero coordinate positive.
        Pivot rows touch only their own pivot column plus free columns, so
        each free column yields one vector directly."""
        rows = dict(self.pivots)
        one = ParamPoly.const(self.vars, 1)
        basis = []
        for f in range(ncols):
            if f in rows:
                continue
            vec = {f: one}
            denom = one
            for col, prow in rows.items():
                e = prow.get(f)
                if e:
                    # p * v_col + e * v_f = 0 with v_f carried at `denom`
                    p = prow[col]
                    g = poly_gcd(p, e)
                    if g.total_degree() > 0:
                        p2, e2 = p.divexact(g), e.divexact(g)
                    else:
                        p2, e2 = p, e
                    if not (p2.is_constant()):
                        vec = {j: v * p2 for j, v in vec.items()}
                        denom = denom * p2
                        vec[col] = -e2 * denom.divexact(p2)
                    else:
                        inv = 1 / p2.constant_value()
                        vec[col] = (-e2).scale(inv) * denom
            g = _common_factor(vec)
            if g is not None:
                vec = {j: v.divexact(g) for j, v in vec.items()}
            basis.append(_row_normalize({j: v for j, v in vec.items() if v}))
        return basis


class GenericSystem:
    """A system over the fraction field Q(lambda) of one parameter, fed its
    rows in order, ParamPoly rows or pencil rows in any mix.

    A row is kept when its flat vector (the rational coefficients keyed by
    (column, power of lambda), cleared to primitive ints) is not a
    Q-combination of the kept rows' flat vectors, decided fraction-free by
    _IntEchelon; a dropped row is that combination of the kept rows, so
    every row fed in annihilates the solution basis, identically in
    lambda.  A flat vector fed before is skipped, as the filter would drop
    it.  Only a kept row is built over ParamPoly (a pencil row), normalized
    and inserted into the _Echelon; the kept rows, the pivots and the
    basis do not depend on the form a row came in.

    Rows fed after a solution was read extend the same elimination.  The
    flat filter and the echelon hold exactly the state that feeding the
    kept rows, then the new rows, to a fresh system reaches: a kept row
    is kept again there, and the echelon sees the same rows in the same
    order.  So the Lemma 5.1 bands of a cell run as one system."""

    __slots__ = ("vars", "ncols", "rows", "_seen", "_flat", "_ech")

    def __init__(self, vars: tuple, ncols: int):
        if len(vars) != 1:
            raise ScalarError(f"generic_nullspace needs a single parameter (have {vars})")
        self.vars = vars
        self.ncols = ncols
        self.rows = []            # the kept rows, normalized, in input order
        self._seen = set()        # the flat vectors fed so far
        self._flat = _IntEchelon()
        self._ech = _Echelon(vars)

    def extend(self, rows):
        """Feed rows, in order."""
        for row in rows:
            vec = _flat_ints(row)
            key = tuple(vec.items())
            if key not in self._seen and self._flat.insert(vec):
                if _is_pencil(row):
                    row = pencil_row_poly(row, self.vars)
                row = _row_normalize(row)
                self.rows.append(row)
                self._ech.insert(row)
            self._seen.add(key)

    def solution(self) -> SolutionSpace:
        """The solution space of the rows fed so far."""
        ech = self._ech
        return SolutionSpace(ech.nullspace(self.ncols), ech.pivot_polys + ech.content_factors,
                             list(self.rows))


def generic_nullspace(m: ParamMatrix) -> SolutionSpace:
    """Nullspace over the fraction field Q(lambda) of a one-parameter matrix
    whose rows are ParamPoly rows or pencil rows, in any mix: one
    GenericSystem fed every row."""
    system = GenericSystem(m.vars, m.ncols)
    system.extend(m.rows)
    return system.solution()


def resonance_candidates(pivot_polynomials) -> ParamPoly:
    """Square-free product of the nonconstant factors of the pivot
    polynomials, a polynomial in lambda ('l')."""
    prod = ParamPoly.const(("l",), 1)
    for p in pivot_polynomials:
        sf = squarefree_part(p)
        if sf.total_degree() == 0:
            continue
        g = poly_gcd(prod, sf)
        extra = sf.divexact(g) if g.total_degree() > 0 else sf
        if extra.total_degree() > 0:
            prod = prod * extra
    return squarefree_part(prod)


def candidate_roots(locus: ParamPoly):
    """Exact roots of the candidate locus: rationals plus quadratic pairs.
    Degree >= 3 irreducible factors raise (outside the supported range)."""
    if locus.total_degree() == 0:
        return []
    roots = []
    for f in irreducible_factors(locus):
        if f.total_degree() == 1:
            roots.extend(sorted(rational_roots(f)))
        else:
            r1, r2 = quadratic_split(f)
            roots.extend([r1, r2])
    return roots


def specialize_row(row: dict, point: dict) -> dict:
    """Evaluate the ParamPoly entries of a sparse dict at a point
    {var: rational or algebraic value}, dropping the entries that vanish."""
    return {j: v for j, e in row.items() if (v := e.evaluate(point))}


def specialize_rows(rows, var: str, value) -> list:
    """specialize_row over a list of rows (empty rows kept)."""
    point = {var: value}
    return [specialize_row(row, point) for row in rows]

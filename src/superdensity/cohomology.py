"""The classification / cohomology pipeline.

Weight-homogeneous operator ansatze, invariance under aff(n|1), relative
1-cochains (vanishing on aff + invariance), the cocycle condition, the
coboundary span of invariant 0-cochains, and H^1 reports with exact
resonance analysis.

The vanishing and invariance rows are rational, so one echelon over Q gives
V = ker(vanishing) and the relative cochains R, the same at every lambda.
Every cocycle sweep reads only the support of the space it refines: Z is
solved inside R on supp(R), Lemma 5.1 is checked inside V on supp(V).

The cocycle rows are pencil rows {col: (c, x)} of ints, meaning
(c + x lambda)/2: CocycleAssembler.rows builds them, repeats included,
from int sums.  They stay ints through the flat filter of a GenericSystem,
which skips repeats and builds a ParamPoly row only for the rows it keeps,
and through the D -> D+2 gate's dot products with the Z basis.  The
sweep does work per term it keeps: the module action is read off one
action table per hamiltonian and word shape (cached in diffop, shared by
every cell and gate), and 2 {F, G} is built once per monomial pair
(_doubled_bracket) and T(m, .) once per ansatz term and monomial (kept
per assembler, since its keys hold the cell's ansatz terms).

A pair with F or G in aff gives 0 on every R-unit column, a column that
no vanishing or invariance row touches (_r_unit): the unit vector T of
such a column lies in R, so T(X_a) = 0 and X_a . T = 0 for an aff
generator a, and delta T(X_a, X_G) = (X_a . T)(X_G) +- X_G . T(X_a) = 0
(delta maps relative cochains to relative cochains; Fuks, Cohomology of
Infinite-Dimensional Lie Algebras, 1986, ch. 1).  So the Z sweep, the
Lemma 5.1 bands and the D+2 gate leave those columns out of an aff
pair, and the pair out when no column is left; the rows stay the same.
For n <= 1 all of supp(R) is R-unit.

Conventions: the adjoint module of K(n) is F^n_{-1}, so 1-cochains are
bilinear operators with tau = -1 in the first slot; a cochain of shift
mu - lambda has bilinear weight shift k = mu - lambda + 1.  Classification
runs keep (tau, lambda) symbolic; cohomology runs keep lambda symbolic
over the single parameter 'l'.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from fractions import Fraction
from functools import cache
from typing import List

from .scalars import ParamPoly, ScalarError, brief_rat_text, read_number
from .superpoly import SuperPoly, mask_weight
from .contact import SubalgebraSpec, contact_bracket, generators
from .diffop import (BiDiffOp, LinDiffOp, _add_pair, bi_act_sums, bi_slot1_partial,
                     coboundary_of_lin, lin_act_sums)
from .param_linalg import (FieldEchelon, GenericSystem, ParamMatrix, SolutionSpace,
                           _Echelon, annihilates, candidate_roots, field_nullspace,
                           field_rank, generic_nullspace, pencil_poly,
                           resonance_candidates, specialize_rows)

COHO_VARS = ("l",)

# the largest 2k of an ansatz: 2k = 16 is needed for the mu - lambda = 7
# column of the n = 0 table
MAX_TWOK = 16
DEFAULT_DEGREE_MARGIN = 4   # D = 2k + 4 unless overridden
# the default D is at most 20 (2k <= MAX_TWOK).  `h1 --n 2 --shift 4 --no-gates`
# takes 4 s at its default D = 20, 6 s at D = 24 and 12 s at D = 32 on two
# cores, and the time keeps growing with D
MAX_DEGREE_BOUND = 32
SUPPORTED_N = (0, 1, 2)
SPECIALIZATION_POINTS = 5   # random lambda values per specialization_check
# the largest |mu - lambda| of solve_invariance_lin: the package asks for
# 2*shift -2..14 (coboundaries) and up to 2 max_k + n (lni_crosscheck), and
# a cold push_through cache recurses once per dx, so shift 500 would
# exceed Python's recursion limit.  diffop.apply_word recurses the same
# way; the CLI applies only ansatz words (k1 + k2 <= 8, since 2k <= 16)
# and the words of the printed claims (dx^7 at most)
MAX_LIN_SHIFT = 64


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ansatz:
    """All x-independent bilinear words of a given half-integer shift k:
    keys (0, S, k1, e1, k2, e2) with 2(k1+k2) + |e1| + |e2| - |S| = 2k."""
    n: int
    twok: int
    terms: tuple

    @property
    def parity(self) -> int:
        return self.twok & 1


def _check_n(n: int):
    if n not in SUPPORTED_N:
        raise ScalarError(f"n={n} outside the supported range 0..2")


def build_ansatz(n: int, twok: int) -> Ansatz:
    _check_n(n)
    if twok < 0 or twok > MAX_TWOK:
        raise ScalarError(f"shift 2k={brief_rat_text(twok)} outside the supported "
                          f"range 0..{MAX_TWOK}")
    out = []
    for s_mask in range(1 << n):
        ws = mask_weight(s_mask)
        for e1 in range(1 << n):
            w1 = mask_weight(e1)
            for e2 in range(1 << n):
                w2 = mask_weight(e2)
                rem = twok - (w1 + w2 - ws)
                if rem < 0 or rem & 1:
                    continue
                m = rem // 2
                for k1 in range(m + 1):
                    out.append((0, s_mask, k1, e1, m - k1, e2))
    out.sort()
    return Ansatz(n, twok, tuple(out))


def _lin_words(n: int, twos: int):
    """Linear-operator words (0, S, k, e) of shift s = twos/2."""
    _check_n(n)
    out = []
    for s_mask in range(1 << n):
        ws = mask_weight(s_mask)
        for e in range(1 << n):
            we = mask_weight(e)
            rem = twos - (we - ws)
            if rem < 0 or rem & 1:
                continue
            out.append((0, s_mask, rem // 2, e))
    out.sort()
    return tuple(out)


def coords_to_terms(vec: dict, words) -> dict:
    """Operator terms {word: coefficient} of a vector {column: coefficient}
    in the coordinates `words` (ansatz terms or linear words)."""
    return {words[c]: e for c, e in vec.items()}


def terms_to_coords(terms: dict, words):
    """Inverse of coords_to_terms, zero coefficients dropped; None when a
    term lies outside `words`."""
    index = {w: i for i, w in enumerate(words)}
    vec = {}
    for key, coeff in terms.items():
        ci = index.get(key)
        if ci is None:
            return None
        if coeff:
            vec[ci] = coeff
    return vec


# ---------------------------------------------------------------------------
# invariance systems (weight-independent over Q)
# ---------------------------------------------------------------------------

@dataclass
class InvariantFamily:
    ansatz: Ansatz
    basis: list            # list of {col: Fraction}
    dimension: int

    def members(self, tau=None, lam=None, mu=None) -> List[BiDiffOp]:
        return [BiDiffOp(self.ansatz.n, coords_to_terms(vec, self.ansatz.terms),
                         tau=tau, lam=lam, mu=mu) for vec in self.basis]


def _theta_generators(n: int):
    """The aff generators that actually constrain a weight-homogeneous
    x-free ansatz: theta_i and theta_i theta_j."""
    return [g for g in generators(SubalgebraSpec("aff", n))
            if next(iter(g.terms))[1] != 0]


def _assert_even_generators_trivial(n, columns, image):
    """X_1 and X_x must act by zero on every weight-homogeneous column
    (image(H, column) is a term map, empty exactly when the action is 0)."""
    for h in (SuperPoly.const(n, 1), SuperPoly.x(n)):
        for col in columns:
            if image(h, col):
                raise ScalarError(
                    f"weight-homogeneous ansatz fails {h.text()}-invariance: {col}")


def _generator_rows(hams, columns, image):
    """Rational rows keyed by (generator H, term t): entry ci of the row is
    the coefficient of t in the term map image(H, columns[ci])."""
    rows = {}
    for h in hams:
        name = h.text()
        for ci, col in enumerate(columns):
            for tkey, coeff in image(h, col).items():
                rows.setdefault((name, tkey), {})[ci] = coeff
    return list(rows.values())


def _bi_image(n: int, twok: int):
    """(H, ansatz term) -> X_H . term at mu = tau + lambda + k, (tau, lambda)
    symbolic, from the int sums of bi_act_sums: {term: (2 c0, c_tau,
    c_lambda)} for the coefficient c0 + c_tau tau + c_lambda lambda, zero
    coefficients dropped."""
    sums = _bi_sums(n)

    def image(h, key):
        out = {}
        for tkey, (c, cm, ct, cl) in sums(h, key).items():
            v = (c + twok * cm, cm + ct, cm + cl)
            if any(v):
                out[tkey] = v
        return out
    return image


def _bi_sums(n: int):
    """(H, ansatz term) -> the int sums of bi_act_sums."""
    return lambda h, key: bi_act_sums(h, BiDiffOp(n, {key: 1}))


def _lin_sums(n: int, twos: int):
    """(H, linear word) -> the int pairs of lin_act_sums at
    mu = lambda + twos/2, zero terms dropped."""
    return lambda h, key: lin_act_sums(h, LinDiffOp(n, {key: 1}), twos)


def _theta_rows(n: int, columns, sums):
    """The rows X_H . A = 0 of the theta generators H on the columns, read
    off the int sums sums(H, column) = {term: (c, *weighted)}: the
    coefficient c/2 of the weight-free part.  Their lifts carry no weight
    term, so the rows are rational at every weight; a weighted coefficient
    raises ScalarError."""
    def image(h, key):
        out = {}
        for tkey, (c, *weighted) in sums(h, key).items():
            if any(weighted):
                raise ScalarError(f"{h.text()} acts through the weights on {key}: "
                                  "the rows are not rational")
            out[tkey] = Fraction(c, 2)
        return out
    return _generator_rows(_theta_generators(n), columns, image)


def solve_invariance_bi(n: int, twok: int) -> InvariantFamily:
    """aff(n|1)-invariant bilinear operators of shift k, (tau, lambda)
    symbolic.  Only the theta generators constrain the ansatz; X_1 and X_x
    annihilate every column identically in (tau, lambda) at
    mu = tau + lambda + k (asserted), so the system is rational."""
    ansatz = build_ansatz(n, twok)
    _assert_even_generators_trivial(n, ansatz.terms, _bi_image(n, twok))
    rows = _theta_rows(n, ansatz.terms, _bi_sums(n))
    dim, basis = field_nullspace(rows, len(ansatz.terms))
    basis = [_normalize_qvec(v) for v in basis]
    return InvariantFamily(ansatz, basis, dim)


@dataclass
class LinearFamily:
    n: int
    words: tuple
    basis: list           # list of {col: Fraction}
    dimension: int

    def operators(self) -> List[LinDiffOp]:
        return [LinDiffOp(self.n, coords_to_terms(vec, self.words)) for vec in self.basis]


def solve_invariance_lin(n: int, twos: int) -> LinearFamily:
    """aff(n|1)-invariant linear operators of shift s = twos/2, lambda
    symbolic.  Only the theta generators constrain the words; X_1 and X_x
    annihilate every word identically in lambda at mu = lambda + s
    (asserted), so the system is rational."""
    if abs(twos) > 2 * MAX_LIN_SHIFT:
        raise ScalarError(f"shift mu - lambda = {brief_rat_text(Fraction(twos, 2))} outside "
                          f"the supported range -{MAX_LIN_SHIFT}..{MAX_LIN_SHIFT}")
    words = _lin_words(n, twos)
    sums = _lin_sums(n, twos)
    _assert_even_generators_trivial(n, words, sums)
    rows = _theta_rows(n, words, sums)
    dim, basis = field_nullspace(rows, len(words))
    basis = [_normalize_qvec(v) for v in basis]
    return LinearFamily(n, words, basis, dim)


def _normalize_qvec(vec: dict) -> dict:
    den = math.lcm(*(q.denominator for q in vec.values()))
    num = math.gcd(*(q.numerator * (den // q.denominator) for q in vec.values()))
    scale = Fraction(den, num) if num else Fraction(1)
    first = vec[min(vec)]
    if first < 0:
        scale = -scale
    return {c: q * scale for c, q in vec.items()}


# ---------------------------------------------------------------------------
# relative cochains: vanishing on aff + invariance rows, rational
# ---------------------------------------------------------------------------

def _coho_weights(twoshift: int):
    """(lambda, mu) of a cochain of shift twoshift/2, lambda symbolic."""
    lam = ParamPoly.var(COHO_VARS, "l")
    return lam, lam + ParamPoly.const(COHO_VARS, Fraction(twoshift, 2))


def vanishing_rows(n: int, ansatz: Ansatz):
    """J(H, .) = 0 for every aff generator H, as rational rows (operator
    coefficients of the partial application)."""
    return _generator_rows(
        generators(SubalgebraSpec("aff", n)), ansatz.terms,
        lambda h, key: bi_slot1_partial(BiDiffOp(n, {key: Fraction(1)}), h).terms)


def invariance_rows(n: int, ansatz: Ansatz):
    """act_on_bi(H, J) = 0 rows.  Only the theta generators enter, and their
    lifts carry no weight term, so the rows are rational and the same at
    every weight (tau = -1, lambda symbolic for a cochain)."""
    return _theta_rows(n, ansatz.terms, _bi_sums(n))


def relative_cochains(n: int, twoshift: int):
    """V = {vanishing on aff} and the relative 1-cochains R = V intersect
    {aff-invariant}: (ansatz, vanishing rows, invariance rows, basis of V,
    basis of R).  The rows are rational, so one echelon over Q gives V and
    then R; they are returned over ParamPoly('l') for the cocycle systems."""
    # the ansatz of shift k = twoshift/2 + 1 takes 2k in 0..MAX_TWOK
    if not -2 <= twoshift <= MAX_TWOK - 2:
        raise ScalarError(f"shift mu - lambda = {brief_rat_text(Fraction(twoshift, 2))} "
                          f"outside the supported range -1..{MAX_TWOK // 2 - 1}")
    ansatz = build_ansatz(n, twoshift + 2)
    van = vanishing_rows(n, ansatz)
    inv = invariance_rows(n, ansatz)
    ech = FieldEchelon(van)
    v_basis = ech.nullspace(len(ansatz.terms))
    for row in inv:
        ech.insert(row)
    r_basis = ech.nullspace(len(ansatz.terms))

    def lift(rows):
        return [{j: _to_poly(e) for j, e in r.items()} for r in rows]
    return ansatz, lift(van), lift(inv), v_basis, r_basis


def _to_poly(e):
    if isinstance(e, ParamPoly):
        return e
    return ParamPoly.const(COHO_VARS, e)


# ---------------------------------------------------------------------------
# cocycle system
# ---------------------------------------------------------------------------

def _monomials(n: int, max_deg: int):
    return [(a, m) for a in range(max_deg + 1) for m in range(1 << n)]


class CocycleAssembler:
    """Rows of the 1-cocycle condition delta(Upsilon)(X_F, X_G) = 0 swept
    over monomial hamiltonian pairs with deg F + deg G <= D.

    Per pair the operator delta(Upsilon_col)(X_F, X_G) is computed in
    normal form; its coefficients are the (triangularly equivalent)
    conditions of evaluating on all monomial densities of the bound.
    Unordered pairs suffice by the super-antisymmetry of delta.

    r_unit holds the R-unit columns of the cell (_r_unit): a pair with F or
    G in aff gives 0 on each of them, so rows leaves them out of such a
    pair's sweep.
    """

    def __init__(self, n: int, twoshift: int, r_unit=frozenset()):
        self.n = n
        self.twoshift = twoshift
        self.twok = twoshift + 2
        self.r_unit = r_unit
        self.aff_monomials = {next(iter(h.terms))
                              for h in generators(SubalgebraSpec("aff", n))}
        self._partials = {}       # (ansatz term, monomial) -> T(m, .)

    def pairs(self, dmax: int, dmin: int = 0, aff=None):
        """Unordered monomial pairs (F, G), dmin <= deg F + deg G <= dmax;
        aff=True keeps those with F or G an aff(n|1) generator, aff=False
        the others."""
        monos = _monomials(self.n, dmax)
        out = []
        for i, fkey in enumerate(monos):
            for gkey in monos[i:]:
                if not dmin <= fkey[0] + gkey[0] <= dmax:
                    continue
                in_aff = fkey in self.aff_monomials or gkey in self.aff_monomials
                if aff is None or aff == in_aff:
                    out.append((fkey, gkey))
        return out

    def delta_ops(self, fkey, gkey, keys) -> List[LinDiffOp]:
        """delta(T)(X_F, X_G) in normal form for each ansatz term T of keys,
        in order:

            (-1)^{|F|u} X_F.T(X_G) - (-1)^{|G|(|F|+u)} X_G.T(X_F) - T({F, G}),

        u the parity of the ansatz and X.A the module action act_on_lin;
        the coefficients are the ParamPoly('l') values of _delta_sums."""
        return [LinDiffOp(self.n, {tkey: pencil_poly(c, x, COHO_VARS)
                                   for tkey, (c, x) in acc.items()})
                for acc in self._delta_sums(fkey, gkey, keys)]

    def _delta_sums(self, fkey, gkey, keys):
        """2 delta(T)(X_F, X_G) for each ansatz term T of keys, in order, as
        {term: (c, x)} int pairs for the coefficient (c + x lambda)/2.

        The coefficients lie in (1/2)Z[lambda] and are linear in lambda, so
        each operator is accumulated doubled: lin_act_sums gives the two
        actions with mu = lambda + twoshift/2 folded in, read off its
        cached action tables, and the bracket term T({F, G}, .) is
        the sum of 2 c_m T(m, .) over the terms c_m m of {F, G}
        (_doubled_bracket, built once per monomial pair), each T(m, .)
        built once per assembler.  T(m, .) has one term and distinct
        monomials m give distinct ones, as in bi_slot1_partial.  The
        partial sums are added as act_on_lin and LinDiffOp addition add
        them, so the terms come out in the order of the definition."""
        n = self.n
        fp, gp = mask_weight(fkey[1]) & 1, mask_weight(gkey[1]) & 1
        u = self.twok & 1
        # (H, the monomial argument of T, whether X_H.T(arg, .) is
        # subtracted)
        actions = ((SuperPoly(n, {fkey: 1}), gkey, fp & u),
                   (SuperPoly(n, {gkey: 1}), fkey, not gp & (fp ^ u)))
        bracket = _doubled_bracket(n, fkey, gkey)
        twos, partial = self.twoshift, self._partial
        out = []
        for key in keys:
            acc = {}
            for h, arg, neg in actions:
                a = partial(key, arg)
                if a:
                    for tkey, (c, x) in lin_act_sums(h, a, twos).items():
                        _add_pair(acc, tkey, -c if neg else c, -x if neg else x)
            for part in bracket:
                for mono, c in part:
                    for tkey, v in partial(key, mono).terms.items():
                        _add_pair(acc, tkey, -c * v, 0)
            out.append(acc)
        return out

    def _partial(self, key, mono) -> LinDiffOp:
        """T(m, .) for the ansatz term T = key and the monomial m, built once
        per assembler."""
        a = self._partials.get((key, mono))
        if a is None:
            a = self._partials[key, mono] = bi_slot1_partial(
                BiDiffOp(self.n, {key: 1}), SuperPoly(self.n, {mono: 1}))
        return a

    def rows(self, ansatz: Ansatz, dmax: int, dmin: int = 0, *, cols, aff=None):
        """Pencil rows {col: (c, x)} of ints, meaning (c + x lambda)/2, on
        the ansatz columns cols (a row with no entry there is dropped),
        from the pairs(dmax, dmin, aff): one row per output term of the
        pair's delta operators, in order, repeats included.  A pair with F
        or G in aff is swept on the columns that are not R-unit only, and
        skipped when none is left: its entries on an R-unit column are 0,
        so the rows are the same."""
        if not cols:
            return []
        every = (cols, [ansatz.terms[ci] for ci in cols])
        on_aff = [ci for ci in cols if ci not in self.r_unit]
        on_aff = (on_aff, [ansatz.terms[ci] for ci in on_aff])
        out = []
        for fkey, gkey in self.pairs(dmax, dmin, aff):
            in_aff = fkey in self.aff_monomials or gkey in self.aff_monomials
            swept, keys = on_aff if in_aff else every
            if not swept:
                continue
            per_pair = {}
            for ci, acc in zip(swept, self._delta_sums(fkey, gkey, keys)):
                for tkey, pair in acc.items():
                    per_pair.setdefault(tkey, {})[ci] = pair
            out.extend(per_pair.values())
        return out


@cache
def _doubled_bracket(n: int, fkey, gkey) -> tuple:
    """The homogeneous parts of 2 {F, G} for the monomials F, G keyed by
    fkey, gkey, each as a tuple of (monomial, int coefficient) in the
    order of contact_bracket's terms."""
    f = SuperPoly(n, {fkey: 1})
    g = SuperPoly(n, {gkey: 1})
    return tuple(tuple((m, _int_of(2 * c)) for m, c in part.terms.items())
                 for part in contact_bracket(f, g).homogeneous_parts())


def _int_of(c) -> int:
    """An integral Fraction as an int."""
    if c.denominator != 1:
        raise ScalarError(f"expected an integral coefficient, got {c}")
    return c.numerator


def default_degree_bound(twoshift: int) -> int:
    import os
    text = os.environ.get("SUPERDENSITY_DEGREE_BOUND")
    if not text:
        return twoshift + 2 + DEFAULT_DEGREE_MARGIN
    return read_number(text, 0, MAX_DEGREE_BOUND, 1, name="SUPERDENSITY_DEGREE_BOUND=")


def _support(vectors) -> list:
    """The sorted columns on which some vector is nonzero."""
    return sorted({ci for v in vectors for ci in v})


def _r_unit(ncols: int, rows) -> frozenset:
    """The R-unit columns: those that no row of rows (the vanishing and
    invariance rows of a cell) touches, so that their unit vectors lie in
    R.  A relative cochain T vanishes on aff and is aff-invariant, so for
    an aff generator a, T(X_a) = 0 and X_a . T = 0, and

        delta T(X_a, X_G) = (X_a . T)(X_G) +- X_G . T(X_a) = 0

    for every G: delta maps relative cochains to relative cochains (Fuks,
    Cohomology of Infinite-Dimensional Lie Algebras, 1986, ch. 1).  So a
    pair with F or G in aff gives 0 on an R-unit column."""
    touched = {ci for row in rows for ci, e in row.items() if e}
    return frozenset(range(ncols)) - touched


# ---------------------------------------------------------------------------
# coboundaries
# ---------------------------------------------------------------------------

def coboundary_vectors(n: int, twoshift: int, ansatz: Ansatz):
    """delta(A) for each invariant linear A in D_{lambda,mu}, as vectors in
    the ansatz coordinates with ParamPoly entries.  Each delta(A) vanishes
    on aff (A is invariant) -- asserted."""
    fam = solve_invariance_lin(n, twoshift)
    lam, mu = _coho_weights(twoshift)
    vectors = []
    for a in fam.operators():
        d = coboundary_of_lin(a, lam, mu)
        vec = terms_to_coords(d.terms, ansatz.terms)
        if vec is None:
            raise ScalarError(f"coboundary of {a.text()} leaves the ansatz")
        for h in generators(SubalgebraSpec("aff", n)):
            if bi_slot1_partial(d, h):
                raise ScalarError("coboundary fails to vanish on aff")
        vectors.append({ci: _to_poly(e) for ci, e in vec.items()})
    return vectors


def _span_rank_at(vectors, value):
    return field_rank(specialize_rows(vectors, "l", value))


# ---------------------------------------------------------------------------
# H^1 cells
# ---------------------------------------------------------------------------

@dataclass
class H1Cell:
    """Everything computed for one (n, shift) cell, lambda symbolic."""
    n: int
    twoshift: int
    degree_bound: int             # D of the cocycle sweep deg F + deg G <= D
    ansatz: Ansatz
    z_space: SolutionSpace
    b_vectors: list               # delta(A) vectors (ParamPoly entries)
    b_rank: int
    resonances: list              # [(root, dim_h1_at_root)]
    rejected: list
    candidate_locus: ParamPoly
    lemma_aff_ok: bool
    basis: list                   # H1 representatives: {col: ParamPoly}
    r_unit: frozenset             # the R-unit columns (_r_unit)

    @property
    def z_rows(self) -> list:
        """The Q-independent rows, in order, of the vanishing, invariance and
        cocycle rows on supp(R); they span all of those rows over Q."""
        return self.z_space.rows

    @property
    def dim_z(self) -> int:
        return self.z_space.generic_dimension

    @property
    def dim_h1(self) -> int:
        return self.dim_z - self.b_rank

    def h1_at(self, value):
        """(dim Z, rank B, dim H1) at a specialized lambda."""
        dz = len(self.ansatz.terms) - _span_rank_at(self.z_rows, value)
        rb = _span_rank_at(self.b_vectors, value)
        return dz, rb, dz - rb


_CELL_CACHE = {}


def h1_cell(n: int, twoshift: int) -> H1Cell:
    key = (n, twoshift, default_degree_bound(twoshift))
    cell = _CELL_CACHE.get(key)
    if cell is None:
        cell = _CELL_CACHE[key] = _compute_cell(n, twoshift)
    return cell


def _compute_cell(n: int, twoshift: int) -> H1Cell:
    ansatz, van, inv, v_basis, r_basis = relative_cochains(n, twoshift)
    d = default_degree_bound(twoshift)

    # Z lies in R.  At every lambda, generic or specialized, the rational
    # rows van + inv force a solution into R, and on a vector of R a
    # cocycle row reads only the columns of supp(R).  So the cocycle rows
    # restricted to supp(R) cut out the same Z, and its specializations.
    r_unit = _r_unit(len(ansatz.terms), van + inv)
    asm = CocycleAssembler(n, twoshift, r_unit)
    z_space = generic_nullspace(ParamMatrix(
        COHO_VARS, len(ansatz.terms),
        van + inv + asm.rows(ansatz, d, cols=_support(r_basis))))
    lemma_ok = _lemma_aff_holds(asm, ansatz, d, van, inv, _support(v_basis))

    b_vectors = coboundary_vectors(n, twoshift, ansatz)
    # B subset of Z: every Z row annihilates every delta(A), identically;
    # the kept rows span them all over Q, so they are the ones checked.
    if not annihilates(z_space.rows, b_vectors):
        raise ScalarError("coboundary escapes the cocycle space (B not in Z)")

    # One echelon over Q(lambda) spans B, then takes the Z basis on top:
    # the Z vectors it accepts are the generic H1 basis.  Each echelon row
    # is a polynomial combination of the inputs divided by a recorded
    # content, so the rank of B can only drop where a pivot or content
    # recorded before the Z vectors went in vanishes.
    ech = _Echelon(COHO_VARS)
    for v in b_vectors:
        ech.insert(v)
    b_rank = len(ech.pivots)
    b_pivots = ech.pivot_polys + ech.content_factors
    basis = [v for v in z_space.basis if ech.insert(v)]

    locus = resonance_candidates(z_space.pivot_polynomials + b_pivots)
    cell = H1Cell(n, twoshift, d, ansatz, z_space, b_vectors, b_rank,
                  [], [], locus, lemma_ok, basis, r_unit)
    for root in candidate_roots(locus):
        h1r = cell.h1_at(root)[2]
        if h1r != cell.dim_h1:
            cell.resonances.append((root, h1r))
        else:
            cell.rejected.append(root)
    return cell


def _lemma_aff_holds(asm, ansatz, d, van, inv, cols) -> bool:
    """Lemma 5.1 ("vanishing + cocycle => invariant") over Q(lambda): the
    invariance rows annihilate Z'(D), where Z'(D) solves the vanishing rows
    and the cocycle rows of degree <= D on cols = supp(V), V = ker(vanishing)
    holding Z'(D).  Rows are added band by band (_lemma_bands).  Each
    partial system has a solution space containing Z'(D), so the first one
    whose solutions the invariance rows annihilate settles it; the last one
    is the full system, so the verdict is that of Z'(D) itself."""
    return any(annihilates(inv, space.basis)
               for space in _lemma_bands(asm, ansatz, d, van, cols))


def _lemma_bands(asm, ansatz, d, van, cols):
    """The solution space of the vanishing rows and every band so far,
    band by band and lazily, for the bands of _lemma_aff_holds: the pairs
    with F or G in aff first (bands 0..D), then the other pairs (bands
    0..D).  The bands feed one GenericSystem, so no band re-eliminates the
    rows kept before it."""
    system = GenericSystem(COHO_VARS, len(ansatz.terms))
    system.extend(van)
    for aff, band in product((True, False), range(d + 1)):
        system.extend(asm.rows(ansatz, band, dmin=band, cols=cols, aff=aff))
        yield system.solution()


# ---------------------------------------------------------------------------
# property gates
# ---------------------------------------------------------------------------

def stability_check(cell: H1Cell) -> bool:
    """Solution space unchanged under D -> D+2, D the cell's own bound: the
    new rows of the larger sweep must annihilate the computed Z basis, so
    they are assembled on the columns that basis uses only, as pencil rows
    dotted with the basis in ints.  With Z(D) = 0 that holds for any rows,
    so none are assembled."""
    basis = cell.z_space.basis
    d = cell.degree_bound
    asm = CocycleAssembler(cell.n, cell.twoshift, cell.r_unit)
    return not basis or annihilates(
        asm.rows(cell.ansatz, d + 2, dmin=d + 1, cols=_support(basis)), basis)


def specialization_check(cell: H1Cell) -> bool:
    """Generic/special consistency at random rational lambda off the
    candidate locus: h1_at there gives the generic (dim Z, rank B, dim H1).
    Both ranks are exact ranks of the specialized rows, whose span at any
    lambda is that of every row of the system."""
    import random
    rng = random.Random(11 + cell.n * 100 + cell.twoshift)
    bad_roots = {r for r in [root for root, _ in cell.resonances] + cell.rejected
                 if isinstance(r, Fraction)}
    generic = (cell.dim_z, cell.b_rank, cell.dim_h1)
    done = 0
    while done < SPECIALIZATION_POINTS:
        val = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if val in bad_roots:
            continue
        if cell.h1_at(val) != generic:
            return False
        done += 1
    return True


def coboundaries_are_cocycles(cell: H1Cell) -> bool:
    """delta o delta = 0: every delta(A) lies in the kernel of every row of
    the cocycle system (already asserted during construction; re-exposed as
    a gate)."""
    return annihilates(cell.z_rows, cell.b_vectors)

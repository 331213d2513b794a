"""Property tests of the field elimination kernel (FieldEchelon and the
functions built on it), with SymPy's DomainMatrix over QQ as the oracle,
of generic_nullspace and _Echelon on integer pencils A0 + lambda*A1, with
the field kernel at specialized lambda as the oracle, and of the integer
flat row filter of generic_nullspace, with FieldEchelon over the Fraction
flat vectors as the oracle, and of pencil rows {col: (c, x)} of ints, with
their ParamPoly form as the oracle."""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from superdensity.param_linalg import (FieldEchelon, ParamMatrix, _Echelon,  # noqa: E402
                                       _dot, _row_normalize, annihilates, field_nullspace,
                                       field_rank, field_solve, generic_nullspace,
                                       pencil_poly, pencil_row_poly, resonance_candidates,
                                       specialize_rows)
from superdensity.scalars import ParamPoly, ScalarError  # noqa: E402

L = ("l",)

# small entries, half of them zero, so that ranks and consistency vary
entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def matrices(draw, max_cols=6, max_rows=7, elements=entries):
    ncols = draw(st.integers(1, max_cols))
    dense = draw(st.lists(st.lists(elements, min_size=ncols, max_size=ncols),
                          max_size=max_rows))
    return ncols, dense


small_ints = st.one_of(st.just(0), st.integers(-3, 3))


@st.composite
def pencils(draw, max_cols=5, max_rows=6):
    """A ParamMatrix A0 + lambda*A1 with small integer A0 and A1."""
    ncols, a0 = draw(matrices(max_cols, max_rows, elements=small_ints))
    a1 = draw(st.lists(st.lists(small_ints, min_size=ncols, max_size=ncols),
                       min_size=len(a0), max_size=len(a0)))
    lam = ParamPoly.var(L, "l")
    rows = [{j: e for j, (c0, c1) in enumerate(zip(r0, r1))
             if (e := ParamPoly.const(L, c0) + lam.scale(c1))}
            for r0, r1 in zip(a0, a1)]
    return ParamMatrix(L, ncols, rows)


def sparse(dense):
    return [{j: q for j, q in enumerate(row) if q} for row in dense]


def domain_matrix(dense, ncols):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    QQ = sympy.QQ
    return DomainMatrix([[QQ(q.numerator, q.denominator) for q in row]
                         for row in dense], (len(dense), ncols), QQ)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_plus_nullity(m):
    ncols, dense = m
    dim, basis = field_nullspace(sparse(dense), ncols)
    assert dim == len(basis)
    assert field_rank(sparse(dense)) + dim == ncols
    assert FieldEchelon(sparse(dense)).rank + dim == ncols


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rows_annihilate_basis(m):
    ncols, dense = m
    rows = sparse(dense)
    _, basis = field_nullspace(rows, ncols)
    for vec in basis:
        for row in rows:
            assert not _dot(row, vec)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_matches_sympy(m):
    ncols, dense = m
    assert field_rank(sparse(dense)) == (domain_matrix(dense, ncols).rank()
                                         if dense else 0)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_augmented_solve_matches_sympy(m, data):
    ncols, dense = m
    rhs = data.draw(st.lists(entries, min_size=len(dense), max_size=len(dense)))
    rows = sparse(dense)
    if not dense:
        assert field_solve(rows, rhs, ncols) == [0] * ncols
        return
    aug = [row + [b] for row, b in zip(dense, rhs)]
    consistent = (domain_matrix(dense, ncols).rank()
                  == domain_matrix(aug, ncols + 1).rank())
    if not consistent:
        with pytest.raises(ScalarError):
            field_solve(rows, rhs, ncols)
        return
    x = field_solve(rows, rhs, ncols)
    for row, b in zip(dense, rhs):
        assert sum(a * xj for a, xj in zip(row, x)) == b
    # free coordinates are 0: the columns that are not pivots of the
    # reduced echelon form SymPy computes
    _, pivots = domain_matrix(dense, ncols).rref()
    assert all(x[j] == 0 for j in range(ncols) if j not in pivots)


def test_insert_reports_span_membership():
    ech = FieldEchelon()
    assert ech.insert({0: Fraction(2), 1: Fraction(4)})
    assert not ech.insert({0: Fraction(-1), 1: Fraction(-2)})
    assert ech.insert({1: Fraction(1)})
    assert not ech.reduce({0: Fraction(3), 1: Fraction(5)})
    assert ech.rank == 2


def flat(row: dict) -> dict:
    """The rational coefficients of a ParamPoly row, keyed by (column,
    power of lambda)."""
    return {(j, k): c for j, e in row.items() for k, c in e.terms.items()}


def combination(rows, coeffs) -> dict:
    """sum(c * row) over ParamPoly coefficients c, zero entries dropped."""
    acc = {}
    for row, c in zip(rows, coeffs):
        for j, e in row.items():
            acc[j] = acc[j] + e * c if j in acc else e * c
    return {j: e for j, e in acc.items() if e}


def rational_coeffs(data, rows):
    return [ParamPoly.const(L, c) for c in
            data.draw(st.lists(small_ints, min_size=len(rows), max_size=len(rows)))]


@settings(max_examples=100, deadline=None)
@given(pencils(), st.data())
def test_appended_rational_combinations_change_nothing(m, data):
    sol = generic_nullspace(m)
    extra = [combination(m.rows, rational_coeffs(data, m.rows))
             for _ in range(data.draw(st.integers(1, 3)))]
    more = generic_nullspace(ParamMatrix(L, m.ncols, m.rows + extra))
    assert more.basis == sol.basis
    assert more.pivot_polynomials == sol.pivot_polynomials
    assert more.rows == sol.rows


half_ints = st.integers(-6, 6).map(lambda k: Fraction(k, 2))


@st.composite
def half_integer_pencils(draw):
    """A ParamMatrix A0 + lambda*A1 with entries in (1/2)Z, followed by
    rows p(lambda) * r for earlier rows r: dependent over Q(lambda), and
    over Q only when the flat vectors happen to be."""
    ncols, a0 = draw(matrices(4, 5, elements=half_ints))
    a1 = draw(st.lists(st.lists(half_ints, min_size=ncols, max_size=ncols),
                       min_size=len(a0), max_size=len(a0)))
    lam = ParamPoly.var(L, "l")
    rows = [{j: e for j, (c0, c1) in enumerate(zip(r0, r1))
             if (e := ParamPoly.const(L, c0) + lam.scale(c1))}
            for r0, r1 in zip(a0, a1)]
    if rows:
        for _ in range(draw(st.integers(0, 4))):
            r = draw(st.sampled_from(rows))
            p = ParamPoly.const(L, draw(half_ints)) + lam.scale(draw(half_ints))
            rows.append({j: v for j, e in r.items() if (v := e * p)})
    return ParamMatrix(L, ncols, draw(st.permutations(rows)))


@settings(max_examples=200, deadline=None)
@given(half_integer_pencils())
def test_int_flat_filter_keeps_the_field_echelon_rows(m):
    """generic_nullspace keeps exactly the rows, in order, whose Fraction
    flat vectors a FieldEchelon accepts, including multiples p(lambda) r
    of kept rows, which are dependent over Q(lambda) only."""
    field = FieldEchelon()
    want = [_row_normalize(r) for r in m.rows if field.insert(flat(r))]
    assert generic_nullspace(m).rows == want


def test_int_flat_filter_drops_only_rational_combinations():
    """lambda * r is kept after r, 2r and r/3 are not."""
    lam = ParamPoly.var(L, "l")
    r = {0: ParamPoly.const(L, Fraction(1, 2)) + lam, 2: ParamPoly.const(L, 3)}
    rows = [r, {j: e.scale(2) for j, e in r.items()}, {j: e * lam for j, e in r.items()},
            {j: e.scale(Fraction(1, 3)) for j, e in r.items()}]
    sol = generic_nullspace(ParamMatrix(L, 3, rows))
    assert sol.rows == [_row_normalize(rows[0]), _row_normalize(rows[2])]
    assert sol.generic_dimension == 2


def test_field_echelon_rejects_non_field_entries():
    """An int, or a ParamPoly, is not a field scalar: inserting it raises
    ScalarError naming its type."""
    with pytest.raises(ScalarError, match="got int"):
        FieldEchelon([{0: 3}])
    with pytest.raises(ScalarError, match="got ParamPoly"):
        FieldEchelon([{1: ParamPoly.var(L, "l")}])
    assert FieldEchelon([{0: Fraction(3)}]).rank == 1


@settings(max_examples=100, deadline=None)
@given(pencils())
def test_pencil_rows_annihilate_basis_and_keep_flat_rank(m):
    sol = generic_nullspace(m)
    assert annihilates(m.rows, sol.basis)
    assert len(sol.rows) == field_rank(flat(r) for r in m.rows)


@settings(max_examples=100, deadline=None)
@given(pencils())
def test_pencil_rank_never_rises_under_specialization(m):
    sol = generic_nullspace(m)
    rank = m.ncols - sol.generic_dimension
    locus = resonance_candidates(sol.pivot_polynomials)
    for k in range(-8, 9):
        value = Fraction(k, 2)
        at = field_rank(specialize_rows(m.rows, "l", value))
        assert at <= rank
        if locus.evaluate({"l": value}):
            assert at == rank


@settings(max_examples=100, deadline=None)
@given(pencils(), st.data())
def test_span_row_keeps_content_factors(m, data):
    ech = _Echelon(L)
    for row in m.rows:
        ech.insert(row)
    pivots, factors = list(ech.pivots), list(ech.content_factors)
    lam = ParamPoly.var(L, "l")
    coeffs = [c0 + lam * c1 for c0, c1 in
              zip(rational_coeffs(data, m.rows), rational_coeffs(data, m.rows))]
    assert not ech.insert(combination(m.rows, coeffs))
    assert (ech.pivots, ech.content_factors) == (pivots, factors)


@st.composite
def pencil_rows(draw):
    """(ncols, pencil rows {col: (c, x)}): random rows, integer combinations
    of two of them, and empty rows, in a random order."""
    ncols = draw(st.integers(1, 5))
    pair = st.tuples(small_ints, small_ints)
    rows = [{j: p for j, p in enumerate(draw(st.lists(pair, min_size=ncols,
                                                        max_size=ncols))) if any(p)}
            for _ in range(draw(st.integers(0, 6)))]
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(small_ints), draw(small_ints)
            combo = {}
            for j in sorted(set(a) | set(b)):
                (ca, xa), (cb, xb) = a.get(j, (0, 0)), b.get(j, (0, 0))
                p = (s * ca + t * cb, s * xa + t * xb)
                if any(p):
                    combo[j] = p
            rows.append(combo)
    rows += [{}] * draw(st.integers(0, 2))
    return ncols, draw(st.permutations(rows))


def cubic(draw):
    return ParamPoly.from_univariate("l", draw(st.lists(entries, min_size=4, max_size=4)))


@st.composite
def annihilation_cases(draw):
    """(pencil rows, vectors with entries of degree <= 3 over Q, built
    pairs): random vectors, and for some rows r a vector
    v = p(lambda) (r_j e_i - r_i e_j) with deg p <= 2, which r annihilates;
    the built pairs are those (r, v)."""
    ncols, rows = draw(pencil_rows())
    vectors = [{j: e for j in range(ncols) if (e := cubic(draw))}
               for _ in range(draw(st.integers(0, 3)))]
    built = []
    for r in rows:
        if len(r) >= 2 and draw(st.booleans()):
            i, j = draw(st.permutations(sorted(r)))[:2]
            p = ParamPoly.from_univariate("l", draw(st.lists(entries, min_size=3,
                                                              max_size=3)))
            vec = {k: e for k, e in ((i, pencil_poly(*r[j], L) * p),
                                     (j, -pencil_poly(*r[i], L) * p)) if e}
            vectors.append(vec)
            built.append((r, vec))
    return rows, vectors, built


@settings(max_examples=200, deadline=None)
@given(annihilation_cases())
def test_pencil_annihilates_agrees_with_dot(case):
    """annihilates on a pencil row agrees with _dot on its ParamPoly form,
    row by row and vector by vector, and over the whole case; a row
    annihilates the vectors built for it, next to an empty row."""
    rows, vectors, built = case
    polys = [pencil_row_poly(r, L) for r in rows]
    for row, poly in zip(rows, polys):
        for vec in vectors:
            assert annihilates([row], [vec]) == (not _dot(poly, vec))
    want = all(not _dot(poly, vec) for poly in polys for vec in vectors)
    assert annihilates(rows, vectors) == annihilates(polys, vectors) == want
    for row, vec in built:
        assert annihilates([{}, row], [vec, {}])


@settings(max_examples=200, deadline=None)
@given(pencil_rows(), st.data())
def test_generic_nullspace_reads_pencil_rows_as_their_parampoly_form(case, data):
    """Pencil rows, their ParamPoly form and any mix of the two give the
    same kept rows (in order, entry for entry), basis and pivot
    polynomials."""
    ncols, rows = case
    polys = [pencil_row_poly(r, L) for r in rows]
    mixed = [p if data.draw(st.booleans()) else r for r, p in zip(rows, polys)]
    want = generic_nullspace(ParamMatrix(L, ncols, polys))
    for form in (rows, mixed):
        got = generic_nullspace(ParamMatrix(L, ncols, form))
        assert [list(r.items()) for r in got.rows] == [list(r.items()) for r in want.rows]
        assert got.basis == want.basis
        assert got.pivot_polynomials == want.pivot_polynomials


@st.composite
def rows_with_repeats(draw):
    """(ncols, pencil rows, the same rows with ± integer multiples and
    repeats of earlier rows interleaved, each in pencil or ParamPoly
    form, and the number of distinct flat vectors up to a rational
    factor among them)."""
    ncols, rows = draw(pencil_rows())
    fed = []
    for row in rows:
        fed.append(row)
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.sampled_from((1, -1, 2, -3)))
            fed.append({j: (k * c, k * x) for j, (c, x) in draw(st.sampled_from(fed)).items()})
    classes = set()
    for row in fed:
        f = flat(pencil_row_poly(row, L))
        lead = f[min(f)] if f else 1
        classes.add(frozenset((key, c / lead) for key, c in f.items()))
    fed = [pencil_row_poly(r, L) if as_poly else r
           for r, as_poly in zip(fed, draw(st.lists(st.booleans(), min_size=len(fed),
                                                    max_size=len(fed))))]
    return ncols, rows, fed, len(classes)


@settings(max_examples=200, deadline=None)
@given(rows_with_repeats())
def test_repeated_rows_reach_the_flat_filter_once(case):
    """Repeats and ± multiples of earlier rows, in either form, leave the
    kept rows, the basis and the pivot polynomials as they are, and the
    flat filter eliminates each flat vector once: a repeat is skipped
    before it, whether its first copy was kept or dropped."""
    from unittest import mock
    from superdensity.param_linalg import _IntEchelon
    ncols, rows, fed, distinct = case
    want = generic_nullspace(ParamMatrix(L, ncols, rows))
    with mock.patch.object(_IntEchelon, "insert", autospec=True,
                           side_effect=_IntEchelon.insert) as insert:
        got = generic_nullspace(ParamMatrix(L, ncols, fed))
    assert insert.call_count == distinct
    assert [list(r.items()) for r in got.rows] == [list(r.items()) for r in want.rows]
    assert got.basis == want.basis
    assert got.pivot_polynomials == want.pivot_polynomials


@st.composite
def int_vectors(draw):
    """Sparse int vectors over a few (column, power) keys, with integer
    combinations of earlier ones mixed in."""
    keys = [(j, (p,)) for j in range(draw(st.integers(1, 5))) for p in (0, 1)]
    vecs = []
    for _ in range(draw(st.integers(1, 9))):
        if vecs and draw(st.booleans()):
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            s, t = draw(small_ints), draw(small_ints)
            vec = {k: v for k in sorted(set(a) | set(b))
                   if (v := s * a.get(k, 0) + t * b.get(k, 0))}
        else:
            vec = {k: v for k in keys if (v := draw(st.integers(-6, 6)))}
        vecs.append(vec)
    return vecs


@settings(max_examples=300, deadline=None)
@given(int_vectors())
def test_reduced_flat_filter_keeps_what_a_field_echelon_keeps(vecs):
    """The flat filter keeps a vector exactly when it raises the rank of
    FieldEchelon over the same vectors as Fractions; after every insert
    each pivot row is primitive and no pivot key is in another pivot
    row."""
    import math
    from superdensity.param_linalg import _IntEchelon
    ints, field = _IntEchelon(), FieldEchelon()
    for vec in vecs:
        kept = ints.insert(vec)
        assert kept == field.insert({k: Fraction(v) for k, v in vec.items()})
        for key, row in ints.pivots.items():
            assert row[key] and math.gcd(*row.values()) == 1
            assert not any(key in other for k2, other in ints.pivots.items() if k2 != key)

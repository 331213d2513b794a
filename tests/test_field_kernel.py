"""Property tests of the field elimination kernel (FieldEchelon and the
functions built on it), with SymPy's DomainMatrix over QQ as the oracle."""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from superdensity.param_linalg import (FieldEchelon, _dot, field_nullspace,  # noqa: E402
                                       field_rank, field_solve)
from superdensity.scalars import ScalarError  # noqa: E402

# small entries, half of them zero, so that ranks and consistency vary
entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def matrices(draw, max_cols=6, max_rows=7):
    ncols = draw(st.integers(1, max_cols))
    dense = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                          max_size=max_rows))
    return ncols, dense


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
@given(matrices(), st.integers(0, 8))
def test_early_stop_rank(m, r):
    ncols, dense = m
    rows = sparse(dense)
    full = field_rank(rows)
    assert full == (domain_matrix(dense, ncols).rank() if dense else 0)
    if r >= full:
        assert field_rank(rows, max_rank=r) == full
    else:
        assert field_rank(rows, max_rank=r) == r


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

import random
from fractions import Fraction

import pytest

from superdensity.param_linalg import (ParamMatrix, candidate_roots,
                                       field_nullspace, generic_nullspace,
                                       resonance_candidates, specialize_rows)
from superdensity.scalars import (AlgebraicScalar, ParamPoly, ScalarError,
                                  parse_param_poly)

L = ("l",)


def P(text):
    return parse_param_poly(text, L)


def matrix(rows):
    """A ParamMatrix from dense rows of ParamPoly entries, zeros dropped."""
    return ParamMatrix(L, len(rows[0]), [{j: e for j, e in enumerate(row) if e}
                                         for row in rows])


def dense(rows):
    return matrix([[P(e) for e in row] for row in rows])


def solve_at(m, value):
    """Oracle: the nullspace of the matrix specialized at lambda = value."""
    return field_nullspace(specialize_rows(m.rows, "l", value), m.ncols)


def test_generic_nullspace_examples():
    m = dense([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert generic_nullspace(m).generic_dimension == 0
    m = dense([["l"]])
    sol = generic_nullspace(m)
    assert sol.generic_dimension == 0
    assert any(p == P("l") for p in sol.pivot_polynomials)
    # rows proportional: rank 1
    m = dense([["l", "1"], ["l^2", "l"]])
    sol = generic_nullspace(m)
    assert sol.generic_dimension == 1
    # oracle: specialization at 5 random rationals
    rng = random.Random(4)
    for _ in range(5):
        v = Fraction(rng.randint(2, 60), rng.randint(1, 9))
        dim, _ = solve_at(m, v)
        assert dim == 1


def test_nullspace_soundness():
    rng = random.Random(8)
    for _ in range(25):
        rows = []
        for _ in range(rng.randint(1, 6)):
            rows.append([P(str(rng.randint(-3, 3))) + P("l").scale(rng.randint(-2, 2))
                         for _ in range(4)])
        m = matrix(rows)
        sol = generic_nullspace(m)
        for vec in sol.basis:
            for row in m.rows:
                acc = None
                for j, e in row.items():
                    v = vec.get(j)
                    if v:
                        t = e * v
                        acc = t if acc is None else acc + t
                assert acc is None or not acc


def test_resonance_candidates_examples():
    sol = generic_nullspace(dense([["1", "0"], ["0", "l"]]))
    assert resonance_candidates(sol.pivot_polynomials) == P("l")
    sol = generic_nullspace(dense([["l^2+4*l"]]))
    assert resonance_candidates(sol.pivot_polynomials) == P("l^2+4*l")
    sol = generic_nullspace(dense([["2*l^2+10*l+3"]]))
    # square-free already; oracle gcd(p, p') = 1
    from superdensity.scalars import poly_gcd
    p = P("2*l^2+10*l+3")
    assert poly_gcd(p, p.derivative(0)).total_degree() == 0
    assert resonance_candidates(sol.pivot_polynomials) == p.monic()


def test_resonance_candidates_rejects_multiparameter():
    with pytest.raises(ScalarError):
        resonance_candidates([ParamPoly.var(("t", "l"), "t")])


def test_generic_nullspace_rejects_two_parameters():
    tl = ("t", "l")
    m = ParamMatrix(tl, 2)
    m.add_row({0: ParamPoly.var(tl, "t"), 1: ParamPoly.var(tl, "l")})
    with pytest.raises(ScalarError):
        generic_nullspace(m)


def test_specialize_and_solve_examples():
    m = dense([["l"]])
    assert solve_at(m, Fraction(0))[0] == 1
    assert solve_at(m, Fraction(1))[0] == 0
    # 2x2 witness with pivot 2l^2+10l+3: dimension jumps at the root
    m = dense([["2*l^2+10*l+3", "0"], ["0", "1"]])
    sol = generic_nullspace(m)
    assert sol.generic_dimension == 0
    root_plus, root_minus = candidate_roots(P("2*l^2+10*l+3"))[:2]
    for root in (root_plus, root_minus):
        dim, basis = solve_at(m, root)
        assert dim == 1
        # exact check in the extension: M(root) . v = 0
        for vec in basis:
            for row in m.rows:
                acc = None
                for j, e in row.items():
                    v = vec.get(j)
                    if v is not None and v:
                        t = e.evaluate({"l": root}) * v
                        acc = t if acc is None else acc + t
            assert acc is None or not acc


def test_specialization_consistency_random():
    rng = random.Random(3)
    rows = [["l", "1", "0"], ["0", "l", "1"], ["l^2", "2*l", "1"]]
    m = dense(rows)
    sol = generic_nullspace(m)
    locus = resonance_candidates(sol.pivot_polynomials)
    for _ in range(10):
        v = Fraction(rng.randint(1, 99), rng.randint(1, 7))
        if locus.evaluate({"l": v}) == 0:
            continue
        assert solve_at(m, v)[0] == sol.generic_dimension


def test_fraction_free_never_divides_by_zero_poly():
    # a matrix whose naive pivoting hits cancellations
    m = dense([["l", "l^2", "1"],
               ["1", "l", "0"],
               ["0", "0", "l-1"],
               ["l", "l^2", "l"]])
    sol = generic_nullspace(m)
    assert sol.generic_dimension + (3 - sol.generic_dimension) == 3
    for vec in sol.basis:
        for row in m.rows:
            acc = None
            for j, e in row.items():
                v = vec.get(j)
                if v:
                    t = e * v
                    acc = t if acc is None else acc + t
            assert acc is None or not acc


def test_field_nullspace_quadratic_field():
    # elimination over Q[t]/(t^2 - 19)
    s = AlgebraicScalar(-19, 0, 0, 1)
    rows = [{0: s, 1: Fraction(1)}, {0: Fraction(19), 1: s}]
    dim, basis = field_nullspace(rows, 2)
    assert dim == 1
    v = basis[0]
    for row in rows:
        acc = None
        for j, e in row.items():
            if j in v and v[j]:
                t = e * v[j]
                acc = t if acc is None else acc + t
        assert acc is None or not acc

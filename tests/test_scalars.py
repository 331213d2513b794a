import random
from fractions import Fraction

import pytest

from superdensity.scalars import (AlgebraicScalar, ParamPoly, ScalarError,
                                  irreducible_factors, parse_param_poly,
                                  poly_gcd, quadratic_split, rational_roots,
                                  squarefree_part)

L = ("l",)


def P(text):
    return parse_param_poly(text, L)


def test_poly_arith_examples():
    assert P("l+1") * P("l-1") == P("l^2-1")
    assert not P("l") + P("-l")
    # (2l^2+10l+3) - 2(l^2+5l) = 3, oracle: term-by-term addition
    a = P("2*l^2+10*l+3")
    b = P("l^2+5*l").scale(-2)
    oracle = {}
    for t in (a, b):
        for e, c in t.terms.items():
            oracle[e] = oracle.get(e, Fraction(0)) + c
    oracle = {e: c for e, c in oracle.items() if c}
    got = a - P("2*l^2+10*l")
    assert got.terms == oracle
    assert got == P("3")


def test_poly_arith_variable_mismatch():
    with pytest.raises(ScalarError):
        P("l") + ParamPoly.var(("t",), "t")


def test_poly_gcd_examples():
    assert poly_gcd(P("l^2-1"), P("l-1")) == P("l-1")
    assert poly_gcd(P("l"), P("l+1")) == P("1")
    # Euclid by hand: gcd(2l^2+10l+3, 4l+10) -> remainder -11/2, coprime
    assert poly_gcd(P("2*l^2+10*l+3"), P("4*l+10")) == P("1")
    assert poly_gcd(P("l^2+2*l+1"), ParamPoly(L, {})) == P("l^2+2*l+1")


def test_poly_gcd_rejects_two_parameters():
    tl = ("t", "l")
    with pytest.raises(ScalarError):
        poly_gcd(ParamPoly.var(tl, "t"), ParamPoly.var(tl, "l"))


def test_rational_roots_examples():
    assert rational_roots(P("l^2+4*l")) == {Fraction(0), Fraction(-4)}
    assert rational_roots(P("l^2+1")) == set()
    assert rational_roots(P("2*l^2-l-15")) == {Fraction(-5, 2), Fraction(3)}


def test_quadratic_split_examples():
    # 2l^2+10l+3: roots -(5 -+ sqrt19)/2; positive branch listed first
    r1, r2 = quadratic_split(P("2*l^2+10*l+3"))
    for r in (r1, r2):
        assert r * r + 5 * r + Fraction(3, 2) == 0
    assert r1.branch() == 0 and r2.branch() == 1
    assert r1 + r2 == Fraction(-5)
    assert r1 * r2 == Fraction(3, 2)
    r1, r2 = quadratic_split(P("2*l^2+7*l+2"))
    assert r1 + r2 == Fraction(-7, 2)
    assert r1 * r2 == Fraction(1)
    r1, r2 = quadratic_split(P("l^2-2"))
    assert r1 * r1 == Fraction(2)
    with pytest.raises(ScalarError):
        quadratic_split(P("l^2-1"))


def test_alg_arith_examples():
    sqrt19 = AlgebraicScalar(-19, 0, 0, 1)
    assert sqrt19 * sqrt19 == Fraction(19)
    a = AlgebraicScalar(-19, 0, 1, 1)
    b = AlgebraicScalar(-19, 0, 1, -1)
    assert a + b == Fraction(2)
    inv = AlgebraicScalar(-19, 0, 1, 0) / AlgebraicScalar(-19, 0, 2, 1)
    # oracle: multiply back
    assert inv * AlgebraicScalar(-19, 0, 2, 1) == Fraction(1)
    assert inv == AlgebraicScalar(-19, 0, Fraction(-2, 15), Fraction(1, 15))
    with pytest.raises(ZeroDivisionError):
        AlgebraicScalar(-19, 0, 0, 0).inverse()
    with pytest.raises(ScalarError):
        sqrt19 + AlgebraicScalar(-2, 0, 0, 1)


def test_field_axioms_randomized():
    rng = random.Random(0)

    def rand_rat():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 15))

    def rand_alg():
        return AlgebraicScalar(Fraction(3, 2), 5, rand_rat(), rand_rat())

    for maker in (rand_rat, rand_alg):
        for _ in range(500):
            a, b, c = maker(), maker(), maker()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a if isinstance(a, Fraction) else a.__neg__()) == 0
            if a:
                inv = 1 / a if isinstance(a, Fraction) else a.inverse()
                assert a * inv == 1


def test_quadratic_split_root_is_exact():
    p = P("2*l^2+10*l+3")
    for r in quadratic_split(p):
        acc = None
        for e, c in p.terms.items():
            term = c
            for _ in range(e[0]):
                term = term * r
            acc = term if acc is None else acc + term
        assert not acc


def test_squarefree_and_factors():
    assert squarefree_part(P("l^2+2*l+1")) == P("l+1")
    fs = irreducible_factors(P("l^4+7*l^3+14*l^2+8*l"))
    texts = sorted(f.text() for f in fs)
    assert texts == ["l", "l + 1", "l + 2", "l + 4"]
    # (l^2+5l+3/2)(l^2+1): the shift-6 locus shape
    quartic = P("l^2+5*l+3/2") * P("l^2+1")
    fs = irreducible_factors(quartic)
    assert sorted(f.text() for f in fs) == ["l^2 + 1", "l^2 + 5*l + 3/2"]
    with pytest.raises(ScalarError):
        irreducible_factors(P("l^3+l+1"))


def test_scalar_text_roundtrip():
    for text in ("2*l^2 + 10*l + 3", "l", "-l + 1/2", "0", "7/3"):
        p = P(text)
        assert parse_param_poly(p.text(), L) == p


def test_algebraic_json_roundtrip():
    r1, r2 = quadratic_split(P("2*l^2+10*l+3"))
    for r in (r1, r2, AlgebraicScalar(Fraction(3, 2), 5, Fraction(1, 3), 2)):
        back = AlgebraicScalar.from_json(r.to_json())
        assert back == r

import random
from fractions import Fraction

import pytest

from superdensity.superpoly import (ParseError, SuperPoly, all_monomials,
                                    parse_superpoly)


def sp(text, n):
    return parse_superpoly(text, n)


def test_mul_examples():
    t1 = SuperPoly.theta(2, 1)
    t2 = SuperPoly.theta(2, 2)
    x = SuperPoly.x(2)
    assert not t1 * t1
    assert t2 * t1 == -(t1 * t2)
    assert (x + t1 * t2) * t1 == sp("x*t1", 2)


def test_dx_examples():
    assert sp("x^3", 1).d_x() == sp("3*x^2", 1)
    assert not sp("t1", 1).d_x()
    assert sp("x^2*t1*t2", 2).d_x() == sp("2*x*t1*t2", 2)


def test_dtheta_examples():
    assert sp("t1*t2", 2).d_theta(1) == sp("t2", 2)
    assert sp("t1*t2", 2).d_theta(2) == -sp("t1", 2)
    assert not sp("x^2", 2).d_theta(1)


def test_eta_examples():
    assert sp("x", 1).eta(1) == -sp("t1", 1)
    assert sp("t1", 1).eta(1) == SuperPoly.const(1, 1)
    # -eta_i^2 = d_x, via two applications
    p = sp("x^2*t2", 2)
    assert p.eta(1).eta(1) == -sp("2*x*t2", 2)


def test_supercommutativity_exhaustive():
    for n in (1, 2):
        monos = all_monomials(n, 4)
        for p in monos:
            pp = p.parity()
            for q in monos:
                sign = -1 if pp and q.parity() else 1
                rhs = q * p
                assert p * q == (rhs if sign > 0 else -rhs)


def test_eta_clifford_relation():
    # eta_i eta_j + eta_j eta_i = -2 delta_ij d_x on every monomial
    for n in (1, 2):
        for p in all_monomials(n, 4):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    lhs = p.eta(j).eta(i) + p.eta(i).eta(j)
                    want = p.d_x().scale(Fraction(-2)) if i == j else SuperPoly.zero(n)
                    assert lhs == want


def test_eta_is_odd_derivation():
    rng = random.Random(3)
    monos = all_monomials(2, 3)
    for _ in range(300):
        p = monos[rng.randrange(len(monos))]
        q = monos[rng.randrange(len(monos))]
        i = rng.randint(1, 2)
        lhs = (p * q).eta(i)
        rhs = p.eta(i) * q
        t = p * q.eta(i)
        rhs = rhs + (-t if p.parity() else t)
        assert lhs == rhs


def test_mul_associativity_random():
    rng = random.Random(7)
    monos = all_monomials(2, 3)

    def rand_poly():
        out = SuperPoly.zero(2)
        for _ in range(rng.randint(1, 3)):
            m = monos[rng.randrange(len(monos))]
            out = out + m.scale(Fraction(rng.randint(-4, 4) or 1))
        return out

    for _ in range(500):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)


def test_parser_examples():
    assert sp("t2*t1", 2) == -sp("t1*t2", 2)
    p = sp("x^2 + 3/2*t1", 2)
    assert p.terms == {(2, 0): Fraction(1), (0, 1): Fraction(3, 2)}
    with pytest.raises(ParseError):
        sp("t1^2", 1)
    with pytest.raises(ParseError):
        sp("t3", 2)
    with pytest.raises(ParseError):
        sp("x +", 1)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        sp("x + %", 1)
    assert "column 5" in str(err.value)


def test_print_parse_roundtrip():
    rng = random.Random(5)
    monos = all_monomials(2, 3)
    for _ in range(200):
        p = SuperPoly.zero(2)
        for _ in range(rng.randint(1, 4)):
            m = monos[rng.randrange(len(monos))]
            p = p + m.scale(Fraction(rng.randint(-9, 9) or 2, rng.randint(1, 5)))
        assert parse_superpoly(p.text(), 2) == p
    assert parse_superpoly(SuperPoly.zero(2).text(), 2) == SuperPoly.zero(2)


def test_parity_and_parts():
    p = sp("x + t1", 1)
    assert p.parity() is None
    assert p.even_part() == sp("x", 1)
    assert p.odd_part() == sp("t1", 1)
    assert sp("t1*t2", 2).parity() == 0
    assert sp("t2", 2).parity() == 1


LONG = "number of more than 4300 digits"


@pytest.mark.parametrize("text, message", [
    ("1" + "0" * 5000, f"{LONG} (column 1)"),
    ("1/" + "3" * 5000, f"{LONG} (column 3)"),
    ("x^" + "1" * 5001, f"{LONG} (column 3)"),
    ("t" + "1" * 5000, f"{LONG} (column 2)"),
    ("t" + "1" * 4000, f"theta index t{'1' * 23}... out of range for arity 1 (column 1)"),
], ids=["coefficient", "denominator", "exponent", "theta-index", "theta-index-in-limit"])
def test_long_numbers_raise_a_short_parse_error(text, message):
    """Every digit run is checked against the 4300-digit limit before it is
    converted: a coefficient, a denominator, an exponent of x, a theta
    index.  A theta index under the limit but out of range is echoed
    clipped."""
    with pytest.raises(ParseError) as exc:
        parse_superpoly(text, 1)
    assert str(exc.value) == message
    assert "set_int_max_str_digits" not in message

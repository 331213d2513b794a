from fractions import Fraction

from superdensity.contact import (ContactField, SubalgebraSpec,
                                  contact_bracket, field_apply, generators)
from superdensity.superpoly import SuperPoly, all_monomials, parse_superpoly


def sp(text, n):
    return parse_superpoly(text, n)


def test_bracket_examples():
    one = SuperPoly.const(1, 1)
    x = SuperPoly.x(1)
    th = SuperPoly.theta(1, 1)
    assert contact_bracket(one, x) == one
    assert contact_bracket(th, th) == one.scale(Fraction(1, 2))
    assert contact_bracket(x, th) == th.scale(Fraction(-1, 2))


def test_aff11_bracket_table():
    # all four relations of the printed table
    one = SuperPoly.const(1, 1)
    x = SuperPoly.x(1)
    th = SuperPoly.theta(1, 1)
    assert contact_bracket(one, x) == one
    assert contact_bracket(x, th) == th.scale(Fraction(-1, 2))
    assert not contact_bracket(one, th)
    assert contact_bracket(th, th) == one.scale(Fraction(1, 2))


def test_field_apply_examples():
    p = sp("x^2 + t1*t2", 2)
    assert field_apply(ContactField(SuperPoly.const(2, 1)), p) == sp("2*x", 2)
    assert field_apply(ContactField(SuperPoly.x(1)), sp("t1", 1)) == sp("t1", 1).scale(Fraction(1, 2))
    assert field_apply(ContactField(SuperPoly.theta(1, 1)), sp("x", 1)) == sp("t1", 1).scale(Fraction(1, 2))


def test_bracket_homomorphism_bounded():
    for n in (1, 2):
        monos = all_monomials(n, 3)
        for f in monos:
            fp = f.parity()
            xf = ContactField(f)
            for g in monos:
                gp = g.parity()
                xg = ContactField(g)
                xfg = ContactField(contact_bracket(f, g))
                sign = -1 if fp and gp else 1
                for h in monos[: 2 ** n * 2]:
                    lhs = field_apply(xfg, h)
                    t1 = field_apply(xf, field_apply(xg, h))
                    t2 = field_apply(xg, field_apply(xf, h))
                    assert lhs == t1 - (t2 if sign > 0 else -t2)


def test_super_antisymmetry():
    for n in (1, 2):
        monos = all_monomials(n, 3)
        for f in monos:
            fp = f.parity()
            for g in monos:
                sign = -1 if fp and g.parity() else 1
                rhs = contact_bracket(g, f)
                assert contact_bracket(f, g) == -(rhs if sign > 0 else -rhs)


def test_super_jacobi_bounded():
    for n in (1, 2):
        monos = [m for m in all_monomials(n, 2)]
        for f in monos:
            fp = f.parity()
            for g in monos:
                gp = g.parity()
                sfg = -1 if fp and gp else 1
                for h in monos:
                    if f.max_xdeg() + g.max_xdeg() + h.max_xdeg() > 4:
                        continue
                    lhs = contact_bracket(f, contact_bracket(g, h))
                    t1 = contact_bracket(contact_bracket(f, g), h)
                    t2 = contact_bracket(g, contact_bracket(f, h))
                    assert lhs == t1 + (t2 if sfg > 0 else -t2)


def test_generators_examples():
    g1 = generators(SubalgebraSpec("aff", 1))
    assert [p.text() for p in g1] == ["1", "x", "t1"]
    g2 = generators(SubalgebraSpec("aff", 2))
    assert [p.text() for p in g2] == ["1", "x", "t1", "t2", "t1*t2"]
    g0 = generators(SubalgebraSpec("aff", 0))
    assert [p.text() for p in g0] == ["1", "x"]


def test_generators_excluded():
    g = generators(SubalgebraSpec("aff", 2, excluded=2))
    assert [p.text() for p in g] == ["1", "x", "t1"]

import functools
import itertools
import json
import operator
import random
from fractions import Fraction

import pytest

from superdensity.densities import Density
from superdensity.cohomology import build_ansatz
from superdensity.diffop import (BiDiffOp, LinDiffOp, act_on_bi, act_on_lin,
                                 apply_bi, apply_bi_poly, apply_lin,
                                 bi_act_sums, lin_act_sums, bi_L_hat, bi_from_json, bi_left_compose,
                                 bi_slot1_compose, bi_slot1_partial,
                                 bi_slot2_compose, bi_to_json,
                                 coboundary_of_lin, compose_lin,
                                 decompose_psi, lift_generator,
                                 lift_hamiltonian, normal_order, parity_swap,
                                 phi_decompose, phi_reassemble, psi_lift,
                                 psi_component_action, PSI_ROUTES,
                                 _add_pair, _split_lift, word_products)
from superdensity.scalars import ParamPoly
from superdensity.superpoly import SuperPoly, all_monomials, parse_superpoly

L = ("l",)
LAM = ParamPoly.var(L, "l")


def C(q):
    return ParamPoly.const(L, q)


def sp(text, n):
    return parse_superpoly(text, n)


def test_apply_lin_examples():
    dx = LinDiffOp.word(0, k=1, **{})
    d = Density(sp("x^3", 0), LAM)
    out = apply_lin(LinDiffOp(0, dx.terms, lam=LAM, mu=LAM + C(1)), d)
    assert out.payload == sp("3*x^2", 0)
    assert out.weight == LAM + C(1)
    e1 = LinDiffOp.word(1, eps=1)
    assert e1.apply_poly(sp("t1", 1)) == SuperPoly.const(1, 1)
    # eta1 eta2 on t2*t1, oracle: two sequential eta calls
    w = LinDiffOp.word(2, eps=3)
    p = sp("t2*t1", 2)
    assert w.apply_poly(p) == p.eta(2).eta(1)


def test_normal_order_examples():
    assert normal_order(["e1", "e1"], 1) == LinDiffOp.word(1, k=1, coeff=-1)
    dx_x = normal_order(["dx", "x"], 1)
    assert dx_x == LinDiffOp(1, {(1, 0, 1, 0): Fraction(1), (0, 0, 0, 0): Fraction(1)})
    # eta1 o theta1 = 1 - theta1 eta1, checked on all monomials x^a theta^S, a <= 3
    e1t1 = normal_order(["e1", "t1"], 1)
    want = LinDiffOp(1, {(0, 0, 0, 0): Fraction(1), (0, 1, 0, 1): Fraction(-1)})
    assert e1t1 == want
    t1 = sp("t1", 1)
    for p in all_monomials(1, 3):
        assert e1t1.apply_poly(p) == (t1 * p).eta(1)
    # remaining rewrite rules
    assert normal_order(["e1", "x"], 1) == LinDiffOp(
        1, {(1, 0, 0, 1): Fraction(1), (0, 1, 0, 0): Fraction(-1)})
    assert normal_order(["e1", "t2"], 2) == LinDiffOp(
        2, {(0, 2, 0, 1): Fraction(-1)})
    assert normal_order(["e1", "e2"], 2) == -normal_order(["e2", "e1"], 2)
    assert normal_order(["dx", "t1"], 1) == LinDiffOp(1, {(0, 1, 1, 0): Fraction(1)})


def test_normal_order_soundness_exhaustive():
    # every formal word of length <= 3 over the generators agrees with
    # sequential application on all monomials (n = 2, x-degree <= 4)
    rng = random.Random(0)
    gens = ["x", "dx", "t1", "t2", "e1", "e2"]
    monos = all_monomials(2, 4)

    def apply_token(tok, p):
        if tok == "x":
            return SuperPoly.x(2) * p
        if tok == "dx":
            return p.d_x()
        if tok.startswith("t"):
            return SuperPoly.theta(2, int(tok[1])) * p
        return p.eta(int(tok[1]))

    words = [[a] for a in gens] + [[a, b] for a in gens for b in gens]
    words += [[a, b, c] for a in gens for b in gens for c in gens]
    words += [[gens[rng.randrange(6)] for _ in range(4)] for _ in range(120)]
    for word in words:
        op = normal_order(word, 2)
        for p in monos:
            want = p
            for tok in reversed(word):
                want = apply_token(tok, want)
            assert op.apply_poly(p) == want, word


@pytest.mark.parametrize("n", [0, 1, 2])
def test_word_application_exhaustive(n):
    """Every word theta^S dx^k eta^eps with k <= 6, applied to every
    monomial of x-degree <= 8, is theta^S times the eta_i (largest i
    first) and d_x applied in turn: an oracle that does not go through
    push_through."""
    monos = all_monomials(n, 8)
    for S in range(1 << n):
        theta_s = SuperPoly.monomial(n, 0, S)
        for eps in range(1 << n):
            etas = [i for i in range(n, 0, -1) if eps >> (i - 1) & 1]
            for k in range(7):
                op = LinDiffOp.word(n, S=S, k=k, eps=eps)
                for p in monos:
                    want = p
                    for i in etas:
                        want = want.eta(i)
                    for _ in range(k):
                        want = want.d_x()
                    assert op.apply_poly(p) == theta_s * want, (S, k, eps, p)


def test_compose_lin_oracle_random():
    rng = random.Random(11)
    monos = all_monomials(2, 4)
    for _ in range(150):
        a = LinDiffOp(2, {(rng.randint(0, 2), rng.randint(0, 3),
                           rng.randint(0, 2), rng.randint(0, 3)): Fraction(rng.randint(-3, 3) or 1)})
        b = LinDiffOp(2, {(rng.randint(0, 2), rng.randint(0, 3),
                           rng.randint(0, 2), rng.randint(0, 3)): Fraction(rng.randint(-3, 3) or 1)})
        c = compose_lin(a, b)
        for p in monos[:12]:
            assert c.apply_poly(p) == a.apply_poly(b.apply_poly(p))


def test_lift_generator_table_and_oracle():
    from superdensity.densities import act
    for n in (1, 2):
        gens = [SuperPoly.const(n, 1), SuperPoly.x(n)]
        gens += [SuperPoly.theta(n, i) for i in range(1, n + 1)]
        if n == 2:
            gens.append(sp("t1*t2", 2))
        for h in gens:
            op = lift_generator(h, LAM)
            assert op == lift_hamiltonian(h, LAM, n)
            for p in all_monomials(n, 3):
                assert op.apply_poly(p) == act(LAM, h, Density(p, LAM)).payload
    # closed forms
    assert lift_generator(SuperPoly.const(0, 1), LAM) == LinDiffOp.word(0, k=1)
    lx = lift_generator(SuperPoly.x(1), LAM)
    assert lx.terms[(0, 0, 0, 0)] == LAM
    lt = lift_generator(SuperPoly.theta(1, 1), LAM)
    assert lt == LinDiffOp(1, {(0, 1, 1, 0): Fraction(1), (0, 0, 0, 1): Fraction(1, 2)})


def test_act_on_lin_examples():
    # H = 1, A = dx, lam = mu -> 0
    assert not act_on_lin(SuperPoly.const(0, 1), LinDiffOp.word(0, k=1), LAM, LAM)
    # H = x, A = dx^k: X_x . A = (mu - lam - k) dx^k
    for k in (1, 2, 3):
        a = LinDiffOp.word(0, k=k)
        out = act_on_lin(SuperPoly.x(0), a, LAM, LAM + C(k))
        assert not out
        out = act_on_lin(SuperPoly.x(0), a, LAM, LAM)
        assert out == a.scale(C(-k))
    # H = theta1, A = id, mu = lam -> 0
    assert not act_on_lin(SuperPoly.theta(1, 1), LinDiffOp.identity(1), LAM, LAM)


def composed_action(h, a, lam, mu):
    """The module action as the two compositions that define it, the oracle
    for act_on_lin: L^mu_{X_H} o A - (-1)^{|A||H|} A o L^lam_{X_H}."""
    lm = lift_hamiltonian(h, mu, a.n)
    right = compose_lin(a, lift_hamiltonian(h, lam, a.n))
    if h.parity() and a.parity():
        return compose_lin(lm, a) + right
    return compose_lin(lm, a) - right


def random_operator(rng, n, parity, words):
    """A parity-homogeneous operator of `words` words with coefficients in
    (1/6)Z."""
    terms = {}
    while len(terms) < words:
        key = (rng.randint(0, 2), rng.randrange(1 << n), rng.randint(0, 2),
               rng.randrange(1 << n))
        if (bin(key[1]).count("1") + bin(key[3]).count("1")) & 1 == parity:
            terms[key] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.choice((1, 2, 3, 6)))
    return LinDiffOp(n, terms)


def _weights():
    """(lam, mu) pairs: symbolic, mu = lam + shift, rational and quadratic."""
    from superdensity.scalars import AlgebraicScalar
    t = ParamPoly.var(("t", "l"), "t")
    root = AlgebraicScalar(Fraction(3, 2), 5, 0, 1)     # root of l^2 + 5l + 3/2
    return [(LAM, LAM + C(Fraction(3, 2))), (LAM, LAM),
            (ParamPoly.var(("t", "l"), "l"), t),
            (Fraction(3, 7), Fraction(-5, 11)), (Fraction(0), Fraction(2)),
            (root, root + 2)]


def assert_same_terms(got, want):
    """Equal operators, term for term: the same keys in the same order
    and coefficients of the same type."""
    assert list(got.terms) == list(want.terms)
    assert [(type(c), c) for c in got.terms.values()] == \
        [(type(c), c) for c in want.terms.values()]


def test_act_on_lin_matches_composition_on_monomials():
    """Every monomial H of x-degree <= 3, n <= 2, on multi-word A of both
    parities, at symbolic, rational and quadratic weights."""
    rng = random.Random(31)
    for n in (0, 1, 2):
        ops = [random_operator(rng, n, p, w) for p in ((0, 1) if n else (0,))
               for w in (1, 3, 5)]
        for h in all_monomials(n, 3):
            for a in ops:
                for lam, mu in _weights():
                    assert_same_terms(act_on_lin(h, a, lam, mu),
                                      composed_action(h, a, lam, mu))


def test_act_on_lin_matches_composition_on_sums():
    """A non-monomial hamiltonian with Fraction coefficients."""
    rng = random.Random(37)
    for n, text in ((0, "2/3*x^3 - 1/2*x + 5"), (1, "3/4*x^2*t1 - 7*t1 + 1/3*x*t1"),
                    (2, "1/2*x^2 - 3*t1*t2 + 5/7*x*t1*t2 + 2")):
        h = sp(text, n)
        assert h.parity() is not None and len(h.terms) > 1
        for p in ((0, 1) if n else (0,)):
            a = random_operator(rng, n, p, 4)
            for lam, mu in _weights():
                assert_same_terms(act_on_lin(h, a, lam, mu), composed_action(h, a, lam, mu))


def test_representation_on_operators():
    # act([F,G]) = act(F) act(G) -+ act(G) act(F) on random operators
    from superdensity.contact import contact_bracket, SubalgebraSpec, generators
    rng = random.Random(5)
    n = 2
    gens = generators(SubalgebraSpec("aff", n))
    mu = LAM + C(Fraction(3, 2))
    for _ in range(20):
        a = LinDiffOp(n, {(0, rng.randint(0, 3), rng.randint(0, 1),
                           rng.randint(0, 3)): Fraction(rng.randint(1, 3))})
        ap = a.parity()
        if ap is None:
            continue
        for f in gens:
            fp = f.parity()
            for g in gens:
                gp = g.parity()
                br = contact_bracket(f, g)
                lhs = LinDiffOp.zero(n)
                for part in br.homogeneous_parts():
                    lhs = lhs + act_on_lin(part, a, LAM, mu)
                t1 = act_on_lin(f, act_on_lin(g, a, LAM, mu), LAM, mu)
                t2 = act_on_lin(g, act_on_lin(f, a, LAM, mu), LAM, mu)
                sign = -1 if fp and gp else 1
                assert lhs == t1 - (t2 if sign > 0 else -t2)


def test_apply_bi_examples():
    # J0(F,G) = FG
    j0 = BiDiffOp.term(1)
    assert apply_bi_poly(j0, sp("t1", 1), sp("x", 1)) == sp("x*t1", 1)
    # eta(F) eta(G) term on (t1, t1): (-1)^{|t1|} * 1 * 1 = -1
    j = BiDiffOp.term(1, e1=1, e2=1)
    assert apply_bi_poly(j, sp("t1", 1), sp("t1", 1)) == SuperPoly.const(1, -1)
    # linearity: J(0, d2) = 0
    assert not apply_bi_poly(j, SuperPoly.zero(1), sp("x", 1))


def test_apply_bi_koszul_sign_rule():
    # sign flips exactly when both the slot-2 word and the first density are odd
    n = 1
    d_odd = Density(sp("t1", 1), C(-1))
    d_even = Density(sp("x", 1), C(-1))
    g = Density(sp("x*t1", 1), LAM)
    odd2 = BiDiffOp(n, {(0, 0, 0, 0, 0, 1): Fraction(1)}, tau=C(-1), lam=LAM)
    even2 = BiDiffOp(n, {(0, 0, 0, 0, 1, 0): Fraction(1)}, tau=C(-1), lam=LAM)
    # compare against the raw unsigned product
    raw_odd = d_odd.payload * g.payload.eta(1)
    assert apply_bi(odd2, d_odd, g).payload == -raw_odd
    raw_even = d_even.payload * g.payload.eta(1)
    assert apply_bi(even2 if False else odd2, d_even, g).payload == raw_even
    assert apply_bi(even2, d_odd, g).payload == d_odd.payload * g.payload.d_x()
    # Pi flag on the first slot flips the effective parity
    d_odd_pi = Density(sp("t1", 1), C(-1), pi_flag=True)
    assert apply_bi(odd2, d_odd_pi, g).payload == raw_odd


def test_bi_L_hat_is_the_density_action():
    from superdensity.densities import act
    for n in (1, 2):
        lhat = bi_L_hat(LAM, n)
        for f in all_monomials(n, 2):
            for d in all_monomials(n, 2):
                want = act(LAM, f, Density(d, LAM)).payload
                assert apply_bi_poly(lhat, f, d) == want


def test_slot_compositions_oracles():
    rng = random.Random(23)
    n = 2
    monos = all_monomials(n, 2)
    for _ in range(40):
        j = BiDiffOp(n, {(rng.randint(0, 1), rng.randint(0, 3),
                          rng.randint(0, 1), rng.randint(0, 3),
                          rng.randint(0, 1), rng.randint(0, 3)): Fraction(rng.randint(1, 3))})
        op = LinDiffOp(n, {(rng.randint(0, 1), rng.randint(0, 3),
                            rng.randint(0, 1), rng.randint(0, 3)): Fraction(rng.randint(1, 3))})
        lp = op.parity()
        jl = bi_left_compose(op, j)
        j1 = bi_slot1_compose(j, op)
        j2 = bi_slot2_compose(j, op)
        for f in monos[:8]:
            for d in monos[:8]:
                assert apply_bi_poly(jl, f, d) == op.apply_poly(apply_bi_poly(j, f, d))
                assert apply_bi_poly(j1, f, d) == apply_bi_poly(j, op.apply_poly(f), d)
                want = apply_bi_poly(j, f, op.apply_poly(d))
                if lp and f.parity():
                    want = -want
                assert apply_bi_poly(j2, f, d) == want


@pytest.mark.parametrize("n", [0, 1, 2])
def test_left_composition_exhaustive(n):
    """op o J against evaluation, op(J(f, g)), for every op word
    theta^S dx^k eta^eps with k <= 3 and every one-term J with k1, k2 <= 1,
    any eta on either slot and the coefficient x^a theta^S, a <= 1.  f and
    g are sums of every monomial of x-degree <= 3 with random coefficients:
    both sides are bilinear, so one evaluation checks every pair of
    monomials at once.  dx^2 and dx^3 split with binomial coefficients."""
    rng = random.Random(41)
    monos = [key for p in all_monomials(n, 3) for key in p.terms]
    f = SuperPoly(n, {key: rng.randint(1, 10 ** 6) for key in monos})
    g = SuperPoly(n, {key: rng.randint(1, 10 ** 6) for key in monos})
    masks = range(1 << n)
    for a, S, k1, e1, k2, e2 in itertools.product((0, 1), masks, (0, 1), masks, (0, 1), masks):
        j = BiDiffOp(n, {(a, S, k1, e1, k2, e2): 1})
        value = apply_bi_poly(j, f, g)
        for s0, k0, e0 in itertools.product(masks, range(4), masks):
            op = LinDiffOp(n, {(0, s0, k0, e0): 1})
            assert apply_bi_poly(bi_left_compose(op, j), f, g) == op.apply_poly(value), \
                ((s0, k0, e0), (a, S, k1, e1, k2, e2))


def test_act_on_bi_examples():
    tau = ParamPoly.var(("t", "l"), "t")
    lam = ParamPoly.var(("t", "l"), "l")
    # H = 1, J = FG, mu = tau + lam -> 0
    j0 = BiDiffOp.term(1)
    assert not act_on_bi(SuperPoly.const(1, 1), j0, tau, lam, tau + lam)
    # H = x, shift-k term with mu != tau+lam+k scales by (mu-tau-lam-k)
    j = BiDiffOp.term(1, k1=1)  # shift 1
    out = act_on_bi(SuperPoly.x(1), j, tau, lam, tau + lam)
    assert out == j.scale(ParamPoly.const(("t", "l"), -1))
    # H = theta1, J = J0 -> 0 (FG is invariant)
    assert not act_on_bi(SuperPoly.theta(1, 1), j0, tau, lam, tau + lam)


def composed_bi_action(h, j, tau, lam, mu):
    """The bilinear module action as the three compositions that define it,
    the oracle for act_on_bi:
    L^mu o J - (-1)^{|J||H|} J o (L^tau (x) 1 + sigma-passed 1 (x) L^lam)."""
    lm = lift_hamiltonian(h, mu, j.n)
    right = (bi_slot1_compose(j, lift_hamiltonian(h, tau, j.n))
             + bi_slot2_compose(j, lift_hamiltonian(h, lam, j.n)))
    if h.parity() and j.parity():
        return bi_left_compose(lm, j) + right
    return bi_left_compose(lm, j) - right


def random_bi_operator(rng, n, parity, words):
    """A parity-homogeneous bilinear operator of `words` words with
    coefficients in (1/6)Z."""
    terms = {}
    while len(terms) < words:
        key = (rng.randint(0, 2), rng.randrange(1 << n), rng.randint(0, 2),
               rng.randrange(1 << n), rng.randint(0, 2), rng.randrange(1 << n))
        if sum(bin(m).count("1") for m in key[1::2]) & 1 == parity:
            terms[key] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                                  rng.choice((1, 2, 3, 6)))
    return BiDiffOp(n, terms)


def _bi_weights():
    """(tau, lam, mu): symbolic (t, l) with mu = t + l + k and mu free,
    rational, zero (Fraction and ParamPoly), and quadratic."""
    from superdensity.scalars import AlgebraicScalar
    V = ("t", "l")
    t, lam = ParamPoly.var(V, "t"), ParamPoly.var(V, "l")
    root = AlgebraicScalar(Fraction(3, 2), 5, 0, 1)     # root of l^2 + 5l + 3/2
    return [(t, lam, t + lam + ParamPoly.const(V, Fraction(3, 2))),
            (t, lam, lam * 2),
            (C(-1), LAM, LAM + C(2)),
            (Fraction(3, 7), Fraction(-5, 11), Fraction(1, 2)),
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(-1), Fraction(0), Fraction(1, 2)),
            (C(0), C(0), LAM + C(1)),
            (root, root + 1, root * 2)]


def test_act_on_bi_matches_composition_on_monomials():
    """Every monomial H of x-degree <= 3, n <= 2, on unit ansatz words and
    multi-term J of both parities, at symbolic, rational, zero and
    quadratic weights: the same keys in the same order, with coefficients
    of the same types."""
    rng = random.Random(43)
    for n in (0, 1, 2):
        ops = [random_bi_operator(rng, n, p, w) for p in ((0, 1) if n else (0,))
               for w in (1, 4)]
        ops += [BiDiffOp(n, {key: Fraction(1)})
                for key in build_ansatz(n, 3).terms[:6] + build_ansatz(n, 4).terms[:6]]
        for h in all_monomials(n, 3):
            for j in ops:
                for tau, lam, mu in _bi_weights():
                    assert_same_terms(act_on_bi(h, j, tau, lam, mu),
                                      composed_bi_action(h, j, tau, lam, mu))


def test_act_on_bi_matches_composition_on_sums():
    """A non-monomial hamiltonian with Fraction coefficients."""
    rng = random.Random(47)
    for n, text in ((0, "2/3*x^3 - 1/2*x + 5"), (1, "3/4*x^2*t1 - 7*t1 + 1/3*x*t1"),
                    (2, "1/2*x^2 - 3*t1*t2 + 5/7*x*t1*t2 + 2")):
        h = sp(text, n)
        for p in ((0, 1) if n else (0,)):
            j = random_bi_operator(rng, n, p, 3)
            for tau, lam, mu in _bi_weights():
                assert_same_terms(act_on_bi(h, j, tau, lam, mu),
                                  composed_bi_action(h, j, tau, lam, mu))


def test_bi_act_sums_value_to_the_action():
    """The int sums of bi_act_sums, valued at independent symbolic weights,
    give act_on_bi term for term; on a multi-term J they hold Fractions."""
    V = ("t", "l", "m")
    tau, lam, mu = (ParamPoly.var(V, v) for v in V)
    half = ParamPoly.const(V, Fraction(1, 2))
    rng = random.Random(53)
    for n in (0, 1, 2):
        words = [BiDiffOp(n, {key: 1}) for key in build_ansatz(n, 2).terms[:8]]
        for h in all_monomials(n, 2):
            for j in words + [random_bi_operator(rng, n, 0, 3)]:
                want = act_on_bi(h, j, tau, lam, mu)
                got = {key: half * c + mu * cm + tau * ct + lam * cl
                       for key, (c, cm, ct, cl) in bi_act_sums(h, j).items()}
                assert list(got) == list(want.terms)
                assert all(got[key] == v for key, v in want.terms.items())


def _words(a):
    """The one-word operators of A, in order."""
    return [LinDiffOp(a.n, {key: c}) for key, c in a.terms.items()]


def test_lin_act_sums_value_to_the_action():
    """The int pairs of lin_act_sums, valued as (c + x lam)/2, give the
    composed action at mu = lam + twos/2 key for key, in order: every
    monomial H of x-degree <= 3, n <= 2, on each word of integral
    multi-word A of both parities at several shifts; a non-monomial H with
    Fraction coefficients gives Fraction pairs of the same value."""
    rng = random.Random(59)

    def check(h, a, twos):
        for word in _words(a):
            want = composed_action(h, word, LAM, LAM + C(Fraction(twos, 2)))
            got = {key: C(Fraction(c, 2)) + LAM * C(Fraction(x, 2))
                   for key, (c, x) in lin_act_sums(h, word, twos).items()}
            assert list(got) == list(want.terms)
            assert all(got[key] == v for key, v in want.terms.items())

    for n in (0, 1, 2):
        ops = [LinDiffOp(n, {key: int(6 * c) for key, c in
                             random_operator(rng, n, p, w).terms.items()})
               for p in ((0, 1) if n else (0,)) for w in (1, 3)]
        for h in all_monomials(n, 3):
            for a in ops:
                for word in _words(a):
                    for key, (c, x) in lin_act_sums(h, word, 3).items():
                        assert type(c) is int and type(x) is int and (c or x)
                for twos in (0, 3, 8):
                    check(h, a, twos)
    for n, text in ((0, "2/3*x^3 - 1/2*x + 5"), (1, "3/4*x^2*t1 - 7*t1 + 1/3*x*t1"),
                    (2, "1/2*x^2 - 3*t1*t2 + 5/7*x*t1*t2 + 2")):
        for p in ((0, 1) if n else (0,)):
            for twos in (1, 4):
                check(sp(text, n), random_operator(rng, n, p, 3), twos)


def test_coboundary_examples():
    # lam = mu, A = identity -> delta A = 0
    assert not coboundary_of_lin(LinDiffOp.identity(1), LAM, LAM)
    # n = 0, shift 2, A = dx^2: delta A != 0, matches the hand expansion
    da = coboundary_of_lin(LinDiffOp.word(0, k=2), LAM, LAM + C(2))
    assert da
    # oracle: delta A (X_F)(f) = (-1)^{|F||A|}[L^mu(A f) - A(L^lam f)]
    from superdensity.densities import act
    for f in all_monomials(0, 4):
        for d in all_monomials(0, 4):
            lhs = apply_bi_poly(da, f, d)
            t0 = act(LAM + C(2), f, Density(d.d_x().d_x(), LAM + C(2))).payload
            t1 = act(LAM, f, Density(d, LAM)).payload.d_x().d_x()
            assert lhs == t0 - t1


def test_parity_swap():
    j = BiDiffOp.term(1, e1=1, coeff=2)
    sw = parity_swap(j)
    assert sw.sigma1 and sw.sigma2 and sw.pi_out
    # applied twice -> identity on the nose under this convention
    assert parity_swap(sw) == j
    # value semantics: sw(F,G) = (-1)^{|F|+|G|} j(F,G)
    for f in all_monomials(1, 2):
        for g in all_monomials(1, 2):
            sign = (-1) ** ((f.parity() or 0) + (g.parity() or 0))
            want = apply_bi_poly(j, f, g)
            assert apply_bi_poly(sw, f, g) == (want if sign > 0 else -want)


def test_parity_swap_equivariance():
    # od(X_H . A) = X_H .Pi od(A) checked by evaluation
    from superdensity.contact import SubalgebraSpec, generators
    rng = random.Random(9)
    n = 1
    tau = ParamPoly.var(("t", "l"), "t")
    lam = ParamPoly.var(("t", "l"), "l")
    mu = tau + lam + ParamPoly.const(("t", "l"), 1)
    monos = all_monomials(n, 2)
    for _ in range(10):
        key = (0, rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1),
               rng.randint(0, 1), rng.randint(0, 1))
        j = BiDiffOp(n, {key: Fraction(1)})
        jp = j.parity()
        for h in generators(SubalgebraSpec("aff", n)):
            hp = h.parity()
            acted = act_on_bi(h, j, tau, lam, mu)
            lhs = parity_swap(acted)
            # Pi-twisted action on the swapped operator, by evaluation:
            # X.Pi B = L^mu o B - (-1)^{(|B|+1)|H|} B o Leibniz
            sw = parity_swap(j)
            for f in monos[:6]:
                for d in monos[:6]:
                    t0 = lift_hamiltonian(h, mu, n).apply_poly(apply_bi_poly(sw, f, d))
                    t1 = apply_bi_poly(sw, lift_hamiltonian(h, tau, n).apply_poly(f), d)
                    t2 = apply_bi_poly(sw, f, lift_hamiltonian(h, lam, n).apply_poly(d))
                    if hp and f.parity():
                        t2 = -t2
                    rest = t1 + t2
                    sgn = -1 if (hp and ((jp + 1) & 1)) else 1
                    want = t0 - (rest if sgn > 0 else -rest)
                    assert apply_bi_poly(lhs, f, d) == want


def test_phi_decompose_examples_and_roundtrip():
    n = 2
    ident = LinDiffOp.identity(n)
    b11, b22, b21, b12 = phi_decompose(ident)
    assert b11 == LinDiffOp.identity(1) and b22 == LinDiffOp.identity(1)
    assert not b21 and not b12
    dx = LinDiffOp.word(n, k=1)
    b11, b22, b21, b12 = phi_decompose(dx)
    assert b11 == LinDiffOp.word(1, k=1) and b22 == LinDiffOp.word(1, k=1)
    assert not b21 and not b12
    en = LinDiffOp.word(n, eps=2)
    b11, b22, b21, b12 = phi_decompose(en)
    assert not b11 and not b22
    assert b21 and b12            # off-diagonal only
    rng = random.Random(31)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 1), rng.randint(0, 3), rng.randint(0, 2),
                   rng.randint(0, 3))] = Fraction(rng.randint(-3, 3) or 1)
        a = LinDiffOp(n, terms)
        blocks = phi_decompose(a)
        for p in all_monomials(n, 3):
            assert phi_reassemble(blocks, n, p) == a.apply_poly(p)


def test_psi_lift_examples_and_roundtrip():
    n = 1
    zero = BiDiffOp(0, {})
    assert not psi_lift(tuple(zero for _ in range(8)), n)
    mult = BiDiffOp.term(0)
    comps = tuple(mult if i == 0 else zero for i in range(8))
    j = psi_lift(comps, n)
    # multiplication restricted to theta_n-free arguments
    assert apply_bi_poly(j, sp("x", 1), sp("x^2", 1)) == sp("x^3", 1)
    assert not apply_bi_poly(j, sp("t1", 1), sp("x", 1))
    rng = random.Random(13)
    for _ in range(10):
        comps = []
        for _ in range(8):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                terms[(rng.randint(0, 1), 0, rng.randint(0, 2), 0,
                       rng.randint(0, 2), 0)] = Fraction(rng.randint(-2, 2) or 1)
            comps.append(BiDiffOp(0, terms))
        j = psi_lift(tuple(comps), n)
        back = decompose_psi(j)
        assert all(c1.terms == c2.terms for c1, c2 in zip(comps, back))


def test_psi_equivariance():
    from superdensity.contact import SubalgebraSpec, generators
    rng = random.Random(17)
    V = ("t", "l")
    tau = ParamPoly.var(V, "t")
    lam = ParamPoly.var(V, "l")
    half = ParamPoly.const(V, Fraction(1, 2))
    zero = ParamPoly.const(V, 0)
    n = 2
    mu = tau + lam + ParamPoly.const(V, Fraction(3, 2))
    weights = []
    for (s1, s2, so) in PSI_ROUTES:
        weights.append((tau + (half if s1 == 2 else zero),
                        lam + (half if s2 == 2 else zero),
                        mu + (half if so == 2 else zero)))
    gens = generators(SubalgebraSpec("aff", n, excluded=n))
    for trial in range(6):
        par = trial % 2

        def rnd(parity):
            while True:
                key = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1),
                       rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
                a, s, k1, e1, k2, e2 = key
                if (bin(s).count("1") + bin(e1).count("1") + bin(e2).count("1")) % 2 == parity:
                    return BiDiffOp(1, {key: Fraction(rng.randint(-2, 2) or 1)})

        comps = tuple(rnd(par) if i < 4 else rnd(par ^ 1) for i in range(8))
        j = psi_lift(comps, n)
        for h in gens:
            h1 = SuperPoly(1, dict(h.terms))
            lhs = act_on_bi(h, j, tau, lam, mu)
            parts = tuple(psi_component_action(h1, comp, PSI_ROUTES[i], *weights[i])
                          for i, comp in enumerate(comps))
            assert lhs.terms == psi_lift(parts, n).terms


def test_bi_json_roundtrip():
    rng = random.Random(41)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 2),
                   rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 3))] = \
                Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
        j = BiDiffOp(2, terms, tau=C(-1), lam=LAM, mu=LAM + C(2))
        blob = json.dumps(bi_to_json(j), sort_keys=True)
        back = bi_from_json(json.loads(blob), L)
        assert back == j and back.tau == j.tau and back.lam == j.lam and back.mu == j.mu
    # twisted operators round-trip their flags
    sw = parity_swap(BiDiffOp.term(1, e1=1))
    back = bi_from_json(json.loads(json.dumps(bi_to_json(sw))), ())
    assert back == sw


def test_operator_equality_evaluation_oracle():
    # canonical-term equality agrees with evaluation-based equality
    rng = random.Random(6)
    monos = all_monomials(2, 5)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 1), rng.randint(0, 3), rng.randint(0, 2),
                   rng.randint(0, 3))] = Fraction(rng.randint(-3, 3) or 1)
        a = LinDiffOp(2, terms)
        jumbled = list(terms.items())
        rng.shuffle(jumbled)
        b = LinDiffOp(2, dict(jumbled))
        assert a == b
        c = a + LinDiffOp.word(2, k=1, coeff=Fraction(1, 7))
        assert a != c
        assert any(a.apply_poly(p) != c.apply_poly(p) for p in monos)


def _doubled_pairs(op):
    """{key: (c, x)} for the coefficients (c + x lam)/2 of an operator with
    Fraction and ParamPoly('l') coefficients (the form of lin_act_sums)."""
    out = {}
    for key, e in op.terms.items():
        terms = {(0,): e} if isinstance(e, Fraction) else e.terms
        pair = tuple(2 * Fraction(terms.get((p,), 0)) for p in (0, 1))
        assert all(v.denominator == 1 for v in pair)
        out[key] = tuple(v.numerator for v in pair)
    return out


def test_lin_act_sums_tables_on_one_word():
    """The action tables are keyed by the word's theta^S dx^k eta^eps and
    not by its x^a: on every one-word A = c x^a theta^S dx^k eta^eps, a in
    {0, 1, 2, 5}, k <= 4, of both parities, and every monomial H of
    x-degree <= 4, n <= 2, lin_act_sums gives act_on_lin at
    mu = lam + twos/2 key for key, in order, as int pairs.  The cached
    tables serve every call, as they serve every cell; at a = 0 the
    products that carry the factor a vanish, at a = 1 they land on x^0."""
    for n in (0, 1, 2):
        words = [(a, S, k, e) for a in (0, 1, 2, 5) for S in range(1 << n)
                 for k in range(5) for e in range(1 << n)]
        for h in all_monomials(n, 4):
            for i, word in enumerate(words):
                op = LinDiffOp(n, {word: (-3, 1, 2)[i % 3]})
                for twos in (0, 3, 8):
                    got = lin_act_sums(h, op, twos)
                    want = _doubled_pairs(act_on_lin(h, op, LAM, LAM + C(Fraction(twos, 2))))
                    assert list(got.items()) == list(want.items())
                    assert all(type(c) is int and type(x) is int for c, x in got.values())


def test_lin_act_sums_needs_parity_homogeneous_inputs():
    """A parity-mixed H raises ScalarError, and so does an A of more than
    one word, of mixed parity or not."""
    from superdensity.scalars import ScalarError
    word = LinDiffOp(1, {(0, 1, 0, 0): 1})
    mixed = LinDiffOp(1, {(0, 1, 0, 0): 1, (1, 0, 0, 0): 1})
    even = LinDiffOp(1, {(0, 0, 1, 0): 1, (1, 0, 0, 0): 1})
    for h, a in ((sp("x + t1", 1), word), (sp("t1", 1), mixed), (sp("t1", 1), even)):
        with pytest.raises(ScalarError):
            lin_act_sums(h, a, 2)


# The staged lin_act_sums that the action tables replace, kept as their
# oracle: product tables per hamiltonian, word shape and shift, summed
# product by product as act_on_lin adds them.

@functools.cache
def _staged_left(hterms, n, s2, e2, twos):
    base, weight, _ = _split_lift(SuperPoly(n, dict(hterms)), n)
    groups = []
    for lift_terms, cw, xw in ((base, 1, 0), (weight, twos, 2)):
        for (b1, s1, k1, e1), c1 in lift_terms:
            products = []
            for (bb, t, k, e, cf) in word_products(s1, k1, e1, 1, s2, e2):
                c = c1 * cf
                products.append((b1 + bb - 1, t, k, e, cw * c, xw * c, not bb))
            groups.append(tuple(products))
    return tuple(groups)


@functools.cache
def _staged_right(hterms, n, s1, k1, e1):
    base, weight, hp = _split_lift(SuperPoly(n, dict(hterms)), n)
    sign = 1 if hp and (bin(s1).count("1") + bin(e1).count("1")) & 1 else -1
    products = []
    for lift_terms, cw, xw in ((base, 1, 0), (weight, 0, 2)):
        for (b2, s2, k2, e2), c2 in lift_terms:
            for (bb, t, k, e, cf) in word_products(s1, k1, e1, b2, s2, e2):
                c = sign * c2 * cf
                products.append((bb, t, k + k2, e, cw * c, xw * c))
    return tuple(products)


def staged_lin_act_sums(h, a, twos):
    n = a.n
    hterms = tuple(h.terms.items())
    words = tuple(a.terms.items())
    lefts = [_staged_left(hterms, n, s, e, twos) for (_, s, _, e), _ in words]
    rights = [_staged_right(hterms, n, s, k, e) for (_, s, k, e), _ in words]
    left, right = {}, {}
    for term_groups in zip(*lefts):
        for ((a2, _, k2, _), c2), products in zip(words, term_groups):
            for db, t, dk, e, c, x, by_a in products:
                if by_a:
                    if not a2:
                        continue
                    c *= a2
                _add_pair(left, (a2 + db, t, k2 + dk, e), c2 * c, c2 * x)
    for ((a1, _, _, _), c1), products in zip(words, rights):
        for db, t, k, e, c, x in products:
            _add_pair(right, (a1 + db, t, k, e), c1 * c, c1 * x)
    for key, (c, x) in right.items():
        _add_pair(left, key, c, x)
    return left


def _risky_sums(hterms, n, s, k, e, zero_a):
    """The staged sums of one word shape replayed with a and twos symbolic,
    each as (c0, ca, ct, cat, x0, xa) for c = c0 + ca a + (ct + cat a) twos
    and x = x0 + xa a; zero_a replays them at a = 0, where the products
    that carry the factor a are left out.  Summed with _add_pair's rule (a
    sum that cancels identically is dropped), it returns every running sum
    that may vanish at some (a, twos) without vanishing identically: there
    the staged sums drop a key that a symbolic sum keeps in place."""
    left, right, risky = {}, {}, set()

    def add(terms, key, vec):
        old = terms.get(key)
        if old is not None:
            vec = tuple(map(operator.add, old, vec))
        if any(vec):
            terms[key] = vec
            c0, ca, ct, cat, x0, xa = vec
            if (ca or ct or cat or not c0) and (xa or not x0):
                risky.add(vec)
        elif old is not None:
            del terms[key]

    # the staged products are linear in twos: read them at twos = 0 and 1
    for at0, at1 in zip(_staged_left(hterms, n, s, e, 0), _staged_left(hterms, n, s, e, 1)):
        for (db, t, dk, ee, c, x, by_a), (*_, c1, _, _) in zip(at0, at1):
            if by_a and zero_a:
                continue
            ct = c1 - c
            add(left, (db, t, k + dk, ee),
                (0, c, 0, ct, 0, x) if by_a else (c, 0, ct, 0, x, 0))
    for db, t, kk, ee, c, x in _staged_right(hterms, n, s, k, e):
        add(right, (db, t, kk, ee), (c, 0, 0, 0, x, 0))
    for key, vec in right.items():
        add(left, key, vec)
    return risky


def _vanishing_points(risky, zero_a):
    """The (a, twos), a in 0..6 (a = 0 exactly when zero_a) and twos in
    -200..200, at which some risky sum vanishes."""
    out = set()
    for c0, ca, ct, cat, x0, xa in risky:
        for a in ((0,) if zero_a else range(1, 7)):
            if x0 + xa * a:
                continue
            const, slope = c0 + ca * a, ct + cat * a
            if not slope:
                if not const:
                    out.update((a, t) for t in (-2, 0, 5, 128))
            elif const % slope == 0 and abs(const // slope) <= 200:
                out.add((a, -const // slope))
    return out


def test_action_tables_replay_the_staged_sums():
    """One action table per word shape gives the staged sums item for item,
    in order: for every monomial H of x-degree <= 4, n <= 2, every word
    shape theta^S dx^k eta^eps with k <= 4, a in 0..6 and twos in -2..16
    and +-128, lin_act_sums equals the oracle.  So it does at every (a,
    twos) where a running sum of the staged sums vanishes without
    vanishing identically, the points where the order of the keys could
    part from the oracle's; more than 4000 such points occur."""
    points = 0
    for n in (0, 1, 2):
        for h in all_monomials(n, 4):
            hterms = tuple(h.terms.items())
            for s, k, e in itertools.product(range(1 << n), range(5), range(1 << n)):
                for a in range(7):
                    word = LinDiffOp(n, {(a, s, k, e): -3})
                    for twos in [*range(-2, 17), 128, -128]:
                        got = lin_act_sums(h, word, twos)
                        assert list(got.items()) == list(staged_lin_act_sums(h, word, twos).items())
                for zero_a in (True, False):
                    risky = _risky_sums(hterms, n, s, k, e, zero_a)
                    for a, twos in _vanishing_points(risky, zero_a):
                        word = LinDiffOp(n, {(a, s, k, e): -3})
                        want = staged_lin_act_sums(h, word, twos)
                        assert list(lin_act_sums(h, word, twos).items()) == list(want.items())
                        points += 1
    assert points >= 4000

"""Differential operators in eta-normal form and the two-slot (bilinear)
operator calculus.

Linear operators are sums of words x^a theta^S dx^k eta^eps (eta factors
ascending).  Bilinear operators are sums of terms

    c * x^a theta^S  (dx^k1 eta^e1 on slot 1) (dx^k2 eta^e2 on slot 2)

applied with the fixed Koszul convention

    value = c * x^a theta^S * w1(F) * w2(G) * (-1)^(|w2| * |F|),

|w2| the slot-2 word parity, |F| the effective parity of the first
argument.  This single rule regenerates every explicit (-1)^|F| sign in the
classification formulas.

Normal ordering uses the rewrite rules  dx x = x dx + 1,  dx t_i = t_i dx,
eta_i x = x eta_i - t_i,  eta_i t_i = 1 - t_i eta_i,  eta_i t_j = -t_j eta_i,
eta_i eta_j = -eta_j eta_i (i != j)  and  eta_i^2 = -dx; each rule strictly
reduces a lexicographic measure, so rewriting terminates with a unique
normal form.

One kernel, word_products, multiplies two words: it pushes the left
word's dx^k eta^eps through the right word's x^b theta^T (push_through),
moves theta^S over the theta that come out, and merges the eta (merge_eta).
compose_lin, the bilinear slot compositions, the action tables and the
application of a word to a monomial (apply_word, the products that leave
no dx or eta) all read it.  So does op o J (bi_left_compose, and the
L^mu o J part of bi_act_sums): word_products pushes op's word through J's
coefficient x^a theta^S, _leibniz splits the dx^k eta^eps that comes out
over the two slots, and merge_eta joins each part to its slot's eta.

act_on_lin (X_H . A on linear operators) and act_on_bi (X_H . J on
bilinear ones) are the compositions that define the module actions.  The
pipeline reads them as int sums instead: lin_act_sums and bi_act_sums
split the weight off the lift L^w_{X_H} = L^0_{X_H} + w H' (_split_lift)
and double L^0 (its eta terms carry 1/2), so for a monomial H and an
integral operator every product is an int.  lin_act_sums folds
mu = lambda + s in and gives int pairs (constant, lambda coefficient) for
coefficients in (1/2)Z[lambda]; bi_act_sums keeps one int per weight.
Neither does any Fraction or ParamPoly arithmetic.

lin_act_sums takes one word and reads one cached action table
(_action_table) per hamiltonian and word shape theta^S dx^k eta^eps,
whatever the word's x^a and the shift: the staged sums of the action are
worked out once per process with a and the shift kept symbolic, and a
call evaluates each term at its own (a, shift) and drops those that are
zero there, so it does work per surviving term, not per product.  The
values are exact whatever the order of the terms.  The key order only
decides which of several Q-dependent rows the flat filter of a
GenericSystem keeps first; that can show in a cell's candidate_locus,
its rejected_candidates and the printed bases, never in a dimension.
The action-table tests, which replay the staged sums, and the CLI
goldens pin it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from operator import add

from .scalars import ParamPoly, ScalarError, rat_text
from .superpoly import SuperPoly, ArityError, grassmann_sign, dtheta_sign, mask_weight
from .densities import Density
from .param_linalg import field_solve

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# word-level kernels (memoized)
# ---------------------------------------------------------------------------

def _bits_asc(mask: int):
    """The 1-based indices of the set bits, ascending (mask -> list)."""
    out = []
    i = 1
    m = mask
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return out


def mask_from_list(indices) -> int:
    """Inverse of _bits_asc (list -> mask)."""
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


@cache
def merge_eta(e1: int, e2: int):
    """eta^e1 o eta^e2  ->  (extra_dx, eps, sign); sign 0 never occurs.

    The eta_i of e2 join one at a time, ascending: each passes the eta
    already above it, and eta_i^2 = -dx."""
    k, eps, sign = 0, e1, 1
    for i in _bits_asc(e2):
        bit = 1 << (i - 1)
        if mask_weight(eps >> i) & 1:
            sign = -sign
        if eps & bit:
            k += 1
            sign = -sign
        eps ^= bit
    return k, eps, sign


@cache
def push_through(k: int, eps: int, b: int, t_mask: int):
    """(dx^k eta^eps) o M_{x^b theta^T}  as a tuple of
    (b', T', k', eps', coeff):  sum coeff * M_{x^b' theta^T'} o dx^k' eta^eps'.
    """
    if k == 0 and eps == 0:
        return ((b, t_mask, 0, 0, 1),)
    if k:
        # peel one dx from the left: dx o (rest o M)
        out = {}
        for (b1, t1, k1, e1, c) in push_through(k - 1, eps, b, t_mask):
            if b1:
                _add_term(out, (b1 - 1, t1, k1, e1), c * b1)
            _add_term(out, (b1, t1, k1 + 1, e1), c)
    else:
        i = _bits_asc(eps)[0]  # leftmost eta
        bit = 1 << (i - 1)
        out = {}
        for (b1, t1, k1, e1, c) in push_through(0, eps ^ bit, b, t_mask):
            # eta_i o M_{x^b1 theta^t1} = M_{eta_i(x^b1 theta^t1)} + (-1)^|t1| M o eta_i
            if t1 & bit:
                _add_term(out, (b1, t1 ^ bit, k1, e1), c * dtheta_sign(t1, i))
            elif b1:
                s = grassmann_sign(bit, t1)
                _add_term(out, (b1 - 1, t1 | bit, k1, e1), -c * b1 * s)
            psign = -1 if mask_weight(t1) & 1 else 1
            dk, e2, s2 = merge_eta(bit, e1)
            _add_term(out, (b1, t1, k1 + dk, e2), c * psign * s2)
    return tuple((bb, tt, kk, ee, c) for (bb, tt, kk, ee), c in out.items() if c)


def word_products(s1: int, k1: int, e1: int, b2: int, s2: int, e2: int):
    """theta^s1 dx^k1 eta^e1 o x^b2 theta^s2 eta^e2 in normal form, as a
    tuple of (b, T, k, eps, coeff) in push_through's order; a dx^k2 on the
    right only adds k2 to each k.  Every product or application of words
    goes through here."""
    out = []
    for (b, t, k, e, c) in push_through(k1, e1, b2, s2):
        sign = grassmann_sign(s1, t)
        if sign:
            dk, eps, s3 = merge_eta(e, e2)
            out.append((b, s1 | t, k + dk, eps, c * sign * s3))
    return tuple(out)


@cache
def apply_word(s: int, k: int, eps: int, deg: int, mask: int):
    """(theta^s dx^k eta^eps)(x^deg theta^mask) as a tuple of
    ((deg', mask'), int): the products that leave no dx or eta."""
    return tuple(((b, t), c) for (b, t, kk, e, c)
                 in word_products(s, k, eps, deg, mask, 0) if not kk and not e)


def _add_term(terms: dict, key, coeff):
    s = terms.get(key)
    s = coeff if s is None else s + coeff
    if s:
        terms[key] = s
    elif key in terms:
        del terms[key]


class _DiffOp:
    """Module operations shared by LinDiffOp and BiDiffOp: a term map plus
    the bookkeeping fields that _meta() carries through."""

    __slots__ = ()

    @classmethod
    def zero(cls, n, **kw):
        return cls(n, {}, **kw)

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            _add_term(terms, k, c)
        return type(self)(self.n, terms, **self._meta())

    def __neg__(self):
        return type(self)(self.n, {k: -c for k, c in self.terms.items()}, **self._meta())

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return type(self)(self.n, {}, **self._meta())
        return type(self)(self.n, {k: v * c for k, v in self.terms.items()}, **self._meta())

    def __bool__(self):
        return bool(self.terms)


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

class LinDiffOp(_DiffOp):
    """Sum of words x^a theta^S dx^k eta^eps; keys (a, S, k, eps).

    Source/target weights are carried for bookkeeping; the word algebra
    itself never consults them.
    """

    __slots__ = ("n", "terms", "lam", "mu")

    def __init__(self, n, terms, lam=None, mu=None):
        self.n = n
        self.terms = terms
        self.lam = lam
        self.mu = mu

    @staticmethod
    def identity(n, **kw):
        return LinDiffOp(n, {(0, 0, 0, 0): Fraction(1)}, **kw)

    @staticmethod
    def word(n, a=0, S=0, k=0, eps=0, coeff=1, **kw):
        if isinstance(coeff, int):
            coeff = Fraction(coeff)
        return LinDiffOp(n, {(a, S, k, eps): coeff} if coeff else {}, **kw)

    def _meta(self):
        return dict(lam=self.lam, mu=self.mu)

    def __eq__(self, other):
        if not isinstance(other, LinDiffOp):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def parity(self):
        seen = {(mask_weight(S) + mask_weight(e)) & 1 for (_, S, _, e) in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    def apply_poly(self, p: SuperPoly) -> SuperPoly:
        if p.n != self.n:
            raise ArityError(f"arity mismatch: {self.n} vs {p.n}")
        out = {}
        for (a, S, k, eps), c in self.terms.items():
            for (d, m), pc in p.terms.items():
                for (d2, m2), f in apply_word(S, k, eps, d, m):
                    _add_term(out, (a + d2, m2), c * (pc * f))
        return SuperPoly(self.n, out)

    def __call__(self, p: SuperPoly) -> SuperPoly:
        return self.apply_poly(p)

    def text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            a, S, k, e = key
            c = self.terms[key]
            factors = []
            if a:
                factors.append("x" if a == 1 else f"x^{a}")
            factors.extend(f"t{i}" for i in _bits_asc(S))
            if k:
                factors.append("dx" if k == 1 else f"dx^{k}")
            factors.extend(f"e{i}" for i in _bits_asc(e))
            body = "*".join(factors) if factors else "1"
            cs = c if isinstance(c, Fraction) else None
            if cs is not None:
                coef = rat_text(cs)
            else:
                coef = f"({c.text()})"
            bits.append(f"{coef}*{body}" if body != "1" else coef)
        return " + ".join(bits)

    __str__ = text

    def __repr__(self):
        return f"LinDiffOp({self.n}, {self.text()!r})"


def apply_lin(op: LinDiffOp, d: Density) -> Density:
    """Apply in normal form; checks the source weight when the operator
    carries one."""
    if op.lam is not None and d.weight != op.lam:
        raise ScalarError(f"weight mismatch: operator expects {op.lam}, density has {d.weight}")
    payload = op.apply_poly(d.payload)
    weight = op.mu if op.mu is not None else d.weight
    return Density(payload, weight, d.pi_flag)


def compose_lin(a: LinDiffOp, b: LinDiffOp) -> LinDiffOp:
    """a o b in normal form."""
    if a.n != b.n:
        raise ArityError("arity mismatch in composition")
    out = {}
    for (a1, s1, k1, e1), c1 in a.terms.items():
        for (a2, s2, k2, e2), c2 in b.terms.items():
            c12 = c1 * c2
            for (bb, t, kk, e, cf) in word_products(s1, k1, e1, a2, s2, e2):
                _add_term(out, (a1 + bb, t, kk + k2, e), c12 * cf)
    return LinDiffOp(a.n, out)


def normal_order(tokens, n: int) -> LinDiffOp:
    """Normal-order a formal product of generators.

    Tokens: 'x', 'dx', 't<i>', 'e<i>' (theta_i and eta_i), applied in the
    written order (leftmost outermost).
    """
    op = LinDiffOp.identity(n)
    for tok in tokens:
        if tok == "x":
            g = LinDiffOp.word(n, a=1)
        elif tok == "dx":
            g = LinDiffOp.word(n, k=1)
        elif tok.startswith("t"):
            i = int(tok[1:])
            if not 1 <= i <= n:
                raise ArityError(f"theta index {i} out of range")
            g = LinDiffOp.word(n, S=1 << (i - 1))
        elif tok.startswith("e"):
            i = int(tok[1:])
            if not 1 <= i <= n:
                raise ArityError(f"eta index {i} out of range")
            g = LinDiffOp.word(n, eps=1 << (i - 1))
        else:
            raise ValueError(f"unknown generator token {tok!r}")
        op = compose_lin(op, g)
    return op


@cache
def lift_hamiltonian(h: SuperPoly, weight, n=None) -> LinDiffOp:
    """L^w_{X_H} = H dx - (1/2)(-1)^|H| sum_i eta_i(H) eta_i + w H'

    as a normal-form operator; H must be parity-homogeneous.
    """
    n = h.n if n is None else n
    par = h.parity()
    if par is None:
        raise ScalarError("lift needs a parity-homogeneous hamiltonian; split first")
    terms = {}
    for (d, m), c in h.terms.items():
        _add_term(terms, (d, m, 1, 0), c)
    sgn = HALF if par else -HALF
    for i in range(1, n + 1):
        ei = h.eta(i)
        for (d, m), c in ei.terms.items():
            _add_term(terms, (d, m, 0, 1 << (i - 1)), c * sgn)
    if weight is not None:
        hp = h.d_x()
        for (d, m), c in hp.terms.items():
            _add_term(terms, (d, m, 0, 0), c * weight)
    return LinDiffOp(n, terms)


def _integral(c):
    """c as an int when it is an integral Fraction, else unchanged: the
    cached split lift of a monomial is integral whichever coefficient type
    (int or Fraction) built it."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


@cache
def _split_lift(h: SuperPoly, n: int):
    """The lift L^w_{X_H} with its weight split off, as two term tuples
    ((b, T, k, eps), c) in lift_hamiltonian's order: 2 L^0_{X_H} (the H dx
    and eta terms, doubled) and H' (the terms that w multiplies).  Both
    are integral for a monomial H.  lin_act_sums and bi_act_sums compose
    with these, one weight per composition (mu on the left, lambda, and
    tau in bilinear slot 1), so each lift is built once per hamiltonian;
    the parity |H| comes with them."""
    base = tuple((key, _integral(2 * c))
                 for key, c in lift_hamiltonian(h, None, n).terms.items())
    weight = tuple(((d, m, 0, 0), _integral(c)) for (d, m), c in h.d_x().terms.items())
    return base, weight, h.parity()


def lift_generator(h: SuperPoly, lam) -> LinDiffOp:
    """Density action of the aff(n|1) generators, per the closed table:

        L_{X_1} = dx
        L_{X_x} = x dx + 1/2 sum t_i eta_i + lam
        L_{X_{t_i}} = t_i dx + 1/2 eta_i
        L_{X_{t_i t_j}} = t_i t_j dx - 1/2 t_j eta_i + 1/2 t_i eta_j
    """
    n = h.n
    keys = sorted(h.terms)
    if len(keys) != 1 or h.terms[keys[0]] != 1:
        raise ScalarError(f"{h.text()} is not an aff generator")
    d, m = keys[0]
    w = mask_weight(m)
    if (d, w) == (0, 0):
        return LinDiffOp.word(n, k=1)
    if (d, w) == (1, 0):
        terms = {(1, 0, 1, 0): Fraction(1)}
        for i in range(1, n + 1):
            terms[(0, 1 << (i - 1), 0, 1 << (i - 1))] = HALF
        if lam:
            terms[(0, 0, 0, 0)] = lam if not isinstance(lam, int) else Fraction(lam)
        return LinDiffOp(n, terms)
    if (d, w) == (0, 1):
        return LinDiffOp(n, {(0, m, 1, 0): Fraction(1), (0, 0, 0, m): HALF})
    if (d, w) == (0, 2):
        i, j = _bits_asc(m)
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        return LinDiffOp(n, {(0, m, 1, 0): Fraction(1),
                             (0, bj, 0, bi): -HALF,
                             (0, bi, 0, bj): HALF})
    raise ScalarError(f"{h.text()} is not an aff generator")


def _add_pair(terms: dict, key, c, w):
    """Add (c, w) to a term map of int pairs; a key whose pair cancels is
    dropped, and re-enters at the end (as _add_term does)."""
    s = terms.get(key)
    if s is not None:
        c += s[0]
        w += s[1]
    if c or w:
        terms[key] = (c, w)
    elif s is not None:
        del terms[key]


def _add_vec(terms: dict, key, vec):
    """_add_pair for int tuples of any length."""
    s = terms.get(key)
    if s is not None:
        vec = tuple(map(add, s, vec))
    if any(vec):
        terms[key] = vec
    elif s is not None:
        del terms[key]


def _odd_action(hp, op) -> bool:
    """Whether |H| |op| is odd, hp = |H|, the sign of the module action
    X_H . op; ScalarError when either is not parity-homogeneous."""
    op_p = op.parity()
    if hp is None or op_p is None:
        raise ScalarError("the module action needs parity-homogeneous inputs; split first")
    return bool(hp and op_p)


def act_on_lin(h: SuperPoly, a: LinDiffOp, lam, mu) -> LinDiffOp:
    """X_H . A = L^mu_{X_H} o A - (-1)^{|A||H|} A o L^lam_{X_H}, at weights
    of any scalar type (ParamPoly, Fraction, AlgebraicScalar)."""
    odd = _odd_action(h.parity(), a)
    left = compose_lin(lift_hamiltonian(h, mu, a.n), a)
    right = compose_lin(a, lift_hamiltonian(h, lam, a.n))
    return left + right if odd else left - right


@cache
def _action_table(hterms: tuple, n: int, s: int, k: int, e: int):
    """2 X_H . theta^S dx^k eta^eps at x^a, whatever a and twos, for the
    hamiltonian of arity n with the terms hterms (a tuple, which hashes
    faster than a SuperPoly): a tuple of (db, T, k', eps', c0, ca, ct, cat,
    x0, xa), the term (c + x lambda)/2 at x^(a + db) theta^T dx^k' eta^eps'
    with c = c0 + ca a + (ct + cat a) twos and x = x0 + xa a.

    The products are added as act_on_lin adds them, with _add_pair's rule
    (_add_vec): those of 2 L^mu_{X_H} o the word lift term by lift term
    (_split_lift), those of -(-1)^{|A||H|} the word o 2 L^lambda_{X_H},
    then the right sums into the left ones.  Pushing a lift term's dx or
    eta_i through x^a theta^S gives, in the same order for every a,
    products at x^a and products at x^(a-1) with a factor a: taken at
    a = 1, the second kind (bb = 0) sits at x^0 and carries a.  A product c
    of H' adds c 2 mu = c (twos + 2 lambda) on the left, c 2 lambda on the
    right.  A sum that cancels identically is dropped and re-enters at the
    end; one that vanishes only at some (a, twos) keeps its place, which
    moves no value, only the order of the keys (see the module
    docstring)."""
    base, weight, hp = _split_lift(SuperPoly(n, dict(hterms)), n)
    left, right = {}, {}
    for lift_terms, weighted in ((base, False), (weight, True)):
        for (b1, s1, k1, e1), c1 in lift_terms:
            for (bb, t, dk, ee, cf) in word_products(s1, k1, e1, 1, s, e):
                c = c1 * cf
                c, ct, x = (0, c, 2 * c) if weighted else (c, 0, 0)
                vec = (c, 0, ct, 0, x, 0) if bb else (0, c, 0, ct, 0, x)
                _add_vec(left, (b1 + bb - 1, t, k + dk, ee), vec)
    sign = 1 if hp and (mask_weight(s) + mask_weight(e)) & 1 else -1
    for lift_terms, weighted in ((base, False), (weight, True)):
        for (b2, s2, k2, e2), c2 in lift_terms:
            for (bb, t, kk, ee, cf) in word_products(s, k, e, b2, s2, e2):
                c = sign * c2 * cf
                vec = (0, 0, 0, 0, 2 * c, 0) if weighted else (c, 0, 0, 0, 0, 0)
                _add_vec(right, (bb, t, kk + k2, ee), vec)
    for key, vec in right.items():
        _add_vec(left, key, vec)
    return tuple(key + vec for key, vec in left.items())


def lin_act_sums(h: SuperPoly, a: LinDiffOp, twos: int) -> dict:
    """2 X_H . A at mu = lambda + twos/2 as {key: (c, x)} int pairs for the
    coefficient (c + x lambda)/2, zero terms dropped, in the order of the
    table (act_on_lin's at every point the tests check); H a monomial and
    A one integral word.

    One table serves every call: the cached _action_table of H and the
    word's shape theta^S dx^k eta^eps, not its x^a or its coefficient.
    Each term is evaluated at the word's (a, twos), dropped where it is
    zero there, and written once, times the word's coefficient."""
    if len(a.terms) != 1:
        raise ScalarError("lin_act_sums takes one word; split the operator first")
    ((p, s, k, e), w), = a.terms.items()
    out = {}
    if not w:
        return out
    for db, t, kk, ee, c0, ca, ct, cat, x0, xa in _action_table(
            tuple(h.terms.items()), a.n, s, k, e):
        c = c0 + ca * p + (ct + cat * p) * twos
        x = x0 + xa * p
        if c or x:
            out[(p + db, t, kk, ee)] = (w * c, w * x)
    return out


# ---------------------------------------------------------------------------
# bilinear operators
# ---------------------------------------------------------------------------

class BiDiffOp(_DiffOp):
    """Two-slot operator; keys (a, S, k1, e1, k2, e2).

    Optional sigma/pi twists decorate the fixed application convention (used
    by the parity-swap isomorphism); the composition calculus requires both
    twists off.
    """

    __slots__ = ("n", "terms", "tau", "lam", "mu", "sigma1", "sigma2", "pi_out")

    def __init__(self, n, terms, tau=None, lam=None, mu=None,
                 sigma1=False, sigma2=False, pi_out=False):
        self.n = n
        self.terms = terms
        self.tau = tau
        self.lam = lam
        self.mu = mu
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        self.pi_out = pi_out

    def _meta(self):
        return dict(tau=self.tau, lam=self.lam, mu=self.mu,
                    sigma1=self.sigma1, sigma2=self.sigma2, pi_out=self.pi_out)

    @staticmethod
    def term(n, a=0, S=0, k1=0, e1=0, k2=0, e2=0, coeff=1, **kw):
        if isinstance(coeff, int):
            coeff = Fraction(coeff)
        return BiDiffOp(n, {(a, S, k1, e1, k2, e2): coeff} if coeff else {}, **kw)

    def __eq__(self, other):
        if not isinstance(other, BiDiffOp):
            return NotImplemented
        return (self.n == other.n and self.terms == other.terms
                and (self.sigma1, self.sigma2, self.pi_out)
                == (other.sigma1, other.sigma2, other.pi_out))

    def parity(self):
        seen = {(mask_weight(S) + mask_weight(e1) + mask_weight(e2)) & 1
                for (_, S, _, e1, _, e2) in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    def _untwisted(self):
        if self.sigma1 or self.sigma2 or self.pi_out:
            raise ScalarError("composition with sigma/Pi-twisted operators is not supported")

    def text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            a, S, k1, e1, k2, e2 = key
            c = self.terms[key]

            def slot(k, e):
                fs = []
                if k:
                    fs.append("dx" if k == 1 else f"dx^{k}")
                fs.extend(f"e{i}" for i in _bits_asc(e))
                return "*".join(fs) if fs else "1"

            coef = []
            if a:
                coef.append("x" if a == 1 else f"x^{a}")
            coef.extend(f"t{i}" for i in _bits_asc(S))
            pre = "*".join(coef)
            cs = rat_text(c) if isinstance(c, Fraction) else f"({c.text()})"
            head = cs + ("*" + pre if pre else "")
            bits.append(f"{head}[{slot(k1, e1)} | {slot(k2, e2)}]")
        return " + ".join(bits)

    __str__ = text

    def __repr__(self):
        return f"BiDiffOp({self.n}, {self.text()!r})"


def apply_bi_poly(j: BiDiffOp, f: SuperPoly, g: SuperPoly,
                  f_pi: bool = False, g_pi: bool = False) -> SuperPoly:
    """Value on payloads, with the slot-passing Koszul sign and any
    sigma/Pi twists the operator carries."""
    if f.n != j.n or g.n != j.n:
        raise ArityError("arity mismatch in apply_bi")
    fp = f.parity()
    if fp is None:
        out = SuperPoly.zero(j.n)
        for part in f.homogeneous_parts():
            out = out + apply_bi_poly(j, part, g, f_pi, g_pi)
        return out
    feff = fp ^ (1 if f_pi else 0)
    tw = 1
    if j.sigma1 and feff:
        tw = -tw
    if j.sigma2:
        gp = g.parity()
        if gp is None:
            out = SuperPoly.zero(j.n)
            for part in g.homogeneous_parts():
                out = out + apply_bi_poly(j, f, part, f_pi, g_pi)
            return out
        if gp ^ (1 if g_pi else 0):
            tw = -tw
    out = {}
    for (a, S, k1, e1, k2, e2), c in j.terms.items():
        sign = tw if not (mask_weight(e2) & 1 and feff) else -tw
        for (d1, m1), c1 in f.terms.items():
            for (dd1, mm1), f1 in apply_word(S, k1, e1, d1, m1):
                left = c * (c1 * (f1 * sign))
                for (d2, m2), c2 in g.terms.items():
                    for (dd2, mm2), f2 in apply_word(mm1, k2, e2, d2, m2):
                        _add_term(out, (a + dd1 + dd2, mm2), left * (c2 * f2))
    return SuperPoly(j.n, out)


def apply_bi(j: BiDiffOp, d1: Density, d2: Density) -> Density:
    if j.tau is not None and d1.weight != j.tau:
        raise ScalarError("slot-1 weight mismatch")
    if j.lam is not None and d2.weight != j.lam:
        raise ScalarError("slot-2 weight mismatch")
    payload = apply_bi_poly(j, d1.payload, d2.payload, d1.pi_flag, d2.pi_flag)
    mu = j.mu if j.mu is not None else d1.weight + d2.weight
    return Density(payload, mu, j.pi_out)


def bi_left_compose(op: LinDiffOp, j: BiDiffOp) -> BiDiffOp:
    """op o J: apply op to the output."""
    j._untwisted()
    out = {}
    for key, v in _output_products(j.terms.items(), op.terms.items()):
        _add_term(out, key, v)
    return BiDiffOp(j.n, out)


@cache
def _leibniz(k: int, eps: int):
    """dx^k eta^eps on a product U V as a tuple of (i, p1, p2, c): the
    term c (dx^i eta^p1 U)(dx^(k-i) eta^p2 V), up to the (-1)^{|p2||U|} of
    the eta that pass U.  c is binomial(k, i), negated once for each eta of
    p2 that sits below an eta of p1."""
    out = []
    for i in range(k + 1):
        for p1 in range(eps + 1):
            if p1 & ~eps:
                continue
            p2 = eps ^ p1
            inv = sum(mask_weight(p1 >> j) for j in _bits_asc(p2))
            out.append((i, p1, p2, -comb(k, i) if inv & 1 else comb(k, i)))
    return tuple(out)


def _output_products(j_terms, op_terms):
    """The products (key, coefficient) of bi_left_compose, op's terms
    outer, J's terms inner.  word_products pushes op's dx^k eta^eps
    through J's x^a theta^S; _leibniz splits what comes out over the two
    slots, and merge_eta joins each part to its slot's eta.  The
    (-1)^{|p2||U|} of the split, U = dx^k1 eta^e1 F, leaves (-1)^{|p2||e1|}
    once the slot-passing convention takes its (-1)^{|p2||F|}."""
    for (a0, s0, k0, e0), c0 in op_terms:
        for (a, S, k1, e1, k2, e2), c in j_terms:
            base = c * c0
            we1 = mask_weight(e1) & 1
            for (b, t, k, eps, cf) in word_products(s0, k0, e0, a, S, 0):
                for (i, p1, p2, cl) in _leibniz(k, eps):
                    dk1, f1, s1 = merge_eta(p1, e1)
                    dk2, f2, s2 = merge_eta(p2, e2)
                    factor = cf * cl * s1 * s2
                    if we1 and mask_weight(p2) & 1:
                        factor = -factor
                    yield ((a0 + b, t, i + k1 + dk1, f1, k - i + k2 + dk2, f2),
                           base * factor)


def bi_slot2_compose(j: BiDiffOp, op: LinDiffOp) -> BiDiffOp:
    """sigma-passed slot-2 composition:

        result(F, d) = (-1)^{|op| |F|} J(F, op(d)).

    The parity factor is exactly the Koszul cost of moving op past the first
    slot; the term convention absorbs it, so the rewrite below carries no
    argument-parity signs.
    """
    j._untwisted()
    out = {}
    for key, v in _slot2_products(j.terms.items(), op.terms.items()):
        _add_term(out, key, v)
    return BiDiffOp(j.n, out)


def _slot2_products(j_terms, op_terms):
    """The products (key, coefficient) of bi_slot2_compose, op's terms
    outer, J's terms inner (both given as term-map items)."""
    for (b, T, m, delta), c0 in op_terms:
        for (a, S, k1, e1, k2, e2), c in j_terms:
            we1 = mask_weight(e1) & 1
            base = c * c0
            for (bb, t, kk, ee, cf) in word_products(S, k2, e2, b, T, delta):
                mig = -1 if (mask_weight(t ^ S) & 1 and we1) else 1
                yield (a + bb, t, k1, e1, kk + m, ee), base * (cf * mig)


def bi_slot1_compose(j: BiDiffOp, op: LinDiffOp) -> BiDiffOp:
    """Plain slot-1 composition: result(F, d) = J(op(F), d).

    op must be parity-homogeneous; each term picks up (-1)^{|e2||op|} from
    re-anchoring the slot-passing convention at the new first argument.
    """
    j._untwisted()
    par = op.parity()
    if par is None:
        raise ScalarError("slot-1 composition needs a parity-homogeneous operator")
    out = {}
    for key, v in _slot1_products(j.terms.items(), op.terms.items(), par):
        _add_term(out, key, v)
    return BiDiffOp(j.n, out)


def _slot1_products(j_terms, op_terms, odd):
    """The products (key, coefficient) of bi_slot1_compose, op's terms
    outer, J's terms inner; odd is the parity of op."""
    for (b, T, m, delta), c0 in op_terms:
        for (a, S, k1, e1, k2, e2), c in j_terms:
            base = c * c0
            if odd and mask_weight(e2) & 1:
                base = -base
            for (bb, t, kk, ee, cf) in word_products(S, k1, e1, b, T, delta):
                yield (a + bb, t, kk + m, ee, k2, e2), base * cf


def bi_slot1_partial(j: BiDiffOp, f: SuperPoly) -> LinDiffOp:
    """J(F, .) as a linear operator, F parity-homogeneous."""
    if f.n != j.n:
        raise ArityError("arity mismatch")
    fp = f.parity()
    if fp is None:
        raise ScalarError("slot-1 partial application needs homogeneous parity")
    out = {}
    for (a, S, k1, e1, k2, e2), c in j.terms.items():
        sign0 = -1 if (mask_weight(e2) & 1 and fp) else 1
        if j.sigma1 and fp:
            sign0 = -sign0
        for (d1, m1), c1 in f.terms.items():
            for (dd, mm), fc in apply_word(S, k1, e1, d1, m1):
                _add_term(out, (a + dd, mm, k2, e2), c * (c1 * (fc * sign0)))
    return LinDiffOp(j.n, out)


def bi_L_hat(weight, n: int) -> BiDiffOp:
    """The universal first-order bilinear piece: (F, d) -> L^w_{X_F}(d).

    Terms F d', -1/2 eta_i(F) eta_i(d) and w F' d; the paper's explicit
    (-1)^|F| factors come out of the application convention.
    """
    terms = {(0, 0, 0, 0, 1, 0): Fraction(1)}
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        terms[(0, 0, 0, bit, 0, bit)] = -HALF
    if weight:
        terms[(0, 0, 1, 0, 0, 0)] = weight
    return BiDiffOp(n, terms)


def act_on_bi(h: SuperPoly, j: BiDiffOp, tau, lam, mu) -> BiDiffOp:
    """X_H . J = L^mu o J - (-1)^{|J||H|} J o (L^tau (x) 1 + sigma-passed 1 (x) L^lam),
    at weights of any scalar type (ParamPoly, Fraction, AlgebraicScalar)."""
    j._untwisted()
    odd = _odd_action(h.parity(), j)
    n = j.n
    left = bi_left_compose(lift_hamiltonian(h, mu, n), j)
    right = (bi_slot1_compose(j, lift_hamiltonian(h, tau, n))
             + bi_slot2_compose(j, lift_hamiltonian(h, lam, n)))
    return left + right if odd else left - right


def bi_act_sums(h: SuperPoly, j: BiDiffOp) -> dict:
    """X_H . J summed as ints: {key: (c, c_mu, c_tau, c_lam)} with

        X_H . J = sum over keys of (c/2 + c_mu mu + c_tau tau + c_lam lam) key,

    H a monomial and J integral.  The lift's weight is split off
    (_split_lift): a product of 2 L^0_{X_H} adds to c, one of the weight
    term H' to the coefficient of the part's weight.  The three parts
    (L^mu o J, J o (L^tau (x) 1), the slot-2 composition with L^lam) are
    each summed in their own term map in the order of their composition,
    then added as act_on_bi adds them, so the keys come out in act_on_bi's
    order at independent symbolic weights, and at any weights when every
    weighted coefficient is zero."""
    j._untwisted()
    base, weight, hp = _split_lift(h, j.n)
    odd = _odd_action(hp, j)
    j_terms = j.terms.items()
    parts = ({}, {}, {})
    for lift_terms, cw, xw in ((base, 1, 0), (weight, 0, 1)):
        products = (_output_products(j_terms, lift_terms),
                    _slot1_products(j_terms, lift_terms, hp),
                    _slot2_products(j_terms, lift_terms))
        for acc, part in zip(parts, products):
            for key, c in part:
                _add_pair(acc, key, cw * c, xw * c)
    left, slot1, slot2 = parts
    right = {key: (c, 0, w, 0) for key, (c, w) in slot1.items()}
    for key, (c, w) in slot2.items():
        _add_vec(right, key, (c, 0, 0, w))
    out = {key: (c, w, 0, 0) for key, (c, w) in left.items()}
    for key, v in right.items():
        _add_vec(out, key, v if odd else tuple(-x for x in v))
    return out


def coboundary_of_lin(a: LinDiffOp, lam, mu) -> BiDiffOp:
    """delta A as a bilinear operator: (F, d) -> (-1)^{|F||A|} (X_F . A)(d)."""
    n = a.n
    t1 = bi_slot2_compose(bi_L_hat(mu, n), a)
    t2 = bi_left_compose(a, bi_L_hat(lam, n))
    return t1 - t2


def parity_swap(a: BiDiffOp) -> BiDiffOp:
    """The isomorphism A -> Pi(A o (sigma (x) sigma)).

    Returned with explicit sigma twists on both slots and the Pi flag on the
    output; applying it twice gives back A on the nose (sigma^2 = Pi^2 = id
    with no residual sign under this convention).
    """
    return BiDiffOp(a.n, dict(a.terms), tau=a.tau, lam=a.lam, mu=a.mu,
                    sigma1=not a.sigma1, sigma2=not a.sigma2, pi_out=not a.pi_out)


# ---------------------------------------------------------------------------
# structural isomorphisms: Phi (linear) and Psi (bilinear)
# ---------------------------------------------------------------------------

def phi_decompose(a: LinDiffOp):
    """Split an arity-n operator along F = F1 + F2 theta_n into four
    arity-(n-1) blocks (B11, B22, B21, B12) on weights

        (lam, mu), (lam+1/2, mu+1/2), Pi(lam, mu+1/2), Pi(lam+1/2, mu).

    Reassembly: A(F1 + F2 t_n) = B11(F1) + B12(sigma F2)
                                 + (B21(sigma F1) + B22(F2)) t_n,
    the sigma twists being the Koszul cost of the Pi identifications.
    """
    n = a.n
    if n < 1:
        raise ArityError("phi_decompose needs arity >= 1")
    bit = 1 << (n - 1)
    b11, b22, b21, b12 = {}, {}, {}, {}
    for (ax, S, k, e), c in a.terms.items():
        s_in = bool(S & bit)
        r_in = bool(e & bit)
        S2, e2 = S & ~bit, e & ~bit
        we = mask_weight(e2) & 1
        if not s_in and not r_in:
            _add_term(b11, (ax, S2, k, e2), c)
            _add_term(b22, (ax, S2, k, e2), c)
        elif s_in and not r_in:
            _add_term(b21, (ax, S2, k, e2), -c if we else c)
        elif not s_in and r_in:
            _add_term(b21, (ax, S2, k + 1, e2), -c)
            _add_term(b12, (ax, S2, k, e2), c)
        else:
            _add_term(b22, (ax, S2, k, e2), -c if we else c)
    m = n - 1
    return (LinDiffOp(m, b11), LinDiffOp(m, b22),
            LinDiffOp(m, b21), LinDiffOp(m, b12))


def phi_reassemble(blocks, n: int, f: SuperPoly) -> SuperPoly:
    """Evaluate the block decomposition on an arity-n payload (test oracle)."""
    from .densities import sigma as _sigma
    b11, b22, b21, b12 = blocks
    bit = 1 << (n - 1)
    t1, t2 = {}, {}
    for (d, m), c in f.terms.items():
        (t2 if m & bit else t1)[(d, m & ~bit)] = c
    f1 = SuperPoly(n - 1, t1)
    f2 = SuperPoly(n - 1, t2)
    g1 = b11.apply_poly(f1) + b12.apply_poly(_sigma(f2))
    g2 = b21.apply_poly(_sigma(f1)) + b22.apply_poly(f2)
    out = {}
    for (d, m), c in g1.terms.items():
        _add_term(out, (d, m), c)
    for (d, m), c in g2.terms.items():
        _add_term(out, (d, m | bit), c)
    return SuperPoly(n, out)


# Sector routing for the eight components of the bilinear splitting
# (slot-1 sector, slot-2 sector, output sector); sector 2 is the theta_n one.
PSI_ROUTES = ((1, 1, 1), (2, 2, 1), (1, 2, 2), (2, 1, 2),
              (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2))


def _sector_ops(n: int):
    """P1 = 1 - t_n eta_n (kills the theta_n sector), the left derivative
    d/dtheta_n = eta_n + t_n dx (extracts it, at the sigma cost), and the
    theta_n prefix used for sector-2 output."""
    bit = 1 << (n - 1)
    p1 = LinDiffOp(n, {(0, 0, 0, 0): Fraction(1), (0, bit, 0, bit): Fraction(-1)})
    dn = LinDiffOp(n, {(0, 0, 0, bit): Fraction(1), (0, bit, 1, 0): Fraction(1)})
    tn = LinDiffOp(n, {(0, bit, 0, 0): Fraction(1)})
    return p1, dn, tn


def _embed_bi(j: BiDiffOp, n: int) -> BiDiffOp:
    """Reinterpret an arity-(n-1) operator at arity n (theta_n unused)."""
    return BiDiffOp(n, dict(j.terms))


def psi_lift(components, n: int) -> BiDiffOp:
    """Assemble eight arity-(n-1) components into one arity-n operator.

    Realized with the slot calculus: sector projections / extractions are
    composed into each slot and sector-2 output is prefixed with theta_n.
    The sigma costs of the theta_n bookkeeping cancel inside the plain-term
    calculus, which is the content of the splitting isomorphism.
    """
    p1, dn, tn = _sector_ops(n)
    total = BiDiffOp(n, {})
    for comp, (s1, s2, so) in zip(components, PSI_ROUTES):
        if not comp:
            continue
        emb = _embed_bi(comp, n)
        emb = bi_slot2_compose(emb, p1 if s2 == 1 else dn)
        emb = bi_slot1_compose(emb, p1 if s1 == 1 else dn)
        if so == 2:
            emb = bi_left_compose(tn, emb)
        total = total + emb
    return total


def psi_component_action(h: SuperPoly, comp: BiDiffOp, route, tau, lam, mu) -> BiDiffOp:
    """Action of an aff(n-1|1) hamiltonian on one splitting component.

    Under the assembly convention of psi_lift, equivariance reads

        act_on_bi(H, psi_lift(T)) = psi_lift(componentwise action),

    the componentwise action being plain act_on_bi at the component's own
    weights, with an extra (-1)^|H| on theta_n-prefixed (output sector 2)
    routes: the cost of passing an odd field over the theta_n prefix.
    """
    hp = h.parity()
    acted = act_on_bi(h, comp, tau, lam, mu)
    if hp and route[2] == 2:
        return -acted
    return acted


def decompose_psi(j: BiDiffOp):
    """Inverse of psi_lift.

    Component values are read off sector-pure arguments: for the route
    (s1, s2, so) with sector-2 flags s1', s2',

        comp(u, v) = sign * [J(u t_n^{s1'}, v t_n^{s2'})]_{sector so},

    the sign undoing the extraction/prefix sigma costs:
    (-1)^{(s1'+s2')|u| + s2'|v|} from the slot compositions and extractions
    and (-1)^{|out|} from right-extracting theta_n in the output.
    """
    n = j.n
    j._untwisted()
    bit = 1 << (n - 1)
    max_a = max((a for (a, *_r) in j.terms), default=0)
    k1m = max((k1 + 1 for (_, _, k1, _, _, _) in j.terms), default=1)
    k2m = max((k2 + 1 for (_, _, _, _, k2, _) in j.terms), default=1)
    m = n - 1
    comps = []
    for (s1, s2, so) in PSI_ROUTES:
        s1p, s2p = s1 == 2, s2 == 2
        pairs, values = [], []
        for a1 in range(k1m + max_a + 2):
            for m1 in range(1 << m):
                u = SuperPoly.monomial(m, a1, m1)
                un = SuperPoly.monomial(n, a1, m1 | (bit if s1p else 0))
                pu = u.parity()
                for a2 in range(k2m + max_a + 2):
                    for m2 in range(1 << m):
                        v = SuperPoly.monomial(m, a2, m2)
                        vn = SuperPoly.monomial(n, a2, m2 | (bit if s2p else 0))
                        pv = v.parity()
                        val = apply_bi_poly(j, un, vn)
                        t_sec = {}
                        for (d, mm), c in val.terms.items():
                            if bool(mm & bit) == (so == 2):
                                t_sec[(d, mm & ~bit)] = c
                        want = SuperPoly(m, t_sec)
                        exp = (s2p * pu + s1p * pu + s2p * pv) & 1
                        if exp:
                            want = -want
                        if so == 2:
                            # right-extraction of theta_n costs sigma on the value
                            want = want.even_part() - want.odd_part()
                        pairs.append((u, v))
                        values.append(want)
        comps.append(_fit_bi(pairs, values, m, max_a, k1m, k2m))
    return tuple(comps)


def _candidate_words(n, max_a, k1m, k2m):
    out = []
    for a in range(max_a + 1):
        for S in range(1 << n):
            for k1 in range(k1m + 1):
                for e1 in range(1 << n):
                    for k2 in range(k2m + 1):
                        for e2 in range(1 << n):
                            out.append((a, S, k1, e1, k2, e2))
    return out


def _fit_bi(pairs, values, n, max_a, k1m, k2m):
    cand = _candidate_words(n, max_a, k1m, k2m)
    index = {key: i for i, key in enumerate(cand)}
    rows, rhs = [], []
    for (u, v), val in zip(pairs, values):
        got = {}
        for key in cand:
            t = BiDiffOp(n, {key: Fraction(1)})
            w = apply_bi_poly(t, u, v)
            for mono, c in w.terms.items():
                got.setdefault(mono, {})[index[key]] = c
        for mono in set(got) | set(val.terms):
            rows.append(got.get(mono, {}))
            rhs.append(val.terms.get(mono, Fraction(0)))
    coeffs = field_solve(rows, rhs, len(cand))
    terms = {key: coeffs[i] for key, i in index.items() if coeffs[i]}
    return BiDiffOp(n, terms)


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trip)
# ---------------------------------------------------------------------------

def _scalar_to_text(c):
    if isinstance(c, Fraction):
        return rat_text(c)
    if isinstance(c, ParamPoly):
        return c.text()
    raise ScalarError(f"cannot serialize coefficient {c!r}")


def _scalar_from_text(s, vars):
    from .scalars import parse_param_poly
    if vars:
        return parse_param_poly(s, vars)
    return Fraction(s)


def bi_terms_json(terms: dict) -> list:
    """Bilinear terms {(a, S, k1, e1, k2, e2): coeff} as JSON, sorted by key."""
    return [
        {
            "coeff": _scalar_to_text(c),
            "x_deg": a,
            "theta_mask": _bits_asc(S),
            "slot1": {"dx": k1, "eta_mask": _bits_asc(e1)},
            "slot2": {"dx": k2, "eta_mask": _bits_asc(e2)},
        }
        for (a, S, k1, e1, k2, e2), c in sorted(terms.items())
    ]


def bi_to_json(j: BiDiffOp) -> dict:
    out = {
        "n": j.n,
        "tau": _scalar_to_text(j.tau) if j.tau is not None else None,
        "lambda": _scalar_to_text(j.lam) if j.lam is not None else None,
        "mu": _scalar_to_text(j.mu) if j.mu is not None else None,
        "parity": j.parity(),
        "terms": bi_terms_json(j.terms),
    }
    if j.sigma1 or j.sigma2 or j.pi_out:
        out["twists"] = {"sigma1": j.sigma1, "sigma2": j.sigma2, "pi_out": j.pi_out}
    return out


def bi_from_json(d: dict, vars: tuple = ()) -> BiDiffOp:
    terms = {}
    for t in d["terms"]:
        key = (t["x_deg"], mask_from_list(t["theta_mask"]),
               t["slot1"]["dx"], mask_from_list(t["slot1"]["eta_mask"]),
               t["slot2"]["dx"], mask_from_list(t["slot2"]["eta_mask"]))
        terms[key] = _scalar_from_text(t["coeff"], vars)
    tw = d.get("twists", {})

    def w(name):
        return _scalar_from_text(d[name], vars) if d.get(name) is not None else None

    return BiDiffOp(d["n"], terms, tau=w("tau"), lam=w("lambda"), mu=w("mu"),
                    sigma1=tw.get("sigma1", False), sigma2=tw.get("sigma2", False),
                    pi_out=tw.get("pi_out", False))

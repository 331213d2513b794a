"""Exact scalar arithmetic.

Everything the engine computes with is built from `fractions.Fraction`:

* ``ParamPoly``   -- sparse polynomials in named parameters (ring operations
  over any number of them: the classification keeps (tau, lambda) symbolic),
* ``AlgebraicScalar``  -- elements of a quadratic extension Q[t]/(t^2+c1*t+c0).

The gcd, root and factor utilities work in one parameter only: the
cohomology pipeline eliminates over Q[lambda], and the (tau, lambda)
invariance systems are rational.  No floating point anywhere; resonant
weights are algebraic identities and are treated as such.  All values are
immutable after construction.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

ZERO = Fraction(0)
ONE = Fraction(1)


class ScalarError(ValueError):
    """Usage error: mismatched variable lists, incompatible extensions, or
    number text from outside that read_number refuses."""


def rat(x) -> Fraction:
    """Coerce ints / strings like '3/2' to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ScalarError(f"cannot coerce {x!r} to a rational")


def rat_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# error messages echo a value in at most this many bytes of UTF-8 or digits
ECHO_LIMIT = 24
# Fraction("1e99999999") builds 10**99999999 before it returns, and Python
# turns no int of more than 4300 digits into text or back, so number text
# from outside is refused past this many digits before it is converted
MAX_FRACTION_DIGITS = 4300


def clip_text(text: str, limit: int = ECHO_LIMIT) -> str:
    """text with each unprintable character escaped as repr escapes it,
    cut to limit bytes of UTF-8 (never inside a character) and '...' when
    it is longer: the one shape of echoed input, so that an error message
    which echoes one stays one short line."""
    text = "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in text)
    raw = text.encode()
    return text if len(raw) <= limit else raw[:limit].decode(errors="ignore") + "..."


def brief_rat_text(q) -> str:
    """rat_text(q) when its numerator and denominator have at most
    ECHO_LIMIT digits each, else its sign and '<more than 24 digits>':
    clip_text for a number, which never turns a long int into text (Python
    does not for more than 4300 digits)."""
    q = Fraction(q)
    bound = 10 ** ECHO_LIMIT
    if abs(q.numerator) < bound and q.denominator < bound:
        return rat_text(q)
    return f"{'-' if q < 0 else ''}<more than {ECHO_LIMIT} digits>"


def _fraction_digits(text: str):
    """Bounds on the digits of the numerator and the denominator that
    Fraction(text) builds, read off the text without building them;
    (0, 0) when the exponent is no int, which Fraction rejects too.  An
    exponent of more than ten digits is read as its first ten: the bounds
    pass any limit either way, and int() reads no more than 4300 digits."""
    mantissa, _, exp = text.strip().lower().replace("_", "").partition("e")
    whole, _, decimal = mantissa.partition(".")
    num, _, den = whole.partition("/")
    body = exp.lstrip("+-")
    sign = exp[:len(exp) - len(body)]
    try:
        shift = int(sign + (body.lstrip("0")[:10] or "0")) - len(decimal)
    except ValueError:
        return 0, 0
    digits = len((num.lstrip("+-") + decimal).lstrip("0"))
    return digits + max(shift, 0), max(len(den), 1 - min(shift, 0))


def read_number(text: str, lo=None, hi=None, step=None, name: str = ""):
    """The number that text from outside the program spells, an int when
    step is 1 and a Fraction otherwise: refused past MAX_FRACTION_DIGITS
    digits before it is converted, then off the grid of step or outside
    lo..hi (None: any rational, no bound).  A value past the digit limit is
    outside a range bounded at both ends.  The ScalarError raised echoes
    name + clip_text(text), never the number."""
    shown = name + (clip_text(text) or "''")
    span = f"{lo}..{hi}" if hi is not None else f">= {lo}"
    if max(_fraction_digits(text)) > MAX_FRACTION_DIGITS:
        if lo is not None and hi is not None:
            raise ScalarError(f"{shown} outside the supported range {span}")
        raise ScalarError(f"not an exact fraction: {shown!r} "
                          f"(more than {MAX_FRACTION_DIGITS} digits)")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        if step is None:
            raise ScalarError(f"not an exact fraction: {shown!r} "
                              f"({clip_text(str(exc), 48)})") from None
        value = None
    if step is not None and (value is None or value % step):
        grid = "an integer" if step == 1 else f"a multiple of {step}"
        raise ScalarError(f"{shown} is not {grid}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise ScalarError(f"{shown} outside the supported range {span}")
    return int(value) if step == 1 else value


# ---------------------------------------------------------------------------
# ParamPoly
# ---------------------------------------------------------------------------

class ParamPoly:
    """Polynomial over Q in an ordered tuple of named parameters.

    ``terms`` maps exponent tuples (one slot per variable) to nonzero
    Fractions.  The zero polynomial has an empty term map.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: tuple, terms: dict):
        self.vars = vars
        self.terms = terms
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(vars: tuple, value) -> "ParamPoly":
        value = rat(value)
        zero = (0,) * len(vars)
        return ParamPoly(vars, {zero: value} if value else {})

    @staticmethod
    def var(vars: tuple, name: str) -> "ParamPoly":
        if name not in vars:
            raise ScalarError(f"unknown parameter {name!r} (have {vars})")
        e = tuple(1 if v == name else 0 for v in vars)
        return ParamPoly(vars, {e: ONE})

    @staticmethod
    def from_univariate(var: str, coeffs: Iterable) -> "ParamPoly":
        """coeffs[i] is the coefficient of var**i."""
        terms = {}
        for i, c in enumerate(coeffs):
            c = rat(c)
            if c:
                terms[(i,)] = c
        return ParamPoly((var,), terms)

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.vars != self.vars:
                raise ScalarError(f"variable lists differ: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(self.vars, other)
        return None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e, ZERO) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return ParamPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, ZERO) + c1 * c2
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        return ParamPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result = ParamPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(self.vars, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    # -- structure ----------------------------------------------------------

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return ZERO
        if not self.is_constant():
            raise ScalarError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, idx: int) -> int:
        return max((e[idx] for e in self.terms), default=0)

    def leading_key(self) -> tuple:
        """Lexicographically largest exponent tuple (canonical leading term)."""
        return max(self.terms)

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_key()]

    def content(self) -> Fraction:
        """Rational content carrying the sign of the leading coefficient."""
        if not self.terms:
            return ZERO
        cont = Fraction(math.gcd(*(c.numerator for c in self.terms.values())),
                        math.lcm(*(c.denominator for c in self.terms.values())))
        if self.leading_coeff() < 0:
            cont = -cont
        return cont

    def scale(self, q) -> "ParamPoly":
        q = rat(q)
        if not q:
            return ParamPoly(self.vars, {})
        return ParamPoly(self.vars, {e: v * q for e, v in self.terms.items()})

    def derivative(self, idx: int = 0) -> "ParamPoly":
        terms = {}
        for e, c in self.terms.items():
            if e[idx]:
                e2 = e[:idx] + (e[idx] - 1,) + e[idx + 1:]
                s = terms.get(e2, ZERO) + c * e[idx]
                if s:
                    terms[e2] = s
                elif e2 in terms:
                    del terms[e2]
        return ParamPoly(self.vars, terms)

    def evaluate(self, values: dict):
        """Substitute every variable; values are Fractions or AlgebraicScalars."""
        vals = [values[v] for v in self.vars]
        acc = None
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                for _ in range(k):
                    term = term * v
            acc = term if acc is None else acc + term
        if acc is None:
            return ZERO
        return acc

    # -- univariate views ---------------------------------------------------

    def dense_coeffs(self) -> list:
        """Coefficient list c[0..deg] for a univariate polynomial."""
        if len(self.vars) != 1:
            raise ScalarError("dense_coeffs needs a univariate polynomial")
        d = self.degree_in(0)
        out = [ZERO] * (d + 1)
        for e, c in self.terms.items():
            out[e[0]] = c
        return out

    def monic(self) -> "ParamPoly":
        lc = self.leading_coeff()
        if lc == 1:
            return self
        inv = 1 / lc
        return ParamPoly(self.vars, {e: c * inv for e, c in self.terms.items()})

    # -- exact division -----------------------------------------------------

    def divexact(self, other: "ParamPoly") -> "ParamPoly":
        """Exact polynomial division; raises if the division is not exact."""
        o = self._coerce(other)
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        rem = self
        qterms = {}
        lk = o.leading_key()
        lc = o.terms[lk]
        while rem.terms:
            rk = rem.leading_key()
            e = tuple(a - b for a, b in zip(rk, lk))
            if any(x < 0 for x in e):
                raise ScalarError(f"inexact division of {self} by {other}")
            c = rem.terms[rk] / lc
            qterms[e] = c
            rem = rem - ParamPoly(self.vars, {e: c}) * o
        return ParamPoly(self.vars, qterms)

    # -- text ---------------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            factors = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            if not factors:
                body = rat_text(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = rat_text(abs(c)) + "*" + "*".join(factors)
            pieces.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(pieces)
        return out[2:] if out.startswith("+ ") else ("-" + out[2:])

    __str__ = text

    def __repr__(self):
        return f"ParamPoly({self.text()!r})"


def parse_param_poly(text: str, vars: tuple) -> ParamPoly:
    """Parse the canonical scalar text form (sum of rational*monomial terms)."""
    from .superpoly import _Lexer  # shared tokeniser

    lex = _Lexer(text)
    result = _parse_poly_sum(lex, vars)
    if lex.peek()[0] != "end":
        raise ScalarError(f"trailing input at column {lex.peek()[2]} in {text!r}")
    return result


def _parse_poly_sum(lex, vars):
    acc = ParamPoly.const(vars, 0)
    sign = 1
    first = True
    while True:
        kind, val, pos = lex.peek()
        if kind == "end" or kind == "rparen":
            if first:
                raise ScalarError(f"empty expression at column {pos}")
            return acc
        if kind == "op" and val in "+-":
            lex.next()
            sign = 1 if val == "+" else -1
        elif not first:
            raise ScalarError(f"expected + or - at column {pos}")
        acc = acc + _parse_poly_term(lex, vars).scale(sign)
        sign = 1
        first = False


def _parse_poly_term(lex, vars):
    factors = [_parse_poly_factor(lex, vars)]
    while True:
        kind, val, _ = lex.peek()
        if kind == "op" and val == "*":
            lex.next()
            factors.append(_parse_poly_factor(lex, vars))
        else:
            break
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def _parse_poly_factor(lex, vars):
    kind, val, pos = lex.next()
    if kind == "number":
        base = ParamPoly.const(vars, val)
    elif kind == "name":
        base = ParamPoly.var(vars, val)
    elif kind == "lparen":
        base = _parse_poly_sum(lex, vars)
        k2, _, p2 = lex.next()
        if k2 != "rparen":
            raise ScalarError(f"expected ')' at column {p2}")
    else:
        raise ScalarError(f"unexpected token {val!r} at column {pos}")
    kind, val, _ = lex.peek()
    if kind == "op" and val == "^":
        lex.next()
        k2, v2, p2 = lex.next()
        if k2 != "number" or v2.denominator != 1 or v2 < 0:
            raise ScalarError(f"exponent must be a nonnegative integer at column {p2}")
        base = base ** int(v2)
    return base


# ---------------------------------------------------------------------------
# polynomial gcd, roots, factorisation into the supported degrees
# ---------------------------------------------------------------------------

def poly_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Monic gcd of two univariate polynomials, by Euclid."""
    if a.vars != b.vars:
        raise ScalarError("gcd of polynomials over different variable lists")
    if len(a.vars) > 1:
        raise ScalarError(f"poly_gcd needs a single parameter (have {a.vars})")
    if not a.terms:
        return b.monic() if b.terms else b
    while b.terms:
        a, b = b, _poly_mod(a, b)
    return a.monic()


def _poly_mod(a, b):
    lk = b.leading_key()
    lc = b.terms[lk]
    rem = a
    while rem.terms and rem.leading_key() >= lk:
        rk = rem.leading_key()
        e = tuple(x - y for x, y in zip(rk, lk))
        if any(x < 0 for x in e):
            break
        c = rem.terms[rk] / lc
        rem = rem - ParamPoly(a.vars, {e: c}) * b
    return rem


def squarefree_part(p: ParamPoly) -> ParamPoly:
    if not p.terms or p.total_degree() == 0:
        return p.monic() if p.terms else p
    g = poly_gcd(p, p.derivative(0))
    if g.total_degree() == 0:
        return p.monic()
    return p.divexact(g).monic()


def rational_roots(p: ParamPoly) -> set:
    """All rational roots of a nonzero univariate polynomial."""
    if not p.terms:
        raise ScalarError("rational_roots of the zero polynomial")
    if len(p.vars) != 1:
        raise ScalarError("rational_roots needs a univariate polynomial")
    coeffs = p.dense_coeffs()
    # clear denominators to integer coefficients
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    roots = set()
    # strip factors of the variable
    low = 0
    while ints[low] == 0:
        roots.add(ZERO)
        low += 1
    ints = ints[low:]
    if len(ints) <= 1:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])
    for pnum in _divisors(a0):
        for qden in _divisors(an):
            for cand in (Fraction(pnum, qden), Fraction(-pnum, qden)):
                if cand in roots:
                    continue
                acc = ZERO
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.add(cand)
    return roots


def _divisors(m: int):
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            if d != m // d:
                out.append(m // d)
        d += 1
    return sorted(out)


def irreducible_factors(p: ParamPoly) -> list:
    """Split a univariate polynomial into monic irreducible factors of degree
    <= 2, multiplicities stripped.  Raises ScalarError if an irreducible
    factor of degree >= 3 remains (outside the supported resonance range)."""
    p = squarefree_part(p)
    if p.total_degree() == 0:
        return []
    factors = []
    for r in sorted(rational_roots(p)):
        lin = ParamPoly.from_univariate(p.vars[0], [-r, 1])
        factors.append(lin)
        p = p.divexact(lin)
    deg = p.total_degree()
    if deg == 0:
        return factors
    if deg == 2:
        return factors + [p.monic()]
    if deg == 4:
        quads = _split_quartic(p.monic())
        if quads is not None:
            return factors + quads
    raise ScalarError(
        f"irreducible factor of degree {deg} in resonance locus: {p.text()}; "
        "only rational and quadratic resonances are supported")


def _split_quartic(p: ParamPoly):
    """Try to write a monic rational quartic with no rational roots as a
    product of two monic rational quadratics."""
    e = p.dense_coeffs()  # e0..e4, e4 == 1
    a3, a2, a1, a0 = e[3], e[2], e[1], e[0]
    # (x^2+b x+c)(x^2+d x+f): b+d=a3, c+f+bd=a2, bf+cd=a1, cf=a0
    # resolvent in u=c+f: try all factorisations of a0 scaled to integers
    den = math.lcm(a3.denominator, a2.denominator, a1.denominator, a0.denominator)
    # brute force over divisor pairs of a0*den^2 within a generous bound
    n0 = a0 * den * den
    if n0.denominator != 1:
        return None
    cands = set()
    for d in _divisors(abs(int(n0))) or [0]:
        cands.add(Fraction(d, den))
        cands.add(Fraction(-d, den))
    for c in cands:
        if not c:
            continue
        f = a0 / c
        rest = a2 - c - f
        # b d = rest, b + d = a3, b f + c d = a1
        disc = a3 * a3 - 4 * rest
        sq = _rat_sqrt(disc)
        if sq is None:
            continue
        for b in ((a3 + sq) / 2, (a3 - sq) / 2):
            d = a3 - b
            if b * f + c * d == a1:
                q1 = ParamPoly.from_univariate(p.vars[0], [c, b, 1])
                q2 = ParamPoly.from_univariate(p.vars[0], [f, d, 1])
                return [q1, q2] if (c, b) <= (f, d) else [q2, q1]
    return None


def _rat_sqrt(q: Fraction):
    if q < 0:
        return None
    num = _int_sqrt(q.numerator)
    den = _int_sqrt(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_sqrt(m: int):
    r = math.isqrt(m)
    return r if r * r == m else None


# ---------------------------------------------------------------------------
# quadratic extensions
# ---------------------------------------------------------------------------

class AlgebraicScalar:
    """Element a + b*t of Q[t]/(t^2 + c1*t + c0), the minimal polynomial
    being irreducible over Q.  t denotes the positive-radical root
    (-c1 + sqrt(c1^2 - 4 c0)) / 2."""

    __slots__ = ("c0", "c1", "a", "b")

    def __init__(self, c0, c1, a, b):
        self.c0 = rat(c0)
        self.c1 = rat(c1)
        self.a = rat(a)
        self.b = rat(b)

    def _check(self, other):
        if (self.c0, self.c1) != (other.c0, other.c1):
            raise ScalarError("mixed quadratic extensions")

    def _coerce(self, other):
        if isinstance(other, AlgebraicScalar):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return AlgebraicScalar(self.c0, self.c1, other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicScalar(self.c0, self.c1, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicScalar(self.c0, self.c1, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a+bt)(c+dt) with t^2 = -c1 t - c0
        bd = self.b * o.b
        return AlgebraicScalar(
            self.c0, self.c1,
            self.a * o.a - self.c0 * bd,
            self.a * o.b + self.b * o.a - self.c1 * bd)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicScalar":
        # solve (a+bt)(x+yt) = 1
        det = self.a * self.a - self.c1 * self.a * self.b + self.c0 * self.b * self.b
        if not det:
            raise ZeroDivisionError("division by zero in quadratic extension")
        return AlgebraicScalar(self.c0, self.c1,
                               (self.a - self.c1 * self.b) / det, -self.b / det)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, AlgebraicScalar):
            return NotImplemented
        return ((self.c0, self.c1) == (other.c0, other.c1)
                and (self.a, self.b) == (other.a, other.b))

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.c0, self.c1, self.a, self.b))

    def branch(self):
        """0 if this element is t itself, 1 if it is the conjugate root,
        None otherwise."""
        if (self.a, self.b) == (ZERO, ONE):
            return 0
        if (self.a, self.b) == (-self.c1, Fraction(-1)):
            return 1
        return None

    def to_json(self):
        br = self.branch()
        if br is not None:
            return {"minpoly": [rat_text(self.c0), rat_text(self.c1), "1"],
                    "branch": br}
        return {"minpoly": [rat_text(self.c0), rat_text(self.c1), "1"],
                "coords": [rat_text(self.a), rat_text(self.b)]}

    @staticmethod
    def from_json(d) -> "AlgebraicScalar":
        c0, c1, c2 = (rat(x) for x in d["minpoly"])
        if c2 != 1:
            c0, c1 = c0 / c2, c1 / c2
        if "coords" in d:
            a, b = (rat(x) for x in d["coords"])
            return AlgebraicScalar(c0, c1, a, b)
        if d["branch"] == 0:
            return AlgebraicScalar(c0, c1, 0, 1)
        return AlgebraicScalar(c0, c1, -c1, -1)

    def radical_text(self) -> str:
        """Human-readable form (for Markdown reports only)."""
        disc = self.c1 * self.c1 - 4 * self.c0
        # value = a + b*(-c1 + sqrt(disc))/2, with the radicand cleared to
        # an integer: sqrt(n/d) = sqrt(n*d)/d
        p = self.a - self.b * self.c1 / 2
        q = self.b / 2
        if not q:
            return rat_text(p)
        q = q / disc.denominator
        rad = disc.numerator * disc.denominator
        # pull square factors out of the radicand
        f = 2
        while f * f <= rad:
            while rad % (f * f) == 0:
                rad //= f * f
                q = q * f
            f += 1
        disc = Fraction(rad)
        qs = "" if q == 1 else ("-" if q == -1 else rat_text(q) + "*")
        body = f"{qs}sqrt({rat_text(disc)})"
        if not p:
            return body
        sign = "+" if q > 0 else ""
        return f"{rat_text(p)}{sign}{body}" if q > 0 else f"{rat_text(p)}{body}"

    def __repr__(self):
        return f"AlgebraicScalar({self.radical_text()})"


def quadratic_split(p: ParamPoly):
    """Two conjugate roots of an irreducible rational quadratic, the
    positive-radical branch first."""
    if len(p.vars) != 1 or p.total_degree() != 2:
        raise ScalarError("quadratic_split needs a univariate quadratic")
    coeffs = p.dense_coeffs()
    a, b, c = coeffs[2], coeffs[1], coeffs[0]
    disc = b * b - 4 * a * c
    if _rat_sqrt(disc) is not None:
        raise ScalarError(f"{p.text()} is reducible over Q; use rational_roots")
    c1 = b / a
    c0 = c / a
    root_plus = AlgebraicScalar(c0, c1, 0, 1)
    root_minus = AlgebraicScalar(c0, c1, -c1, -1)
    return root_plus, root_minus

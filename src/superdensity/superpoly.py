"""Supercommutative polynomials R[x, theta_1..theta_n] and the derivations
d/dx, d/dtheta_i and eta_i = d/dtheta_i - theta_i d/dx.

Monomials are keyed by (x-degree, theta-mask); the mask is an int bitset
with bit i-1 standing for theta_i (canonical order theta_1 < ... < theta_n).
Coefficients live in any exact ring interoperating with Fraction (Fraction,
ParamPoly, AlgebraicScalar).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from .scalars import MAX_FRACTION_DIGITS, ScalarError, clip_text, rat_text

MAX_ARITY = 8


class ArityError(ValueError):
    """Mismatched number of odd variables."""


def mask_weight(mask: int) -> int:
    return mask.bit_count()


@cache
def grassmann_sign(s: int, t: int) -> int:
    """Sign of theta^S * theta^T -> theta^(S|T); 0 when S and T intersect.

    The sign counts transpositions needed to sort the concatenation, i.e.
    pairs (i in S, j in T) with i > j.
    """
    if s & t:
        return 0
    inv = 0
    rest = s
    while rest:
        low = rest & -rest
        inv += mask_weight(t & (low - 1))
        rest ^= low
    return -1 if inv & 1 else 1


def dtheta_sign(mask: int, i: int) -> int:
    """Left-derivative sign (-1)^(number of j in mask with j < i).

    i is 1-based; caller guarantees bit i-1 is set.
    """
    below = mask_weight(mask & ((1 << (i - 1)) - 1))
    return -1 if below & 1 else 1


class SuperPoly:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "SuperPoly":
        return SuperPoly(n, {})

    @staticmethod
    def monomial(n: int, xdeg: int, mask: int, coeff=1) -> "SuperPoly":
        if n < 0:
            raise ArityError(f"arity {n} is negative")
        if n > MAX_ARITY:
            raise ArityError(f"arity {n} exceeds the bitmask width {MAX_ARITY}")
        if mask >> n:
            raise ArityError(f"mask {mask:b} uses thetas beyond arity {n}")
        if isinstance(coeff, int):
            coeff = Fraction(coeff)
        return SuperPoly(n, {(xdeg, mask): coeff} if coeff else {})

    @staticmethod
    def const(n: int, c) -> "SuperPoly":
        return SuperPoly.monomial(n, 0, 0, c)

    @staticmethod
    def x(n: int) -> "SuperPoly":
        return SuperPoly.monomial(n, 1, 0)

    @staticmethod
    def theta(n: int, i: int) -> "SuperPoly":
        if not 1 <= i <= n:
            raise ArityError(f"theta index {i} out of range for arity {n}")
        return SuperPoly.monomial(n, 0, 1 << (i - 1))

    def _check(self, other: "SuperPoly"):
        if self.n != other.n:
            raise ArityError(f"arity mismatch: {self.n} vs {other.n}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "SuperPoly") -> "SuperPoly":
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            s = c if s is None else s + c
            if s:
                terms[k] = s
            elif k in terms:
                del terms[k]
        return SuperPoly(self.n, terms)

    def __neg__(self) -> "SuperPoly":
        return SuperPoly(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self + (-other)

    def __mul__(self, other: "SuperPoly") -> "SuperPoly":
        self._check(other)
        terms = {}
        for (d1, m1), c1 in self.terms.items():
            for (d2, m2), c2 in other.terms.items():
                sign = grassmann_sign(m1, m2)
                if not sign:
                    continue
                k = (d1 + d2, m1 | m2)
                c = c1 * c2 if sign > 0 else -(c1 * c2)
                s = terms.get(k)
                s = c if s is None else s + c
                if s:
                    terms[k] = s
                elif k in terms:
                    del terms[k]
        return SuperPoly(self.n, terms)

    def scale(self, c) -> "SuperPoly":
        if not c:
            return SuperPoly(self.n, {})
        return SuperPoly(self.n, {k: v * c for k, v in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- grading ------------------------------------------------------------

    def parity(self):
        """0 (even), 1 (odd) or None (parity-mixed)."""
        seen = set(mask_weight(m) & 1 for _, m in self.terms)
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    def even_part(self) -> "SuperPoly":
        return SuperPoly(self.n, {k: c for k, c in self.terms.items()
                                  if not mask_weight(k[1]) & 1})

    def odd_part(self) -> "SuperPoly":
        return SuperPoly(self.n, {k: c for k, c in self.terms.items()
                                  if mask_weight(k[1]) & 1})

    def homogeneous_parts(self):
        """Yield the nonzero parity-homogeneous parts."""
        ev, od = self.even_part(), self.odd_part()
        if ev:
            yield ev
        if od:
            yield od

    def max_xdeg(self) -> int:
        return max((d for d, _ in self.terms), default=0)

    # -- derivations --------------------------------------------------------

    def d_x(self) -> "SuperPoly":
        terms = {}
        for (d, m), c in self.terms.items():
            if d:
                terms[(d - 1, m)] = c * d
        return SuperPoly(self.n, terms)

    def d_theta(self, i: int) -> "SuperPoly":
        if not 1 <= i <= self.n:
            raise ArityError(f"theta index {i} out of range for arity {self.n}")
        bit = 1 << (i - 1)
        terms = {}
        for (d, m), c in self.terms.items():
            if m & bit:
                terms[(d, m ^ bit)] = c if dtheta_sign(m, i) > 0 else -c
        return SuperPoly(self.n, terms)

    def eta(self, i: int) -> "SuperPoly":
        """eta_i = d/dtheta_i - theta_i d/dx."""
        if not 1 <= i <= self.n:
            raise ArityError(f"theta index {i} out of range for arity {self.n}")
        bit = 1 << (i - 1)
        terms = {}
        for (d, m), c in self.terms.items():
            if m & bit:
                k = (d, m ^ bit)
                v = c if dtheta_sign(m, i) > 0 else -c
                s = terms.get(k)
                s = v if s is None else s + v
                if s:
                    terms[k] = s
                elif k in terms:
                    del terms[k]
            elif d:
                sign = grassmann_sign(bit, m)
                k = (d - 1, m | bit)
                v = -c * d if sign > 0 else c * d
                s = terms.get(k)
                s = v if s is None else s + v
                if s:
                    terms[k] = s
                elif k in terms:
                    del terms[k]
        return SuperPoly(self.n, terms)

    # -- text ---------------------------------------------------------------

    def text(self) -> str:
        """The polynomial as text; ScalarError when an exponent or a
        rational coefficient has a number of more than MAX_FRACTION_DIGITS
        digits, which Python does not turn into text."""
        if not self.terms:
            return "0"
        pieces = []
        for (d, m) in sorted(self.terms, key=lambda k: (-k[0], k[1])):
            c = self.terms[(d, m)]
            _printable(d, "an exponent")
            if isinstance(c, Fraction):
                _printable(c.numerator, "a coefficient")
                _printable(c.denominator, "a coefficient")
            factors = []
            if d == 1:
                factors.append("x")
            elif d > 1:
                factors.append(f"x^{d}")
            for i in range(1, self.n + 1):
                if m & (1 << (i - 1)):
                    factors.append(f"t{i}")
            cs, neg = _coeff_text(c)
            if not factors:
                body = cs
            elif cs == "1":
                body = "*".join(factors)
            else:
                body = cs + "*" + "*".join(factors)
            pieces.append(("- " if neg else "+ ") + body)
        out = " ".join(pieces)
        return out[2:] if out.startswith("+ ") else ("-" + out[2:])

    __str__ = text

    def __repr__(self):
        return f"SuperPoly({self.n}, {self.text()!r})"


_UNPRINTABLE = 10 ** MAX_FRACTION_DIGITS


def _printable(v: int, what: str):
    """Raise ScalarError, naming what, when the int v has more than
    MAX_FRACTION_DIGITS digits."""
    if abs(v) >= _UNPRINTABLE:
        raise ScalarError(f"{what} of more than {MAX_FRACTION_DIGITS} digits "
                          "is too long to print")


def _coeff_text(c):
    """Render a coefficient, returning (body, negated)."""
    if isinstance(c, Fraction):
        return rat_text(abs(c)), c < 0
    # ParamPoly or AlgebraicScalar: parenthesize, never split a sign out
    text = c.text() if hasattr(c, "text") else c.radical_text()
    return f"({text})", False


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


def _read_int(digits: str, pos: int) -> int:
    """int(digits) for a run of digits at column pos + 1 of the input,
    refused first when it is longer than int() reads."""
    if len(digits) > MAX_FRACTION_DIGITS:
        raise ParseError(f"number of more than {MAX_FRACTION_DIGITS} digits", pos)
    return int(digits)


class _Lexer:
    """Tokens: number (Fraction, handles p/q), name (x, t<k> or parameter),
    operators + - * ^, parens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._peeked = None

    def _advance(self):
        text, i = self.text, self.pos
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text):
            self.pos = i
            return ("end", None, i)
        ch = text[i]
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "/" and j + 1 < len(text) and text[j + 1].isdigit():
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                num, den = _read_int(text[i:j], i), _read_int(text[j + 1:k], j + 1)
                if not den:
                    raise ParseError("zero denominator", i)
                self.pos = k
                return ("number", Fraction(num, den), i)
            self.pos = j
            return ("number", Fraction(_read_int(text[i:j], i)), i)
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.pos = j
            return ("name", text[i:j], i)
        if ch in "+-*^":
            self.pos = i + 1
            return ("op", ch, i)
        if ch == "(":
            self.pos = i + 1
            return ("lparen", ch, i)
        if ch == ")":
            self.pos = i + 1
            return ("rparen", ch, i)
        raise ParseError(f"unexpected character {ch!r}", i)

    def peek(self):
        if self._peeked is None:
            self._peeked = self._advance()
        return self._peeked

    def next(self):
        tok = self.peek()
        self._peeked = None
        return tok


def parse_superpoly(text: str, n: int) -> SuperPoly:
    """Parse the superpoly grammar: x, t1..tn, ^ on x only, * + -, p/q."""
    lex = _Lexer(text)
    poly = _parse_sum(lex, n)
    kind, _, pos = lex.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return poly


def _parse_sum(lex: _Lexer, n: int) -> SuperPoly:
    acc = SuperPoly.zero(n)
    first = True
    while True:
        sign = 1
        kind, val, pos = lex.peek()
        if first and kind in ("end", "rparen"):
            raise ParseError("empty expression", pos)
        while kind == "op" and val in "+-":
            lex.next()
            if val == "-":
                sign = -sign
            kind, val, pos = lex.peek()
        term = _parse_product(lex, n)
        acc = acc + (term if sign > 0 else -term)
        first = False
        kind, val, pos = lex.peek()
        if kind in ("end", "rparen"):
            return acc
        if not (kind == "op" and val in "+-"):
            raise ParseError("expected '+' or '-'", pos)


def _parse_product(lex: _Lexer, n: int) -> SuperPoly:
    acc = _parse_factor(lex, n)
    while True:
        kind, val, _ = lex.peek()
        if kind == "op" and val == "*":
            lex.next()
            acc = acc * _parse_factor(lex, n)
        else:
            return acc


def _parse_factor(lex: _Lexer, n: int) -> SuperPoly:
    kind, val, pos = lex.next()
    if kind == "number":
        base = SuperPoly.const(n, val)
        is_x = False
    elif kind == "lparen":
        base = _parse_sum(lex, n)
        k2, _, p2 = lex.next()
        if k2 != "rparen":
            raise ParseError("expected ')'", p2)
        is_x = False
    elif kind == "name":
        if val == "x":
            base = SuperPoly.x(n)
            is_x = True
        elif val.startswith("t") and val[1:].isdigit():
            i = _read_int(val[1:], pos + 1)
            if not 1 <= i <= n:
                raise ParseError(f"theta index {clip_text(val)} out of range for arity {n}", pos)
            base = SuperPoly.theta(n, i)
            is_x = False
        else:
            raise ParseError(f"unknown name {clip_text(val)!r}", pos)
    else:
        raise ParseError(f"unexpected token {val!r}", pos)
    kind, val, pos = lex.peek()
    if kind == "op" and val == "^":
        lex.next()
        k2, v2, p2 = lex.next()
        if k2 != "number" or v2.denominator != 1 or v2 < 0:
            raise ParseError("exponent must be a nonnegative integer", p2)
        if not is_x:
            raise ParseError("'^' powers are only allowed on x", pos)
        base = SuperPoly.monomial(base.n, int(v2), 0)
    return base


def all_monomials(n: int, max_xdeg: int):
    """Every monomial x^a theta^S with a <= max_xdeg, in a fixed order."""
    out = []
    for a in range(max_xdeg + 1):
        for m in range(1 << n):
            out.append(SuperPoly.monomial(n, a, m))
    return out

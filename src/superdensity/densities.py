"""Weighted density modules F^n_lambda, the action L^lambda_{X_F} = X_F +
lambda F', the Leibniz action on tensor products, parity reversal Pi, the
sign involution sigma and the splitting to arity n-1.

Weights are carried explicitly (ParamPoly, possibly symbolic in l) and never
inferred.  Pi is a formal flag; its Koszul signs are paid at application
time.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Tuple

from .scalars import ParamPoly, ScalarError
from .superpoly import SuperPoly, ArityError
from .contact import HALF, ContactField, field_apply


@dataclass(frozen=True)
class Density:
    """payload * alpha_n^weight, optionally parity-reversed (pi_flag)."""
    payload: SuperPoly
    weight: ParamPoly
    pi_flag: bool = False

    @property
    def n(self) -> int:
        return self.payload.n

    def effective_parity(self):
        p = self.payload.parity()
        if p is None:
            return None
        return p ^ (1 if self.pi_flag else 0)

    def homogeneous_parts(self):
        for part in self.payload.homogeneous_parts():
            yield replace(self, payload=part)

    def __bool__(self):
        return bool(self.payload)

    def text(self) -> str:
        tail = " pi" if self.pi_flag else ""
        return f"{self.payload.text()} @ {self.weight.text()}{tail}"


@dataclass(frozen=True)
class TensorDensity:
    """Ordered tensor product of densities over the same arity."""
    factors: Tuple[Density, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("empty tensor density")
        n = self.factors[0].n
        if any(f.n != n for f in self.factors):
            raise ArityError("tensor factors have different arities")

    @property
    def n(self) -> int:
        return self.factors[0].n


def act(lam: ParamPoly, f: SuperPoly, d: Density) -> Density:
    """L^lambda_{X_F}(d) = X_F(payload) + lambda F' payload.

    The density's stored weight must equal lam.
    """
    if d.weight != lam:
        raise ScalarError(f"weight mismatch: density has {d.weight}, action uses {lam}")
    fp = f.d_x()
    out = field_apply(ContactField(f), d.payload)
    if fp:
        out = out + (fp * d.payload).scale(lam)
    return replace(d, payload=out)


def act_tensor(f: SuperPoly, weights: List[ParamPoly], t: TensorDensity) -> List[TensorDensity]:
    """Leibniz action of X_F on a tensor density, as a formal sum of tensor
    terms.  Passing F over the j-1 earlier factors costs the Koszul sign
    (-1)^{|F| (|d_1|+...+|d_{j-1}|)}.
    """
    if len(weights) != len(t.factors):
        raise ScalarError("one weight per tensor factor required")
    fp = f.parity()
    if fp is None:
        out = []
        for part in f.homogeneous_parts():
            out.extend(act_tensor(part, weights, t))
        return out
    terms = []
    passed = 0
    for j, (w, d) in enumerate(zip(weights, t.factors)):
        ep = d.effective_parity()
        if ep is None:
            raise ScalarError("tensor factors must be parity-homogeneous; split first")
        sign = -1 if (fp & passed & 1) else 1
        acted = act(w, f, d)
        if sign < 0:
            acted = replace(acted, payload=-acted.payload)
        factors = t.factors[:j] + (acted,) + t.factors[j + 1:]
        terms.append(TensorDensity(factors))
        passed ^= ep
    return terms


def tensor_sum_normal_form(terms: List[TensorDensity]) -> dict:
    """Canonical form of a formal sum of tensor densities: a map from tuples
    of (monomial key, weight, pi) per slot to coefficients, expanding each
    payload distributively."""
    out = {}
    for t in terms:
        expansions = [[]]
        coeffs = [Fraction(1)]
        for d in t.factors:
            new_exp, new_coef = [], []
            for keys, c in zip(expansions, coeffs):
                for k, v in d.payload.terms.items():
                    new_exp.append(keys + [(k, d.weight, d.pi_flag)])
                    new_coef.append(c * v)
            expansions, coeffs = new_exp, new_coef
        for keys, c in zip(expansions, coeffs):
            key = tuple(keys)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def parse_density(text: str, n: int, vars: tuple = ("l",)) -> Density:
    """Parse the density text form `poly @ weight [pi]`,
    e.g. ``x^2*t1 @ l+1/2 pi``."""
    from .superpoly import parse_superpoly
    from .scalars import parse_param_poly, ScalarError
    if "@" not in text:
        raise ScalarError("density text needs `poly @ weight`")
    poly_txt, rest = text.split("@", 1)
    rest = rest.strip()
    flag = False
    if rest.endswith("pi"):
        rest = rest[:-2].strip()
        flag = True
    payload = parse_superpoly(poly_txt.strip(), n)
    weight = parse_param_poly(rest, vars)
    return Density(payload, weight, flag)


def pi(d: Density) -> Density:
    """Formal parity reversal: toggles the flag, never touches the payload."""
    return replace(d, pi_flag=not d.pi_flag)


def sigma(p: SuperPoly) -> SuperPoly:
    """sigma(F) = (-1)^|F| F: negate the odd part."""
    return p.even_part() - p.odd_part()


def split(d: Density) -> Tuple[Density, Density]:
    """phi_lambda: F alpha_n^l -> (F1 alpha_{n-1}^l, Pi(F2 alpha_{n-1}^{l+1/2}))
    where F = F1 + F2 theta_n with F2 written to the left of theta_n."""
    n = d.n
    if n < 1:
        raise ArityError("split needs arity >= 1")
    bit = 1 << (n - 1)
    t1, t2 = {}, {}
    for (deg, m), c in d.payload.terms.items():
        if m & bit:
            # theta_n is the last factor in canonical order: no sign
            t2[(deg, m ^ bit)] = c
        else:
            t1[(deg, m)] = c
    half = ParamPoly.const(d.weight.vars, HALF)
    return (Density(SuperPoly(n - 1, t1), d.weight, d.pi_flag),
            Density(SuperPoly(n - 1, t2), d.weight + half, not d.pi_flag))


def unsplit(d1: Density, d2: Density) -> Density:
    """Inverse of split: reassemble F1 + F2 theta_n at arity n = d1.n + 1."""
    n = d1.n + 1
    bit = 1 << (n - 1)
    terms = {}
    for (deg, m), c in d1.payload.terms.items():
        terms[(deg, m)] = c
    for (deg, m), c in d2.payload.terms.items():
        terms[(deg, m | bit)] = c
    half = ParamPoly.const(d1.weight.vars, HALF)
    if d2.weight != d1.weight + half or d2.pi_flag == d1.pi_flag:
        raise ScalarError("unsplit expects the (weight, weight+1/2 pi) pattern")
    return Density(SuperPoly(n, terms), d1.weight, d1.pi_flag)

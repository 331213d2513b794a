"""Contact vector fields X_F on R^(1|n), the contact bracket and the
distinguished subalgebras aff(n|1), aff(n-1|1)_i, K(n-1)^i.

X_F = F d/dx - (1/2) sum_i (-1)^|F| eta_i(F) eta_i and the bracket
{F, G} = F G' - F' G - (1/2) (-1)^|F| sum_i eta_i(F) eta_i(G) make
F -> X_F a Lie superalgebra homomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .superpoly import SuperPoly, ArityError

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ContactField:
    """The contact field X_F, represented by its hamiltonian F."""
    hamiltonian: SuperPoly

    @property
    def n(self) -> int:
        return self.hamiltonian.n

    def parity(self):
        return self.hamiltonian.parity()

    def __call__(self, g: SuperPoly) -> SuperPoly:
        return field_apply(self, g)


def field_apply(x: ContactField, g: SuperPoly) -> SuperPoly:
    """X_F(G) = F G' - (1/2) (-1)^|F| sum_i eta_i(F) eta_i(G), which is
    {F, G} + F' G.  Parity-mixed hamiltonians are split by the bracket."""
    f = x.hamiltonian
    return contact_bracket(f, g) + f.d_x() * g


def contact_bracket(f: SuperPoly, g: SuperPoly) -> SuperPoly:
    """{F,G} = FG' - F'G - (1/2)(-1)^|F| sum_i eta_i(F) eta_i(G)."""
    if f.n != g.n:
        raise ArityError(f"arity mismatch: {f.n} vs {g.n}")
    out = SuperPoly.zero(f.n)
    for part in f.homogeneous_parts():
        sgn = -HALF if part.parity() == 0 else HALF
        acc = part * g.d_x() - part.d_x() * g
        for i in range(1, f.n + 1):
            ef = part.eta(i)
            if ef:
                acc = acc + (ef * g.eta(i)).scale(sgn)
        out = out + acc
    return out


@dataclass(frozen=True)
class SubalgebraSpec:
    """Named subalgebra of K(n): 'aff', optionally with an excluded theta
    index i realizing aff(n-1|1)_i (hamiltonians with d/dtheta_i F = 0)."""
    name: str
    n: int
    excluded: Optional[int] = None

    def __post_init__(self):
        if self.name != "aff":
            raise ValueError(f"unknown subalgebra {self.name!r}")
        if self.excluded is not None and not 1 <= self.excluded <= self.n:
            raise ValueError(f"excluded index {self.excluded} out of range")


def generators(spec: SubalgebraSpec) -> list:
    """Hamiltonians spanning the subalgebra: {1, x, theta_i, theta_i theta_j},
    without those involving the excluded index."""
    n = spec.n
    skip = 0 if spec.excluded is None else 1 << (spec.excluded - 1)
    out = [SuperPoly.const(n, 1), SuperPoly.x(n)]
    for i in range(1, n + 1):
        if skip & (1 << (i - 1)):
            continue
        out.append(SuperPoly.theta(n, i))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            m = (1 << (i - 1)) | (1 << (j - 1))
            if m & skip:
                continue
            out.append(SuperPoly.monomial(n, 0, m))
    return out

"""Exact engine for aff(n|1)-invariant bilinear differential operators on
weighted densities over R^(1|n) (n <= 2) and the relative cohomology
H^1(K(n), aff(n|1); D_{lambda,mu})."""

from .scalars import (ParamPoly, AlgebraicScalar, poly_gcd, rational_roots,
                      quadratic_split, ScalarError)
from .superpoly import SuperPoly, parse_superpoly, ParseError, ArityError
from .contact import ContactField, SubalgebraSpec, contact_bracket, field_apply, generators
from .densities import (Density, TensorDensity, act, act_tensor, pi, sigma,
                        split, parse_density)
from .diffop import (LinDiffOp, BiDiffOp, apply_lin, apply_bi,
                     normal_order, act_on_lin, act_on_bi, lift_generator,
                     psi_lift, decompose_psi, phi_decompose, parity_swap)
from .param_linalg import (ParamMatrix, SolutionSpace, generic_nullspace,
                           resonance_candidates)
from .cohomology import (Ansatz, build_ansatz, solve_invariance_bi,
                         solve_invariance_lin, relative_cochains, h1_cell)
from .reports import (H1Report, h1_report, all_reports, verify_paper,
                      verify_printed, lni_crosscheck,
                      reports_to_markdown)

__version__ = "0.1.0"

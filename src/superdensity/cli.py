"""Command-line front end.

Verbs: bracket, act, classify-invariants, classify-linear, h1,
verify-paper, tables, check-axioms.  Exit codes: 0 success, 1 usage or
internal error, 2 verified-discrepancy-present (verify-paper --strict).
Outputs are deterministic: fixed ordering, no timestamps in payloads.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction

from .scalars import ParamPoly, clip_text, rat_text
from .superpoly import parse_superpoly, ParseError
from .contact import contact_bracket
from .densities import Density, act
from .cohomology import COHO_VARS, solve_invariance_bi, solve_invariance_lin
from .diffop import bi_to_json
from . import reports as _reports

# check-axioms loops over triples of monomials, so its time grows as the
# cube of their number; a large --degree would run for hours
MAX_AXIOM_DEGREE = 6


# Fraction("1e99999999") builds 10**99999999 before it returns, and Python
# prints no int of more than 4300 digits, so longer values are refused first
MAX_FRACTION_DIGITS = 4300


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


def _parse_fraction(text: str) -> Fraction:
    if max(_fraction_digits(text)) > MAX_FRACTION_DIGITS:
        raise argparse.ArgumentTypeError(
            f"not an exact fraction: {clip_text(text)!r} "
            f"(more than {MAX_FRACTION_DIGITS} digits)")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"not an exact fraction: {clip_text(text)!r} ({clip_text(str(exc), 48)})")


def _emit(args, payload, markdown: str = None):
    if args.format == "md" and markdown is not None:
        text = markdown
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        # flushed here, so that a reader closing the pipe early raises
        # BrokenPipeError inside main, which handles it
        print(text, flush=True)


def _attach_dash_values(argv, options):
    """argv with each token that starts with a single '-' attached to the
    option before it as --opt=VALUE, when that option takes a value.
    argparse reads any such token but -N and -N.M as an option, so
    `--F -x` or `--lambda -4/3` would lack its value.  options maps each
    option string to whether it takes a value; an abbreviation counts as
    the options it abbreviates, which must all take one."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (tok.startswith("-") and not tok.startswith("--")
                and prev.startswith("--") and _takes_value(prev, options)):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _takes_value(opt, options):
    if opt in options:
        return options[opt]
    hits = [v for s, v in options.items() if s.startswith(opt)]
    return bool(hits) and all(hits)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that accepts option values starting with '-' and
    exits 1 on a usage error, the code the module docstring gives for it
    (argparse's own is 2, which verify-paper --strict uses)."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        options = {s: a.nargs != 0 for a in self._actions for s in a.option_strings}
        return super().parse_known_args(_attach_dash_values(args, options), namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def cmd_bracket(args):
    f = parse_superpoly(args.F, args.n)
    g = parse_superpoly(args.G, args.n)
    _emit(args, {"bracket": contact_bracket(f, g).text()})
    return 0


def cmd_act(args):
    n = args.n
    f = parse_superpoly(args.F, n)
    payload = parse_superpoly(args.density, n)
    lam = ParamPoly.const(COHO_VARS, args.weight) if args.weight is not None \
        else ParamPoly.var(COHO_VARS, "l")
    d = Density(payload, lam, args.pi)
    out = act(lam, f, d)
    _emit(args, {"result": out.text()})
    return 0


def cmd_classify_invariants(args):
    twok = int(2 * args.k)
    if 2 * args.k != twok:
        raise ValueError("k must lie on the half-integer grid")
    fam = solve_invariance_bi(args.n, twok)
    members = fam.members()
    payload = {"n": args.n, "k": rat_text(args.k), "dimension": fam.dimension,
               "basis": [bi_to_json(op) for op in members]}
    md = [f"# aff({args.n}|1)-invariant bilinear operators, k = {rat_text(args.k)}",
          f"dimension: {fam.dimension}", ""]
    md.extend(f"- `{op.text()}`" for op in members)
    _emit(args, payload, "\n".join(md))
    return 0


def cmd_classify_linear(args):
    twos = int(2 * args.shift)
    if 2 * args.shift != twos:
        raise ValueError("shift must lie on the half-integer grid")
    fam = solve_invariance_lin(args.n, twos)
    payload = {"n": args.n, "shift": rat_text(args.shift),
               "dimension": fam.dimension,
               "basis": [op.text() for op in fam.operators()]}
    md = [f"# aff({args.n}|1)-invariant linear operators, mu-lambda = {rat_text(args.shift)}",
          f"dimension: {fam.dimension}", ""]
    md.extend(f"- `{t}`" for t in payload["basis"])
    _emit(args, payload, "\n".join(md))
    return 0


def cmd_h1(args):
    twoshift = int(2 * args.shift)
    if 2 * args.shift != twoshift:
        raise ValueError("shift must lie on the half-integer grid")
    lam_value = args.lam
    rep = _reports.h1_report(args.n, twoshift, lam_value=lam_value,
                             run_gates=not args.no_gates)
    _emit(args, rep.to_json(), _reports.reports_to_markdown([rep]))
    return 0


def cmd_tables(args):
    ns = _parse_range(args.n)
    reps = _tables_reports(ns, args.jobs)
    payload = [r.to_json() for r in reps]
    _emit(args, payload, _reports.reports_to_markdown(reps))
    return 0


def _tables_reports(ns, jobs):
    if jobs < 1:
        raise ValueError(f"--jobs {jobs} must be at least 1")
    cells = _reports.table_cells(ns)
    # the pool starts all its workers at once, so start no more than cells
    workers = min(jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_one_report, cells))
    else:
        reps = [_one_report(c) for c in cells]
    reps.sort(key=lambda r: (r.n, r.twoshift))
    return reps


def _one_report(cell):
    n, twoshift = cell
    return _reports.h1_report(n, twoshift, run_gates=False)


def _parse_range(text: str):
    if ".." in text:
        lo, hi = text.split("..")
        ns = list(range(int(lo), int(hi) + 1))
    else:
        ns = [int(x) for x in text.split(",")]
    if not ns or len(set(ns)) != len(ns):
        raise ValueError(f"--n {text!r} must name each n once, at least one")
    return ns


def cmd_verify_paper(args):
    report = _reports.verify_paper()
    md = _reports.errata_markdown(report)
    _emit(args, report, md)
    if args.errata:
        with open(args.errata, "w", encoding="utf-8") as fh:
            fh.write(md + "\n")
    if args.strict and report["total_discrepancies"]:
        return 2
    return 0


def cmd_check_axioms(args):
    from .superpoly import SuperPoly, all_monomials
    from .contact import ContactField, field_apply
    if not 0 <= args.degree <= MAX_AXIOM_DEGREE:
        raise ValueError(f"--degree {args.degree} outside the supported range "
                         f"0..{MAX_AXIOM_DEGREE}")
    results = {}
    # bracket table of aff(1|1)
    one = SuperPoly.const(1, 1)
    x = SuperPoly.x(1)
    th = SuperPoly.theta(1, 1)
    table_ok = (contact_bracket(one, x) == one
                and contact_bracket(x, th) == th.scale(Fraction(-1, 2))
                and not contact_bracket(one, th)
                and contact_bracket(th, th) == one.scale(Fraction(1, 2)))
    results["aff11_bracket_table"] = table_ok
    # super Jacobi + homomorphism on bounded monomials
    jac_ok = True
    hom_ok = True
    for n in (1, 2):
        monos = all_monomials(n, args.degree)
        for f in monos:
            fp = f.parity()
            for g in monos:
                gp = g.parity()
                sgn_fg = -1 if fp and gp else 1
                for h in monos:
                    hp = h.parity()
                    t1 = contact_bracket(f, contact_bracket(g, h))
                    t2 = contact_bracket(contact_bracket(f, g), h)
                    t3 = contact_bracket(g, contact_bracket(f, h))
                    rhs = t2 + (t3 if sgn_fg > 0 else -t3)
                    if t1 != rhs:
                        jac_ok = False
                    lhs = field_apply(ContactField(contact_bracket(f, g)), h)
                    u = field_apply(ContactField(f), field_apply(ContactField(g), h))
                    v = field_apply(ContactField(g), field_apply(ContactField(f), h))
                    rhs2 = u - (v if sgn_fg > 0 else -v)
                    if lhs != rhs2:
                        hom_ok = False
    results["super_jacobi"] = jac_ok
    results["bracket_homomorphism"] = hom_ok
    _emit(args, results)
    return 0 if all(results.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="superdensity",
        description="Exact classification of aff(n|1)-invariant bilinear "
                    "operators on weighted densities and the relative "
                    "cohomology H^1(K(n), aff(n|1); D_(lambda,mu)).")
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--output", help="write the report to a file instead of stdout")
    sub = p.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("bracket", help="contact bracket of two hamiltonians")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--F", required=True)
    b.add_argument("--G", required=True)
    b.set_defaults(fn=cmd_bracket)

    a = sub.add_parser("act", help="apply L^lambda_{X_F} to a density payload")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--F", required=True)
    a.add_argument("--density", required=True)
    a.add_argument("--weight", type=_parse_fraction, default=None,
                   help="rational weight; omit for symbolic l")
    a.add_argument("--pi", action="store_true")
    a.set_defaults(fn=cmd_act)

    ci = sub.add_parser("classify-invariants",
                        help="aff(n|1)-invariant bilinear operators of shift k")
    ci.add_argument("--n", type=int, required=True)
    ci.add_argument("--k", type=_parse_fraction, required=True)
    ci.set_defaults(fn=cmd_classify_invariants)

    cl = sub.add_parser("classify-linear",
                        help="aff(n|1)-invariant linear operators")
    cl.add_argument("--n", type=int, required=True)
    cl.add_argument("--shift", type=_parse_fraction, required=True)
    cl.set_defaults(fn=cmd_classify_linear)

    h = sub.add_parser("h1", help="relative H^1 for one (n, shift) cell")
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--shift", type=_parse_fraction, required=True)
    h.add_argument("--lambda", dest="lam", type=_parse_fraction, default=None,
                   help="evaluate at a rational lambda instead of symbolically")
    h.add_argument("--no-gates", action="store_true",
                   help="skip the property gates (faster)")
    h.set_defaults(fn=cmd_h1)

    t = sub.add_parser("tables", help="assemble the H^1 tables")
    t.add_argument("--n", default="0..2", help="range like 0..2 or list 0,2")
    t.add_argument("--jobs", type=int, default=1)
    t.set_defaults(fn=cmd_tables)

    v = sub.add_parser("verify-paper", help="check every printed formula")
    v.add_argument("--strict", action="store_true",
                   help="exit 2 when any discrepancy is found")
    v.add_argument("--errata", help="also write the Markdown errata to this path")
    v.set_defaults(fn=cmd_verify_paper)

    c = sub.add_parser("check-axioms", help="bracket table, Jacobi, homomorphism")
    c.add_argument("--degree", type=int, default=3,
                   help=f"x-degree bound of the monomials, 0..{MAX_AXIOM_DEGREE}")
    c.set_defaults(fn=cmd_check_axioms)
    return p


def _check_writable(path):
    """Raise the OSError that writing path would raise when it is a
    directory, or its directory is missing or not writable, so that a bad
    --output or --errata fails before the work; the file is still written
    only at the end."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path in (args.output, getattr(args, "errata", None)):
            if path:
                _check_writable(path)
        return args.fn(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early (say `| head`): point stdout at
        # devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # an --output or --errata path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Verbs: bracket, act, classify-invariants, classify-linear, h1,
verify-paper, tables, check-axioms.  Each numeric option has one argparse
type, built by `_number` over `scalars.read_number` from the engine's own
bounds: the text is refused past 4300 digits before it is converted, then
read as an exact fraction and checked against the option's grid and
range.  Every error, usage errors included, is one `error: ...` line on
stderr with exit code 1.  Exit codes: 0 success, 1 any error, 2
verified-discrepancy-present (verify-paper --strict).  Outputs are
deterministic: fixed ordering, no timestamps in payloads.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction

from .scalars import ParamPoly, ScalarError, clip_text, rat_text, read_number
from .superpoly import MAX_ARITY, parse_superpoly
from .contact import contact_bracket
from .densities import Density, act
from .cohomology import (COHO_VARS, MAX_LIN_SHIFT, MAX_TWOK, SUPPORTED_N,
                         solve_invariance_bi, solve_invariance_lin)
from .diffop import bi_to_json
from . import reports as _reports

# check-axioms loops over triples of monomials, so its time grows as the
# cube of their number; a large --degree would run for hours
MAX_AXIOM_DEGREE = 6
# the longest usage error argparse may print, in bytes of UTF-8: its
# messages echo the command line, each argument of it clipped by clip_text.
# The longest message with one clipped argument, an unknown verb's, has 183
MAX_USAGE_TEXT = 185


def _number(lo=None, hi=None, step=None, many=False):
    """The argparse type of a numeric option: read_number(text, lo, hi,
    step), or with many, a range lo..hi or a comma list of such numbers
    that names each once; the ends of a range are read before it is
    built."""
    def read(text):
        try:
            if not many:
                return read_number(text, lo, hi, step)
            first, dots, last = text.partition("..")
            if dots:
                values = list(range(read_number(first, lo, hi, step),
                                    read_number(last, lo, hi, step) + 1))
            else:
                values = [read_number(t, lo, hi, step) for t in text.split(",")]
            if not values or len(set(values)) != len(values):
                raise ScalarError(f"{clip_text(text)} must name each value once, at least one")
            return values
        except ScalarError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


# any rational, as --lambda and --weight take it
_parse_fraction = _number()


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
    raises a usage error as ValueError, which main reports as it reports
    every error (argparse's own exit code 2 is verify-paper --strict's),
    with each argument of the command line that it echoes clipped."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        options = {s: a.nargs != 0 for a in self._actions for s in a.option_strings}
        self._args = _attach_dash_values(args, options)
        return super().parse_known_args(self._args, namespace)

    def error(self, message):
        # argparse echoes an argument, the value of --opt=VALUE, or either
        # as repr shows it between quotes
        echoed = set()
        for arg in getattr(self, "_args", ()):
            for text in (arg, arg.partition("=")[2]):
                echoed.update((text, repr(text)[1:-1]))
        for text in sorted(echoed, key=len, reverse=True):
            message = message.replace(text, clip_text(text))
        raise ValueError(clip_text(message, MAX_USAGE_TEXT))


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
    fam = solve_invariance_bi(args.n, int(2 * args.k))
    members = fam.members()
    payload = {"n": args.n, "k": rat_text(args.k), "dimension": fam.dimension,
               "basis": [bi_to_json(op) for op in members]}
    md = [f"# aff({args.n}|1)-invariant bilinear operators, k = {rat_text(args.k)}",
          f"dimension: {fam.dimension}", ""]
    md.extend(f"- `{op.text()}`" for op in members)
    _emit(args, payload, "\n".join(md))
    return 0


def cmd_classify_linear(args):
    fam = solve_invariance_lin(args.n, int(2 * args.shift))
    payload = {"n": args.n, "shift": rat_text(args.shift),
               "dimension": fam.dimension,
               "basis": [op.text() for op in fam.operators()]}
    md = [f"# aff({args.n}|1)-invariant linear operators, mu-lambda = {rat_text(args.shift)}",
          f"dimension: {fam.dimension}", ""]
    md.extend(f"- `{t}`" for t in payload["basis"])
    _emit(args, payload, "\n".join(md))
    return 0


def cmd_h1(args):
    rep = _reports.h1_report(args.n, int(2 * args.shift), lam_value=args.lam,
                             run_gates=not args.no_gates)
    _emit(args, rep.to_json(), _reports.reports_to_markdown([rep]))
    return 0


def cmd_tables(args):
    reps = _tables_reports(args.n, args.jobs)
    payload = [r.to_json() for r in reps]
    _emit(args, payload, _reports.reports_to_markdown(reps))
    return 0


def _tables_reports(ns, jobs):
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
    n_lo, n_hi = min(SUPPORTED_N), max(SUPPORTED_N)
    n_help = f"number of odd variables, {n_lo}..{n_hi}"
    arity_help = f"number of odd variables, 0..{MAX_ARITY}"
    half = Fraction(1, 2)
    max_k = Fraction(MAX_TWOK, 2)

    b = sub.add_parser("bracket", help="contact bracket of two hamiltonians")
    b.add_argument("--n", type=_number(0, MAX_ARITY, 1), required=True, help=arity_help)
    b.add_argument("--F", required=True)
    b.add_argument("--G", required=True)
    b.set_defaults(fn=cmd_bracket)

    a = sub.add_parser("act", help="apply L^lambda_{X_F} to a density payload")
    a.add_argument("--n", type=_number(0, MAX_ARITY, 1), required=True, help=arity_help)
    a.add_argument("--F", required=True)
    a.add_argument("--density", required=True)
    a.add_argument("--weight", type=_parse_fraction, default=None,
                   help="weight, any fraction; omit for symbolic l")
    a.add_argument("--pi", action="store_true")
    a.set_defaults(fn=cmd_act)

    ci = sub.add_parser("classify-invariants",
                        help="aff(n|1)-invariant bilinear operators of shift k")
    ci.add_argument("--n", type=_number(n_lo, n_hi, 1), required=True, help=n_help)
    ci.add_argument("--k", type=_number(0, max_k, half), required=True,
                    help=f"shift k, a multiple of 1/2 in 0..{max_k}")
    ci.set_defaults(fn=cmd_classify_invariants)

    cl = sub.add_parser("classify-linear",
                        help="aff(n|1)-invariant linear operators")
    cl.add_argument("--n", type=_number(n_lo, n_hi, 1), required=True, help=n_help)
    cl.add_argument("--shift", type=_number(-MAX_LIN_SHIFT, MAX_LIN_SHIFT, half),
                    required=True, help=f"mu - lambda, a multiple of 1/2 in "
                                        f"{-MAX_LIN_SHIFT}..{MAX_LIN_SHIFT}")
    cl.set_defaults(fn=cmd_classify_linear)

    h = sub.add_parser("h1", help="relative H^1 for one (n, shift) cell")
    h.add_argument("--n", type=_number(n_lo, n_hi, 1), required=True, help=n_help)
    h.add_argument("--shift", type=_number(-1, max_k - 1, half), required=True,
                   help=f"mu - lambda, a multiple of 1/2 in -1..{max_k - 1}")
    h.add_argument("--lambda", dest="lam", type=_parse_fraction, default=None,
                   help="evaluate at lambda, any fraction, instead of symbolically")
    h.add_argument("--no-gates", action="store_true",
                   help="skip the property gates (faster)")
    h.set_defaults(fn=cmd_h1)

    t = sub.add_parser("tables", help="assemble the H^1 tables")
    t.add_argument("--n", type=_number(n_lo, n_hi, 1, many=True), default="0..2",
                   help=f"range like 0..2 or list 0,2 of n in {n_lo}..{n_hi}")
    t.add_argument("--jobs", type=_number(1, step=1), default=1,
                   help="worker processes, at least 1")
    t.set_defaults(fn=cmd_tables)

    v = sub.add_parser("verify-paper", help="check every printed formula")
    v.add_argument("--strict", action="store_true",
                   help="exit 2 when any discrepancy is found")
    v.add_argument("--errata", help="also write the Markdown errata to this path")
    v.set_defaults(fn=cmd_verify_paper)

    c = sub.add_parser("check-axioms", help="bracket table, Jacobi, homomorphism")
    c.add_argument("--degree", type=_number(0, MAX_AXIOM_DEGREE, 1), default=3,
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
    try:
        args = build_parser().parse_args(argv)
        for path in (args.output, getattr(args, "errata", None)):
            if path:
                _check_writable(path)
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout early (say `| head`): point stdout at
        # devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        # bad input, a usage error, or an --output or --errata path that
        # cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime.  Every tolerance is exact (integer dimensions, exact
roots); the time budgets are the stated ceilings."""
import time
from fractions import Fraction

from superdensity.superpoly import SuperPoly, all_monomials
from superdensity.contact import SubalgebraSpec, contact_bracket, generators
from superdensity.densities import Density, act
from superdensity.scalars import ParamPoly, parse_param_poly
from superdensity.cohomology import (CocycleAssembler, h1_cell, relative_cochains,
                                     solve_invariance_bi, coboundaries_are_cocycles,
                                     specialization_check, stability_check)
from superdensity.param_linalg import FieldEchelon, GenericSystem, annihilates
from superdensity import reports as R

LAM = ParamPoly.var(("l",), "l")


def _report(name, ok, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] {name} ({time.monotonic() - t0:.1f}s)", flush=True)
    assert ok, name


def test_criterion_1_bracket_table():
    t0 = time.monotonic()
    one = SuperPoly.const(1, 1)
    x = SuperPoly.x(1)
    th = SuperPoly.theta(1, 1)
    ok = (contact_bracket(one, x) == one
          and contact_bracket(x, th) == th.scale(Fraction(-1, 2))
          and not contact_bracket(one, th)
          and contact_bracket(th, th) == one.scale(Fraction(1, 2)))
    elapsed = time.monotonic() - t0
    _report("criterion 1: aff(1|1) bracket table", ok and elapsed < 1.0, t0)


def test_criterion_2_axiom_suites():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2):
        monos = all_monomials(n, 3)
        payloads = all_monomials(n, 3)
        for f in monos:
            fp = f.parity()
            for g in monos:
                gp = g.parity()
                sgn = -1 if fp and gp else 1
                br = contact_bracket(f, g)
                # super Jacobi
                for h in monos:
                    lhs = contact_bracket(f, contact_bracket(g, h))
                    t1 = contact_bracket(br, h)
                    t2 = contact_bracket(g, contact_bracket(f, h))
                    if lhs != t1 + (t2 if sgn > 0 else -t2):
                        ok = False
                # representation identity, lambda symbolic
                for h in payloads:
                    d = Density(h, LAM)
                    lhs = SuperPoly.zero(n)
                    for part in br.homogeneous_parts():
                        lhs = lhs + act(LAM, part, d).payload
                    u = act(LAM, f, act(LAM, g, d)).payload
                    v = act(LAM, g, act(LAM, f, d)).payload
                    if lhs != u - (v if sgn > 0 else -v):
                        ok = False
    elapsed = time.monotonic() - t0
    _report("criterion 2: axiom suites (Jacobi + representation)",
            ok and elapsed < 60.0, t0)


def test_criterion_3_invariant_dimensions():
    t0 = time.monotonic()
    ok = True
    for k in range(8):
        if solve_invariance_bi(0, 2 * k).dimension != k + 1:
            ok = False
    for twok in range(14):
        # integer k >= 1: 2k+1; semi-integer k: 2[k]+2; k=0: 1 -- all twok+1
        if solve_invariance_bi(1, twok).dimension != twok + 1:
            ok = False
    for twok in range(13):
        if twok % 2:
            want = 0
        else:
            k = twok // 2
            want = 1 if k == 0 else (6 * k if k >= 2 else 6)
        if solve_invariance_bi(2, twok).dimension != want:
            ok = False
    elapsed = time.monotonic() - t0
    _report("criterion 3: invariant-operator dimensions", ok and elapsed < 600.0, t0)


def _table_ok(n, max_twoshift, budget, expected):
    t0 = time.monotonic()
    ok = True
    problems = []
    for twoshift in range(max_twoshift + 1):
        cell = h1_cell(n, twoshift)
        want_gen, want_special = expected(twoshift)
        if cell.dim_h1 != want_gen:
            ok = False
            problems.append((twoshift, "generic", cell.dim_h1, want_gen))
        got = {}
        for root, dim in cell.resonances:
            key = root if isinstance(root, Fraction) else ("alg", root.c0, root.c1, root.a, root.b)
            got[key] = dim
        want = {}
        for root, dim in want_special:
            key = root if isinstance(root, Fraction) else ("alg", root.c0, root.c1, root.a, root.b)
            want[key] = dim
        if got != want:
            ok = False
            problems.append((twoshift, "resonances", got, want))
    if problems:
        print("\n table problems:", problems)
    return ok, t0, time.monotonic() - t0 < budget


def test_criterion_4_h1_table_n0():
    q19 = parse_param_poly("l^2+5*l+3/2", ("l",))
    from superdensity.scalars import quadratic_split
    r0, r1 = quadratic_split(q19)

    def expected(twoshift):
        shift = Fraction(twoshift, 2)
        if shift in (2, 3, 4):
            return 1, []
        if shift == 1:
            return 0, [(Fraction(0), 1)]
        if shift == 5:
            return 0, [(Fraction(0), 1), (Fraction(-4), 1)]
        if shift == 6:
            return 0, [(r0, 1), (r1, 1)]
        return 0, []

    ok, t0, in_time = _table_ok(0, 14, 600.0, expected)
    # resonance minimal polynomials recovered exactly, up to unit
    cell5 = h1_cell(0, 10)
    roots5 = sorted(r for r, _ in cell5.resonances)
    poly5 = parse_param_poly("l^2+4*l", ("l",))
    ok = ok and all(poly5.evaluate({"l": r}) == 0 for r in roots5) and len(roots5) == 2
    cell6 = h1_cell(0, 12)
    mins = {(r.c0, r.c1) for r, _ in cell6.resonances}
    ok = ok and mins == {(Fraction(3, 2), Fraction(5))}
    _report("criterion 4: H1 table n=0 (mu-lambda <= 7)", ok and in_time, t0)


def test_criterion_5_h1_table_n1():
    from superdensity.scalars import quadratic_split
    q33 = parse_param_poly("l^2+7/2*l+1", ("l",))
    r0, r1 = quadratic_split(q33)

    def expected(twoshift):
        shift = Fraction(twoshift, 2)
        if shift == Fraction(1, 2):
            return 0, [(Fraction(0), 1)]
        if shift in (Fraction(3, 2), 2, Fraction(5, 2)):
            return 1, []
        if shift == 3:
            return 0, [(Fraction(0), 1), (Fraction(-5, 2), 1)]
        if shift == 4:
            return 0, [(r0, 1), (r1, 1)]
        return 0, []

    ok, t0, in_time = _table_ok(1, 13, 1800.0, expected)
    cell4 = h1_cell(1, 8)
    mins = {(r.c0, r.c1) for r, _ in cell4.resonances}
    ok = ok and mins == {(Fraction(1), Fraction(7, 2))}   # 2l^2+7l+2 up to unit
    _report("criterion 5: H1 table n=1 (2(mu-lambda) <= 13)", ok and in_time, t0)


def test_criterion_6_h1_table_n2():
    def expected(twoshift):
        shift = Fraction(twoshift, 2)
        if shift == 1:
            return 1, []
        if shift == 2:
            return 2, []
        return 0, []

    ok, t0, in_time = _table_ok(2, 9, 3600.0, expected)
    _report("criterion 6: H1 table n=2 (2(mu-lambda) <= 9, incl. mu=lambda)",
            ok and in_time, t0)


def test_criterion_7_printed_formulas(tmp_path):
    t0 = time.monotonic()
    report = R.verify_paper()
    claims_ok = all(r["status"] in ("confirmed", "discrepancy")
                    for r in report["claims"])
    restriction = next(r for r in report["claims"]
                       if r["id"] == "restriction_identity")
    md = R.errata_markdown(report)
    (tmp_path / "errata.md").write_text(md)
    import pathlib
    committed = pathlib.Path(__file__).resolve().parent.parent / "docs" / "errata.md"
    committed_ok = committed.exists() and committed.read_text().strip() == md.strip()
    all_confirmed = all(r["status"] == "confirmed" for r in report["claims"])
    ok = claims_ok and restriction["status"] == "confirmed" and committed_ok \
        and all_confirmed
    _report("criterion 7: printed-formula verification + errata", ok, t0)


def test_criterion_8_property_gates():
    t0 = time.monotonic()
    ok = True
    cells = ([(0, s) for s in range(0, 15, 2)]
             + [(1, s) for s in range(0, 14)]
             + [(2, s) for s in range(0, 10)])
    for n, twoshift in cells:
        cell = h1_cell(n, twoshift)
        if not coboundaries_are_cocycles(cell):
            ok = False
            print(f"\n delta.delta != 0 at n={n}, 2shift={twoshift}")
        if not cell.lemma_aff_ok:
            ok = False
            print(f"\n lemma 5.1 fails at n={n}, 2shift={twoshift}")
        if not stability_check(cell):
            ok = False
            print(f"\n degree stability fails at n={n}, 2shift={twoshift}")
        if not specialization_check(cell):
            ok = False
            print(f"\n specialization consistency fails at n={n}, 2shift={twoshift}")
        if not _x3_pairs_annihilate(cell):
            ok = False
            print(f"\n delta z(X_x^3, X_G) != 0 at n={n}, 2shift={twoshift}")
    _report("criterion 8: property gates (delta^2, B in Z, stability, specialization, "
            "x^3 pairs to D+4)", ok, t0)


def _x3_pairs_annihilate(cell) -> bool:
    """delta z(X_{x^3}, X_G) = 0 for every Z basis vector z and every
    monomial G of x-degree <= D + 4, on supp(Z basis).  aff(n|1) and x^3
    generate K(n), and z vanishes on aff and is invariant, so these pairs
    alone decide whether z is a cocycle: a check that reaches past the
    D -> D+2 gate at 2^n pairs per degree."""
    basis = cell.z_space.basis
    if not basis:
        return True
    cols = sorted({ci for v in basis for ci in v})
    keys = [cell.ansatz.terms[ci] for ci in cols]
    asm = CocycleAssembler(cell.n, cell.twoshift)
    for a in range(cell.degree_bound + 5):
        for mask in range(1 << cell.n):
            rows = {}
            for ci, op in zip(cols, asm.delta_ops((3, 0), (a, mask), keys)):
                for tkey, coeff in op.terms.items():
                    rows.setdefault(tkey, {})[ci] = coeff
            if not annihilates(rows.values(), basis):
                return False
    return True


def test_criterion_8_aff_and_x3_generate():
    """The premise of the x^3 check: the closure of aff(n|1) and x^3 under
    the contact bracket spans every monomial of x-degree <= 8, n <= 2.
    Brackets are taken with one generator at a time, which reaches the
    whole generated subalgebra, and kept only up to x-degree 10, which can
    only make the span found smaller."""
    t0 = time.monotonic()
    ok = True
    for n in (0, 1, 2):
        gens = generators(SubalgebraSpec("aff", n)) + [SuperPoly.monomial(n, 3, 0)]
        span = FieldEchelon()
        new = [g for g in gens if span.insert(dict(g.terms))]
        while new:
            found = []
            for e in new:
                for g in gens:
                    b = contact_bracket(g, e)
                    if b and b.max_xdeg() <= 10 and span.insert(dict(b.terms)):
                        found.append(b)
            new = found
        missing = [m for m in all_monomials(n, 8) if span.reduce(dict(m.terms))]
        if missing:
            ok = False
            print(f"\n n={n}: aff + x^3 misses {', '.join(m.text() for m in missing)}")
    _report("criterion 8: aff(n|1) and x^3 generate K(n) up to x-degree 8", ok, t0)


def test_criterion_9_lni_crosscheck():
    t0 = time.monotonic()
    out = R.lni_crosscheck(6)
    ok = True
    for cell in out["cells"]:
        n, twos = cell["n"], cell["twoshift"]
        overlap = n == 2 and twos % 2 == 0 and twos >= 2
        if overlap:
            # both printed families are invariant here: honest dimension 2,
            # logged as a discrepancy per the design decision
            if cell["computed"] != 2:
                ok = False
        elif cell["computed"] != cell["paper"]:
            ok = False
    logged = {d.split(":")[0] for d in out["discrepancies"]}
    # every overlap cell must be logged as a discrepancy
    ok = ok and all(f"n=2 shift={k}" in logged for k in range(1, 7))
    _report("criterion 9: LNI cross-check (matches or logged)", ok, t0)


# the table cells (n, 2 shift) whose x^3 solve has other pivot polynomials
# than the full Z sweep, though both span the same Z(D); measured
X3_PIVOTS_DIFFER = {(0, 10), (0, 12), (0, 14), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9),
                    (1, 10), (1, 11), (1, 12), (1, 13), (2, 4), (2, 6), (2, 8)}


def _x3_space(cell):
    """The solution space over Q(lambda) of the vanishing and invariance
    rows and the cocycle rows of the pairs (x^3, G), deg G <= D - 3, on
    supp(R): the pairs with F = x^3 among those of the full sweep."""
    _, van, inv, _, r_basis = relative_cochains(cell.n, cell.twoshift)
    cols = sorted({ci for v in r_basis for ci in v})
    keys = [cell.ansatz.terms[ci] for ci in cols]
    asm = CocycleAssembler(cell.n, cell.twoshift)
    system = GenericSystem(("l",), len(cell.ansatz.terms))
    system.extend(van + inv)
    for a in range(cell.degree_bound - 2):
        for mask in range(1 << cell.n):
            rows = {}
            for ci, acc in zip(cols, asm._delta_sums((3, 0), (a, mask), keys)):
                for tkey, pair in acc.items():
                    rows.setdefault(tkey, {})[ci] = pair
            system.extend(rows.values())
    return system.solution()


def test_x3_pairs_span_the_full_z():
    """On every table cell, the pairs (x^3, G) alone cut out Z(D): their
    solution contains Z(D), as their rows are among the full sweep's, and
    has its generic dimension, so no pair outside them adds a constraint.
    Each system's rows annihilate the other's basis.  The pivot
    polynomials, and so the candidate resonances they give, differ on the
    cells of X3_PIVOTS_DIFFER."""
    t0 = time.monotonic()
    differ = set()
    for n, twoshift in R.table_cells((0, 1, 2)):
        cell = h1_cell(n, twoshift)
        x3 = _x3_space(cell)
        assert x3.generic_dimension == cell.dim_z, (n, twoshift)
        assert annihilates(x3.rows, cell.z_space.basis), (n, twoshift)
        assert annihilates(cell.z_rows, x3.basis), (n, twoshift)
        if x3.pivot_polynomials != cell.z_space.pivot_polynomials:
            differ.add((n, twoshift))
    assert differ == X3_PIVOTS_DIFFER
    _report("x^3 pairs span Z(D) on every table cell", True, t0)


def test_r_unit_skip_changes_no_row():
    """On every table cell, leaving the R-unit columns out of the pairs with
    F or G in aff changes no row, item for item and in order: in the Z
    sweep on supp(R), in each Lemma 5.1 band on supp(V), and in the
    D+2 gate on the support of the Z basis.  (A pair outside aff is swept
    on every column either way.)  For n <= 1 every column of supp(R) is
    R-unit, so the aff pairs leave the Z sweep."""
    t0 = time.monotonic()
    for n, twoshift in R.table_cells((0, 1, 2)):
        cell = h1_cell(n, twoshift)
        _, van, inv, v_basis, r_basis = relative_cochains(n, twoshift)
        touched = {ci for row in van + inv for ci in row}
        assert cell.r_unit == set(range(len(cell.ansatz.terms))) - touched
        supp_r = sorted({ci for v in r_basis for ci in v})
        supp_v = sorted({ci for v in v_basis for ci in v})
        supp_z = sorted({ci for v in cell.z_space.basis for ci in v})
        if n <= 1:
            assert set(supp_r) <= cell.r_unit, (n, twoshift)
        d = cell.degree_bound
        sweeps = [(d, 0, supp_r)] + [(b, b, supp_v) for b in range(d + 1)]
        if supp_z:
            sweeps.append((d + 2, d + 1, supp_z))
        skip = CocycleAssembler(n, twoshift, cell.r_unit)
        full = CocycleAssembler(n, twoshift)
        for dmax, dmin, cols in sweeps:
            got = skip.rows(cell.ansatz, dmax, dmin, cols=cols, aff=True)
            want = full.rows(cell.ansatz, dmax, dmin, cols=cols, aff=True)
            assert [list(r.items()) for r in got] == [list(r.items()) for r in want], \
                (n, twoshift, dmax, dmin)
    _report("R-unit skip leaves every row of every table cell", True, t0)


def test_specialization_avoids_every_candidate_root():
    """On every table cell, the roots that specialization_check avoids, read
    off the cell's confirmed and rejected roots, are the roots of the
    candidate locus."""
    from superdensity.param_linalg import candidate_roots
    for n, twoshift in R.table_cells((0, 1, 2)):
        cell = h1_cell(n, twoshift)
        sorted_roots = [root for root, _ in cell.resonances] + cell.rejected
        roots = candidate_roots(cell.candidate_locus)
        assert len(sorted_roots) == len(roots)
        assert all(r in roots for r in sorted_roots)
        assert ({r for r in sorted_roots if isinstance(r, Fraction)}
                == {r for r in roots if isinstance(r, Fraction)})

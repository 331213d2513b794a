import random
from fractions import Fraction

import pytest

from superdensity.cohomology import (build_ansatz, coboundary_vectors, h1_cell,
                                     relative_cochains, solve_invariance_bi,
                                     solve_invariance_lin,
                                     CocycleAssembler, default_degree_bound)
from superdensity.param_linalg import (_dot, _row_normalize, annihilates,
                                       candidate_roots, field_nullspace, field_rank,
                                       generic_nullspace, pencil_row_poly,
                                       specialize_rows, ParamMatrix)
from superdensity.reports import table_cells
from superdensity.scalars import ParamPoly, ScalarError

L = ("l",)


def test_build_ansatz_examples():
    # n=0, k=2: {F''G, F'G', FG''}
    a = build_ansatz(0, 4)
    assert len(a.terms) == 3
    assert a.parity == 0
    # n=1, k=1/2: the theta-free part is {eta(F) G, F eta(G)}; the builder
    # also enumerates the theta-coefficient words, which the invariance
    # solver must kill rather than the ansatz assuming it
    a = build_ansatz(1, 1)
    assert a.parity == 1
    free = [t for t in a.terms if t[1] == 0]
    assert set(free) == {(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)}
    # every term satisfies the homogeneity rule 2(k1+k2)+|e1|+|e2|-|S| = 2k
    for (_, s, k1, e1, k2, e2) in a.terms:
        assert 2 * (k1 + k2) + bin(e1).count("1") + bin(e2).count("1") \
            - bin(s).count("1") == 1
    # n=2, k=1: 8 theta-free raw terms before invariance
    a = build_ansatz(2, 2)
    families = {}
    for (_, s, k1, e1, k2, e2) in a.terms:
        if s:
            continue
        fam = (bin(e1).count("1"), bin(e2).count("1"))
        families[fam] = families.get(fam, 0) + 1
    assert families[(0, 0)] == 2             # F'G, FG'
    assert families[(1, 1)] == 4             # single-eta pairs
    assert families[(2, 0)] == 1 and families[(0, 2)] == 1
    with pytest.raises(ScalarError):
        build_ansatz(1, 17)


def test_solve_invariance_bi_dimensions():
    # n=0: k+1 for every k
    for twok in (0, 2, 6, 14):
        assert solve_invariance_bi(0, twok).dimension == twok // 2 + 1
    # n=1, k=3/2: 2([k]+1) = 4, with a random-weight solver oracle
    fam = solve_invariance_bi(1, 3)
    assert fam.dimension == 4
    _oracle_invariance_dim(1, 3, fam.dimension)
    # n=2: k=1/2 -> 0, k=1 -> 6, k=2 -> 12
    assert solve_invariance_bi(2, 1).dimension == 0
    assert solve_invariance_bi(2, 2).dimension == 6
    assert solve_invariance_bi(2, 4).dimension == 12
    _oracle_invariance_dim(2, 2, 6)


def _oracle_invariance_dim(n, twok, want):
    """Independent oracle: impose invariance by evaluating the Leibniz action
    on monomial pairs at random rational weights."""
    from superdensity.diffop import BiDiffOp, apply_bi_poly, lift_hamiltonian
    from superdensity.superpoly import SuperPoly, all_monomials
    from superdensity.contact import SubalgebraSpec, generators
    from superdensity.param_linalg import field_nullspace
    rng = random.Random(77 + twok)
    ansatz = build_ansatz(n, twok)
    V = ()
    tau = Fraction(rng.randint(-9, 9), 2)
    lam = Fraction(rng.randint(-9, 9), 2)
    mu = tau + lam + Fraction(twok, 2)
    k_bound = twok // 2 + 2
    rows = {}
    monos = all_monomials(n, k_bound)
    for h in generators(SubalgebraSpec("aff", n)):
        hp = h.parity()
        lm = lift_hamiltonian(h, mu, n)
        lt = lift_hamiltonian(h, tau, n)
        ll = lift_hamiltonian(h, lam, n)
        for ci, key in enumerate(ansatz.terms):
            j = BiDiffOp(n, {key: Fraction(1)})
            jp = (bin(key[1]).count("1") + bin(key[3]).count("1")
                  + bin(key[5]).count("1")) & 1
            sgn = -1 if (hp and jp) else 1
            for d1 in monos:
                for d2 in monos:
                    t0 = lm.apply_poly(apply_bi_poly(j, d1, d2))
                    t1 = apply_bi_poly(j, lt.apply_poly(d1), d2)
                    t2 = apply_bi_poly(j, d1, ll.apply_poly(d2))
                    if hp and d1.parity():
                        t2 = -t2
                    rest = t1 + t2
                    out = t0 - (rest if sgn > 0 else -rest)
                    for mono, c in out.terms.items():
                        rows.setdefault((h.text(), d1, d2, mono), {})[ci] = c
    dim, _ = field_nullspace(list(rows.values()), len(ansatz.terms))
    assert dim == want


def test_solve_invariance_lin_families():
    # (n=0, shift k integer) -> dim 1, basis dx^k
    fam = solve_invariance_lin(0, 4)
    assert fam.dimension == 1
    ops = fam.operators()
    assert ops[0].terms == {(0, 0, 2, 0): Fraction(1)}
    # (n=1, shift k+1/2) -> dim 1, the eta-family
    fam = solve_invariance_lin(1, 3)
    assert fam.dimension == 1
    assert fam.operators()[0].terms == {(0, 0, 1, 1): Fraction(1)}
    # (n=0, non-integer shift) -> empty ansatz
    assert solve_invariance_lin(0, 3).dimension == 0


def composed_rows(hams, columns, image):
    """Rows of a generator system from operators: entry ci of row (H, t)
    is the coefficient of t in image(H, columns[ci]), rows and entries in
    first-seen order, the order the solvers build them in."""
    rows = {}
    for h in hams:
        for ci, col in enumerate(columns):
            for tkey, coeff in image(h, col).terms.items():
                if isinstance(coeff, ParamPoly):
                    assert coeff.is_constant()
                    coeff = coeff.constant_value()
                rows.setdefault((h.text(), tkey), {})[ci] = coeff
    return list(rows.values())


def composed_bi_image(n, tau, lam, mu):
    """(H, word) -> X_H . word by the three compositions that define the
    bilinear action: the oracle for the int sums behind the invariance
    rows."""
    from superdensity.diffop import (BiDiffOp, bi_left_compose, bi_slot1_compose,
                                     bi_slot2_compose, lift_hamiltonian)

    def image(h, key):
        j = BiDiffOp(n, {key: Fraction(1)})
        right = (bi_slot1_compose(j, lift_hamiltonian(h, tau, n))
                 + bi_slot2_compose(j, lift_hamiltonian(h, lam, n)))
        left = bi_left_compose(lift_hamiltonian(h, mu, n), j)
        return left + right if h.parity() and j.parity() else left - right
    return image


INVARIANCE_SHIFTS = [(0, 0), (0, 5), (0, 14), (1, 0), (1, 3), (1, 8), (2, 1),
                     (2, 2), (2, 5)]


@pytest.mark.parametrize("n, twok", INVARIANCE_SHIFTS)
def test_invariance_rows_match_composed_action(n, twok):
    """The invariance rows, read off the int sums, equal the rows of the
    composed action, row for row and entry for entry in order, at the
    cochain weights (tau = -1) and at the classification weights
    (tau, lambda symbolic, mu = tau + lambda + k); so do the vanishing
    rows and the basis solve_invariance_bi returns."""
    from superdensity import cohomology as C
    from superdensity.contact import SubalgebraSpec, generators
    from superdensity.diffop import BiDiffOp, bi_slot1_partial
    ansatz = build_ansatz(n, twok)
    thetas = C._theta_generators(n)
    lam = ParamPoly.var(L, "l")
    coho = composed_bi_image(n, ParamPoly.const(L, -1), lam,
                             lam + ParamPoly.const(L, Fraction(twok - 2, 2)))
    V = ("t", "l")
    t, lv = ParamPoly.var(V, "t"), ParamPoly.var(V, "l")
    classify = composed_bi_image(n, t, lv, t + lv + ParamPoly.const(V, Fraction(twok, 2)))
    inv = C.invariance_rows(n, ansatz)
    for want in (composed_rows(thetas, ansatz.terms, coho),
                 composed_rows(thetas, ansatz.terms, classify)):
        assert [list(r.items()) for r in inv] == [list(r.items()) for r in want]
        assert all(type(c) is Fraction for r in inv for c in r.values())
    van = composed_rows(generators(SubalgebraSpec("aff", n)), ansatz.terms,
                        lambda h, key: bi_slot1_partial(BiDiffOp(n, {key: Fraction(1)}), h))
    assert [list(r.items()) for r in C.vanishing_rows(n, ansatz)] == \
        [list(r.items()) for r in van]
    _, basis = field_nullspace(composed_rows(thetas, ansatz.terms, classify),
                               len(ansatz.terms))
    assert solve_invariance_bi(n, twok).basis == [C._normalize_qvec(v) for v in basis]


def test_even_generator_check_rejects_inhomogeneous_columns(monkeypatch):
    """X_1 and X_x must vanish identically in (tau, lambda): an x-dependent
    column fails X_1, a column of another shift fails X_x, and a generator
    that acts through the weights makes the invariance rows non-rational."""
    from superdensity import cohomology as C
    from superdensity.superpoly import SuperPoly
    for n in (0, 1, 2):
        image = C._bi_image(n, 2)
        C._assert_even_generators_trivial(n, build_ansatz(n, 2).terms, image)
        with pytest.raises(ScalarError, match="1-invariance"):
            C._assert_even_generators_trivial(n, [(1, 0, 0, 0, 1, 0)], image)
        with pytest.raises(ScalarError, match="x-invariance"):
            C._assert_even_generators_trivial(n, [(0, 0, 2, 0, 0, 0)], image)
    monkeypatch.setattr(C, "_theta_generators", lambda n: [SuperPoly.x(n)])
    with pytest.raises(ScalarError, match="not rational"):
        C.invariance_rows(1, build_ansatz(1, 2))


def composed_lin_image(n, lam, mu):
    """(H, word) -> X_H . word by the two compositions that define the
    linear action: the oracle for the int pairs behind the linear
    invariance rows."""
    from superdensity.diffop import LinDiffOp, compose_lin, lift_hamiltonian

    def image(h, key):
        a = LinDiffOp(n, {key: Fraction(1)})
        left = compose_lin(lift_hamiltonian(h, mu, n), a)
        right = compose_lin(a, lift_hamiltonian(h, lam, n))
        return left + right if h.parity() and a.parity() else left - right
    return image


@pytest.mark.parametrize("n, twos", [(0, 4), (1, 1), (1, 3), (1, 6), (2, 0),
                                     (2, 2), (2, 3), (2, 7)])
def test_linear_invariance_rows_match_composed_action(n, twos):
    """The linear invariance rows, read off the int pairs of lin_act_sums,
    equal the rows of the composed action at mu = lambda + twos/2, row for
    row and entry for entry in order; so does the basis
    solve_invariance_lin returns."""
    from superdensity import cohomology as C
    words = C._lin_words(n, twos)
    lam = ParamPoly.var(L, "l")
    want = composed_rows(C._theta_generators(n), words,
                         composed_lin_image(n, lam, lam + ParamPoly.const(L, Fraction(twos, 2))))
    rows = C._theta_rows(n, words, C._lin_sums(n, twos))
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in want]
    assert all(type(c) is Fraction for r in rows for c in r.values())
    _, basis = field_nullspace(want, len(words))
    assert solve_invariance_lin(n, twos).basis == [C._normalize_qvec(v) for v in basis]


def test_even_generator_check_rejects_linear_words(monkeypatch):
    """On linear words too: an x-dependent word fails X_1, a word of
    another shift fails X_x, and a generator that acts through lambda makes
    the linear invariance rows non-rational."""
    from superdensity import cohomology as C
    from superdensity.superpoly import SuperPoly
    for n in (0, 1, 2):
        sums = C._lin_sums(n, 2)
        C._assert_even_generators_trivial(n, C._lin_words(n, 2), sums)
        with pytest.raises(ScalarError, match="1-invariance"):
            C._assert_even_generators_trivial(n, [(1, 0, 1, 0)], sums)
        with pytest.raises(ScalarError, match="x-invariance"):
            C._assert_even_generators_trivial(n, [(0, 0, 2, 0)], sums)
    monkeypatch.setattr(C, "_theta_generators", lambda n: [SuperPoly.monomial(n, 2, 0)])
    with pytest.raises(ScalarError, match="not rational"):
        C.solve_invariance_lin(0, 2)


def test_relative_cochains_examples():
    # n=0, k=3 (shift 2): vanishing kills c_{0,j}, c_{1,j} -> dim 2
    ansatz, van, inv, v_basis, basis = relative_cochains(0, 4)
    assert len(basis) == 2
    for vec in basis:
        for row in van + inv:
            assert not _dot(row, vec)
    # V = ker(vanishing) and R lies in V: R adds nothing to the span of V
    for n, twoshift in ((0, 4), (1, 3), (1, 4), (2, 2)):
        _, van, _, v_basis, basis = relative_cochains(n, twoshift)
        assert annihilates(van, v_basis)
        assert field_rank(v_basis + basis) == len(v_basis)
    # n=0, k=1 (shift 0): both terms die
    ansatz, van, inv, v_basis, basis = relative_cochains(0, 0)
    assert len(basis) == 0
    # n=2, k=1 (shift 0): V is 10-dimensional, R = 0
    _, _, _, v_basis, basis = relative_cochains(2, 0)
    assert (len(v_basis), len(basis)) == (10, 0)


def test_cocycle_rows_annihilate_coboundaries():
    # delta(A) lies in the kernel of the cocycle rows (delta o delta = 0)
    for n, twoshift in ((0, 4), (1, 3)):
        ansatz = build_ansatz(n, twoshift + 2)
        rows = CocycleAssembler(n, twoshift).rows(ansatz, default_degree_bound(twoshift),
                                                  cols=range(len(ansatz.terms)))
        vecs = coboundary_vectors(n, twoshift, ansatz)
        assert rows and annihilates(rows, vecs)
        for vec in vecs:
            for row in rows:
                assert not _dot(pencil_row_poly(row, L), vec)


def test_cocycle_solution_dim_and_stability():
    # n=0 shift 2: dim Z = 2 (both candidate cochains are cocycles)
    cell = h1_cell(0, 4)
    assert cell.dim_z == 2 and cell.b_rank == 1 and cell.dim_h1 == 1
    from superdensity.cohomology import stability_check
    assert stability_check(cell)


def test_payload_evaluation_equivalence():
    """The operator-coefficient rows of the assembler span the same solution
    space as literal evaluation on all monomial densities."""
    from superdensity.superpoly import SuperPoly
    n, twoshift = 0, 2
    ansatz = build_ansatz(n, twoshift + 2)
    asm = CocycleAssembler(n, twoshift)
    d = default_degree_bound(twoshift)
    m1 = ParamMatrix(L, len(ansatz.terms))
    for row in asm.rows(ansatz, d, cols=range(len(ansatz.terms))):
        m1.add_row(row)
    # literal payload sweep
    m2 = ParamMatrix(L, len(ansatz.terms))
    payloads = [SuperPoly.monomial(n, c, 0) for c in range(d + 1)]
    for fkey, gkey in asm.pairs(d):
        ops = asm.delta_ops(fkey, gkey, ansatz.terms)
        for p in payloads:
            row = {}
            outs = [op.apply_poly(p) for op in ops]
            monos = set()
            for o in outs:
                monos |= set(o.terms)
            for mono in monos:
                r = {ci: o.terms[mono] for ci, o in enumerate(outs) if mono in o.terms}
                m2.add_row({ci: _p(v) for ci, v in r.items()})
    s1 = generic_nullspace(m1)
    s2 = generic_nullspace(m2)
    assert s1.generic_dimension == s2.generic_dimension
    for vec in s1.basis:
        for row in m2.rows:
            assert not _dot(row, vec)


@pytest.mark.parametrize("n, twoshift", [(0, 4), (1, 3), (1, 4), (2, 1)])
def test_delta_is_super_antisymmetric(n, twoshift):
    """delta(T)(X_G, X_F) = -(-1)^{|F||G|} delta(T)(X_F, X_G) for every
    ansatz term T, the property that lets rows() sweep unordered pairs."""
    from superdensity.superpoly import mask_weight
    keys = build_ansatz(n, twoshift + 2).terms
    asm = CocycleAssembler(n, twoshift)
    monos = [(a, m) for a in range(3) for m in range(1 << n)]
    for fkey in monos:
        for gkey in monos:
            even = not (mask_weight(fkey[1]) & mask_weight(gkey[1]) & 1)
            fg = asm.delta_ops(fkey, gkey, keys)
            gf = asm.delta_ops(gkey, fkey, keys)
            assert len(fg) == len(gf) == len(keys)
            for op_fg, op_gf in zip(fg, gf):
                assert op_gf == (-op_fg if even else op_fg)


def composed_delta_op(asm, fkey, gkey, key):
    """delta(T)(X_F, X_G) for one ansatz term T by the compositions that
    define the module action, summed as LinDiffOps: the oracle for
    CocycleAssembler.delta_ops."""
    from superdensity.contact import contact_bracket
    from superdensity.diffop import (BiDiffOp, LinDiffOp, bi_slot1_partial,
                                     compose_lin, lift_hamiltonian)
    from superdensity.superpoly import SuperPoly
    n = asm.n
    lam = ParamPoly.var(L, "l")
    mu = lam + ParamPoly.const(L, Fraction(asm.twoshift, 2))

    def action(h, a):
        lm = lift_hamiltonian(h, mu, n)
        right = compose_lin(a, lift_hamiltonian(h, lam, n))
        if h.parity() and a.parity():
            return compose_lin(lm, a) + right
        return compose_lin(lm, a) - right

    f, g = SuperPoly.monomial(n, *fkey), SuperPoly.monomial(n, *gkey)
    u = asm.twok & 1
    t = BiDiffOp(n, {key: Fraction(1)})
    acc = LinDiffOp.zero(n)
    a_g, a_f = bi_slot1_partial(t, g), bi_slot1_partial(t, f)
    if a_g:
        x = action(f, a_g)
        acc = acc + (-x if f.parity() & u else x)
    if a_f:
        x = action(g, a_f)
        acc = acc - (-x if g.parity() & (f.parity() ^ u) else x)
    for part in contact_bracket(f, g).homogeneous_parts():
        acc = acc - bi_slot1_partial(t, part)
    return acc


@pytest.mark.parametrize("n, twoshift, dmax", [(1, 3, 7), (2, 2, 4)])
def test_delta_ops_match_composed_action(n, twoshift, dmax):
    """The integer kernel gives each delta operator term for term, in the
    order of the compositions, with ParamPoly('l') coefficients whose
    values are Fractions; so do the assembled rows."""
    ansatz = build_ansatz(n, twoshift + 2)
    keys = ansatz.terms
    asm = CocycleAssembler(n, twoshift)
    for fkey, gkey in asm.pairs(dmax):
        for key, op in zip(keys, asm.delta_ops(fkey, gkey, keys)):
            want = composed_delta_op(asm, fkey, gkey, key)
            assert list(op.terms) == list(want.terms)
            assert list(op.terms.values()) == list(want.terms.values())
            for c in op.terms.values():
                assert type(c) is ParamPoly
                assert all(type(v) is Fraction for v in c.terms.values())
    for row in asm.rows(ansatz, dmax, cols=range(len(keys))):
        for c, x in row.values():
            assert type(c) is int and type(x) is int and (c or x)


def parampoly_rows(asm, ansatz, dmax, dmin=0, *, cols, aff=None):
    """The cocycle rows as they were assembled before pencil rows: the
    ParamPoly('l') coefficients of delta_ops, one row per output term,
    repeats included.  The oracle for CocycleAssembler.rows."""
    if not cols:
        return []
    keys = [ansatz.terms[ci] for ci in cols]
    out = []
    for fkey, gkey in asm.pairs(dmax, dmin, aff):
        per_pair = {}
        for ci, op in zip(cols, asm.delta_ops(fkey, gkey, keys)):
            for tkey, coeff in op.terms.items():
                per_pair.setdefault(tkey, {})[ci] = coeff
        out.extend(per_pair.values())
    return out


@pytest.mark.parametrize("n, twoshift", [(0, 4), (0, 6), (1, 3), (1, 4), (2, 2)])
def test_pencil_rows_match_parampoly_assembly(n, twoshift):
    """The pencil rows are the ParamPoly rows, entry for entry and in order
    (row order feeds candidate_locus), on every sweep a cell makes: the Z
    system on supp(R), the Lemma 5.1 bands (aff pairs, then the others) on
    supp(V), and the D+1..D+2 band of the stability gate on supp(Z basis)."""
    from itertools import product
    cell = h1_cell(n, twoshift)
    _, _, _, v_basis, r_basis = relative_cochains(n, twoshift)
    d = cell.degree_bound
    sweeps = [(d, 0, sorted({ci for v in r_basis for ci in v}), None),
              (d + 2, d + 1, sorted({ci for v in cell.z_space.basis for ci in v}), None)]
    v_cols = sorted({ci for v in v_basis for ci in v})
    sweeps += [(band, band, v_cols, aff) for aff, band in product((True, False), range(d + 1))]
    assert all(cols for _, _, cols, _ in sweeps)
    asm = CocycleAssembler(n, twoshift)
    for dmax, dmin, cols, aff in sweeps:
        got = asm.rows(cell.ansatz, dmax, dmin, cols=cols, aff=aff)
        want = parampoly_rows(asm, cell.ansatz, dmax, dmin, cols=cols, aff=aff)
        assert [list(pencil_row_poly(r, L).items()) for r in got] == \
            [list(r.items()) for r in want]


@pytest.mark.parametrize("n, twoshift", [(0, 6), (1, 3)])
def test_stability_check_rejects_a_non_cocycle(n, twoshift):
    """The D -> D+2 gate can fail: in a copy of the cell whose Z basis is a
    vector of R outside Z, the new rows do not annihilate the basis."""
    import dataclasses
    from superdensity.cohomology import stability_check
    from superdensity.param_linalg import SolutionSpace
    cell = h1_cell(n, twoshift)
    r_basis = [{ci: _p(e) for ci, e in v.items()} for v in relative_cochains(n, twoshift)[4]]
    outside = next(v for v in r_basis if not annihilates(cell.z_rows, [v]))
    broken = dataclasses.replace(cell, z_space=SolutionSpace(
        [outside], cell.z_space.pivot_polynomials, cell.z_space.rows))
    assert stability_check(cell)
    assert not stability_check(broken)


def test_stability_check_skips_assembly_when_z_is_zero(monkeypatch):
    """With Z(D) = 0 the D -> D+2 gate holds whatever the new rows are, so
    it assembles none."""
    from superdensity import cohomology as C
    cell = h1_cell(0, 0)
    assert cell.dim_z == 0

    def refuse(*args, **kwargs):
        raise AssertionError("cocycle rows assembled for an empty Z basis")

    monkeypatch.setattr(C.CocycleAssembler, "rows", refuse)
    assert C.stability_check(cell)


@pytest.mark.parametrize("claim_id", ["U1_{l,l+5/2}", "U1_{-1,3/2}", "U1_{l,l+2}"])
def test_broken_claim_names_first_failing_pair(claim_id):
    """A printed cocycle with its first coefficient doubled fails the
    cocycle condition, and the report names the smallest failing pair."""
    import copy
    from superdensity.reports import load_claims, verify_claim
    from superdensity.scalars import parse_param_poly
    claims = load_claims()
    claim = copy.deepcopy(next(c for c in claims["cocycles"] if c["id"] == claim_id))
    term = claim["terms"][0]
    term["coeff"] = (parse_param_poly(term["coeff"], L) * 2).text()
    [res] = verify_claim(claim, claims)
    assert res.status == "discrepancy"
    assert res.details == ["cocycle condition fails at monomial pair ('x*t1', 'x^2*t1')"]


def test_claim_outside_r_names_failing_pair():
    """A printed cocycle plus a term outside the relative cochains fails the
    vanishing condition, and the sweep over its own columns still names the
    smallest pair on which the cocycle condition fails."""
    import copy
    from superdensity.reports import load_claims, verify_claim
    claims = load_claims()
    claim = copy.deepcopy(next(c for c in claims["cocycles"] if c["id"] == "U1_{l,l+2}"))
    claim["terms"].append({"coeff": "1", "s1": [0, []], "s2": [3, []]})
    [res] = verify_claim(claim, claims)
    assert res.details == ["does not vanish on aff: J(1, .) != 0",
                           "cocycle condition fails at monomial pair ('1', 'x')"]


def _p(v):
    if isinstance(v, ParamPoly):
        return v
    return ParamPoly.const(L, v)


@pytest.mark.parametrize("n, twoshift", [(0, 4), (1, 3), (1, 4)])
def test_z_space_solves_full_system(n, twoshift):
    """Independent of which rows the cell kept: the nullspace of every Z row
    (vanishing, invariance and cocycle on supp(R)) has dimension dim Z, and
    every such row annihilates the cell's Z basis."""
    cell = h1_cell(n, twoshift)
    _, van, inv, _, r_basis = relative_cochains(n, twoshift)
    cols = sorted({ci for v in r_basis for ci in v})
    rows = van + inv + [pencil_row_poly(r, L) for r in CocycleAssembler(n, twoshift).rows(
        cell.ansatz, cell.degree_bound, cols=cols)]
    assert len(rows) > len(cell.z_rows)
    full = generic_nullspace(ParamMatrix(L, len(cell.ansatz.terms), rows))
    assert full.generic_dimension == cell.dim_z
    for vec in cell.z_space.basis:
        for row in rows:
            assert not _dot(row, vec)


ORACLE_CELLS = [c for c in table_cells((0, 1, 2))
                if c[0] == 0 or (c[0] == 1 and c[1] <= 6) or (c[0] == 2 and c[1] <= 2)]


@pytest.mark.parametrize("n, twoshift", ORACLE_CELLS)
def test_z_system_matches_full_sweep(n, twoshift):
    """Oracle for the Z system on supp(R): the cocycle rows on all columns
    annihilate the Z basis and cut out a space of dimension dim Z, also at
    every candidate root, and they give the cell's Lemma 5.1 verdict.  For
    n <= 1 SymPy ranks the same rows at every candidate root."""
    cell = h1_cell(n, twoshift)
    ncols = len(cell.ansatz.terms)
    _, van, inv, _, _ = relative_cochains(n, twoshift)
    coc = CocycleAssembler(n, twoshift).rows(cell.ansatz, cell.degree_bound,
                                             cols=range(ncols))
    assert annihilates(coc, cell.z_space.basis)
    coc = [pencil_row_poly(r, L) for r in coc]
    full = van + inv + coc
    assert generic_nullspace(ParamMatrix(L, ncols, full)).generic_dimension == cell.dim_z
    for root in candidate_roots(cell.candidate_locus):
        dz = ncols - field_rank(specialize_rows(full, "l", root))
        assert dz == cell.h1_at(root)[0]
    z_prime = generic_nullspace(ParamMatrix(L, ncols, van + coc))
    assert annihilates(inv, z_prime.basis) == cell.lemma_aff_ok
    if n <= 1:
        for root in candidate_roots(cell.candidate_locus):
            assert cell.h1_at(root)[0] == ncols - sympy_rank_at(full, ncols, root)


def sympy_rank_at(rows, ncols, root):
    """Rank of ParamPoly rows at lambda = root by SymPy's DomainMatrix, over
    QQ at a rational root and over QQ(sqrt(d)) at a quadratic one."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def q(f):
        return sympy.Rational(f.numerator, f.denominator)
    if isinstance(root, Fraction):
        dom, x = sympy.QQ, q(root)
    else:
        # root = a + b*t, t the root (-c1 + sqrt(c1^2 - 4 c0))/2 of t^2 + c1 t + c0
        s = sympy.sqrt(q(root.c1) ** 2 - 4 * q(root.c0))
        dom = sympy.QQ.algebraic_field(s)
        x = q(root.a) + q(root.b) * (s - q(root.c1)) / 2
    x = dom.from_sympy(x)
    entries = {}
    for i, row in enumerate(rows):
        r = {}
        for j, e in row.items():
            v = dom.zero
            for (k,), c in e.terms.items():
                v += dom.from_sympy(q(c)) * x ** k
            if not dom.is_zero(v):
                r[j] = v
        if r:
            entries[i] = r
    return DomainMatrix(entries, (len(rows), ncols), dom).rank() if entries else 0


def sympy_generic_rank(rows, ncols):
    """Rank over Q(lambda) of ParamPoly rows by SymPy's DomainMatrix."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    lam = sympy.Symbol("l")
    dom = sympy.QQ.frac_field(lam)
    entries = {}
    for i, row in enumerate(rows):
        r = {j: dom.from_sympy(sum(sympy.Rational(c.numerator, c.denominator) * lam ** k
                                   for (k,), c in e.terms.items()))
             for j, e in row.items()}
        if r:
            entries[i] = r
    return DomainMatrix(entries, (len(rows), ncols), dom).rank() if entries else 0


H1_ORACLE_CELLS = [c for c in table_cells((0, 1)) if c[0] == 0 or c[1] <= 6]


@pytest.mark.parametrize("n, twoshift", H1_ORACLE_CELLS)
def test_h1_ranks_match_sympy(n, twoshift):
    """SymPy's DomainMatrix gives the cell's rank B over Q(lambda) and, at
    every confirmed and every rejected candidate root, rank B, dim Z and so
    dim H^1: the resonance's dimension at a confirmed root, the generic
    dimension at a rejected one."""
    cell = h1_cell(n, twoshift)
    ncols = len(cell.ansatz.terms)
    assert sympy_generic_rank(cell.b_vectors, ncols) == cell.b_rank
    assert ncols - sympy_generic_rank(cell.z_rows, ncols) == cell.dim_z
    expected = dict(cell.resonances)
    expected.update((root, cell.dim_h1) for root in cell.rejected)
    assert set(expected) == set(candidate_roots(cell.candidate_locus))
    for root, dim_h1 in expected.items():
        rb = sympy_rank_at(cell.b_vectors, ncols, root)
        dz = ncols - sympy_rank_at(cell.z_rows, ncols, root)
        assert cell.h1_at(root) == (dz, rb, dz - rb)
        assert dz - rb == dim_h1


@pytest.mark.parametrize("twoshift", [0, 1, 3])
def test_empty_relative_space_assembles_no_cocycle_row(twoshift):
    """With R = 0 the Z system is the vanishing and invariance rows alone:
    the cell keeps as many of them as their rank over Q, and no other row."""
    _, van, inv, _, basis = relative_cochains(2, twoshift)
    assert not basis
    z_rows = h1_cell(2, twoshift).z_rows
    rational = [{j: e.constant_value() for j, e in r.items()} for r in van + inv]
    assert len(z_rows) == field_rank(rational)
    normalized = [_row_normalize(r) for r in van + inv]
    assert all(row in normalized for row in z_rows)


@pytest.mark.parametrize("n, twoshift, dims", [(1, 3, (7, 3)), (2, 2, (40, 4))])
def test_lemma_bands_use_support_of_v(n, twoshift, dims, monkeypatch):
    """Every cocycle sweep of a cell reads the support of the rational space
    it refines: the Z sweep supp(R), each Lemma 5.1 band supp(V)."""
    from superdensity import cohomology as C
    _, _, _, v_basis, r_basis = relative_cochains(n, twoshift)
    assert (len(v_basis), len(r_basis)) == dims
    supp_v = sorted({ci for v in v_basis for ci in v})
    supp_r = sorted({ci for v in r_basis for ci in v})
    assert supp_r and supp_r != supp_v
    asked = []
    rows = C.CocycleAssembler.rows

    def recording(self, ansatz, dmax, dmin=0, *, cols, aff=None):
        asked.append((dmin, dmax, list(cols)))
        return rows(self, ansatz, dmax, dmin, cols=cols, aff=aff)

    monkeypatch.setattr(C.CocycleAssembler, "rows", recording)
    d = default_degree_bound(twoshift)
    C._compute_cell(n, twoshift)
    (z_sweep, *bands) = asked
    assert z_sweep == (0, d, supp_r)
    assert bands and all(lo == hi and cols == supp_v for lo, hi, cols in bands)


def test_lemma_settles_on_aff_pairs(monkeypatch):
    """Lemma 5.1 sweeps the pairs with F or G in aff first: on n=1 at
    2*shift 3 an aff band settles it, and no other pair is assembled."""
    from superdensity import cohomology as C
    bands = []
    rows = C.CocycleAssembler.rows

    def recording(self, ansatz, dmax, dmin=0, *, cols, aff=None):
        if dmin == dmax:
            bands.append(aff)
        return rows(self, ansatz, dmax, dmin, cols=cols, aff=aff)

    monkeypatch.setattr(C.CocycleAssembler, "rows", recording)
    assert C._compute_cell(1, 3).lemma_aff_ok
    assert bands and set(bands) == {True}


def test_aff_pairs_split_the_sweep():
    """pairs(aff=True) and pairs(aff=False) partition the pairs, the first
    holding exactly those with F or G in {1, x, theta_i, theta_i theta_j}."""
    asm = CocycleAssembler(2, 2)
    gens = {(0, 0), (1, 0), (0, 1), (0, 2), (0, 3)}
    every = asm.pairs(5, 2)
    ins, outs = asm.pairs(5, 2, aff=True), asm.pairs(5, 2, aff=False)
    assert sorted(ins + outs) == sorted(every)
    assert all(f in gens or g in gens for f, g in ins)
    assert not any(f in gens or g in gens for f, g in outs)
    assert ins and outs


def test_lemma_failure_solves_full_system(monkeypatch):
    """An invariance row that cuts the vanishing + cocycle solution fails
    Lemma 5.1, and Z still solves the full system."""
    from superdensity import cohomology as C
    cell = h1_cell(0, 4)
    assert cell.dim_z == 2
    rows = C.invariance_rows
    # invariance rows are rational, and no rational row is orthogonal to
    # the coboundary of this cell, so B is emptied to stay inside Z
    monkeypatch.setattr(C, "invariance_rows",
                        lambda *args: rows(*args) + [{3: Fraction(1)}])
    monkeypatch.setattr(C, "coboundary_vectors", lambda *args: [])
    cut = C._compute_cell(0, 4)
    assert not cut.lemma_aff_ok
    assert cut.dim_z == cell.dim_z - 1
    for vec in cut.z_space.basis:
        for row in cut.z_rows:
            assert not _dot(row, vec)


def test_lemma_aff_and_gates_small():
    from superdensity.cohomology import (coboundaries_are_cocycles,
                                         specialization_check)
    for n, twoshift in ((0, 2), (1, 1)):
        cell = h1_cell(n, twoshift)
        assert cell.lemma_aff_ok
        assert coboundaries_are_cocycles(cell)
        assert specialization_check(cell)


def test_h1_known_small_cells():
    cell = h1_cell(0, 2)
    assert cell.dim_h1 == 0
    assert [(r, d) for r, d in cell.resonances] == [(Fraction(0), 1)]
    cell = h1_cell(1, 1)
    assert cell.dim_h1 == 0
    assert [(r, d) for r, d in cell.resonances] == [(Fraction(0), 1)]
    cell = h1_cell(1, 4)
    assert cell.dim_h1 == 1 and not cell.resonances


def test_coboundary_vectors_small_cells():
    ansatz = build_ansatz(0, 6)
    vecs = [v for v in coboundary_vectors(0, 4, ansatz) if v]
    assert len(vecs) == 1
    assert ansatz.parity == 0
    # lam = mu with only the identity invariant: delta(identity) = 0
    assert not any(coboundary_vectors(0, 0, build_ansatz(0, 2)))


LOCUS_CELLS = [c for c in table_cells((0, 1)) if c[0] == 0 or c[1] <= 6]


@pytest.mark.parametrize("n, twoshift", LOCUS_CELLS)
def test_off_locus_weights_are_generic(n, twoshift):
    """Off the candidate locus the specialized cell has the generic
    dimensions: at every lambda = k/2, -10 <= k <= 10, that is not a
    candidate root, h1_at gives (dim Z, rank B, dim H^1)."""
    cell = h1_cell(n, twoshift)
    roots = {r for r in candidate_roots(cell.candidate_locus) if isinstance(r, Fraction)}
    for k in range(-10, 11):
        v = Fraction(k, 2)
        if v not in roots:
            assert cell.h1_at(v) == (cell.dim_z, cell.b_rank, cell.dim_h1)


def test_stability_check_sweeps_the_cells_own_band(monkeypatch):
    """A cell built under SUPERDENSITY_DEGREE_BOUND keeps its D: the
    stability gate sweeps D+1..D+2 of that D after the variable is unset.
    The cell has dim Z = 1, so the gate has a basis to test."""
    from superdensity import cohomology as C
    d = default_degree_bound(2) + 2
    monkeypatch.setenv("SUPERDENSITY_DEGREE_BOUND", str(d))
    cell = h1_cell(0, 2)
    assert cell.degree_bound == d and cell.dim_z == 1
    monkeypatch.delenv("SUPERDENSITY_DEGREE_BOUND")
    asked = []
    rows = C.CocycleAssembler.rows

    def recording(self, ansatz, dmax, dmin=0, *, cols):
        asked.append((dmin, dmax))
        return rows(self, ansatz, dmax, dmin, cols=cols)

    monkeypatch.setattr(C.CocycleAssembler, "rows", recording)
    assert C.stability_check(cell)
    assert asked == [(d + 1, d + 2)]


def test_doubled_bracket_is_twice_the_contact_bracket():
    """The bracket parts that the assembler builds once per monomial pair
    are the homogeneous parts of 2 {F, G}, term for term and in order, as
    ints: every monomial pair of x-degree <= 6, n <= 2."""
    from superdensity.cohomology import _doubled_bracket
    from superdensity.contact import contact_bracket
    from superdensity.superpoly import SuperPoly
    for n in (0, 1, 2):
        monos = [(a, m) for a in range(7) for m in range(1 << n)]
        for fkey in monos:
            for gkey in monos:
                got = _doubled_bracket(n, fkey, gkey)
                want = contact_bracket(SuperPoly(n, {fkey: 1}), SuperPoly(n, {gkey: 1}))
                assert got == tuple(tuple((m, 2 * c) for m, c in part.terms.items())
                                    for part in want.homogeneous_parts())
                assert all(type(c) is int for part in got for _, c in part)


def lemma_bands_oracle(asm, ansatz, d, van, cols):
    """The Lemma 5.1 bands as they were solved before one system ran across
    them: per band, a fresh generic_nullspace of the rows kept by the band
    before and the band's rows.  The oracle for _lemma_bands."""
    from itertools import product
    kept = van
    for aff, band in product((True, False), range(d + 1)):
        rows = asm.rows(ansatz, band, dmin=band, cols=cols, aff=aff)
        space = generic_nullspace(ParamMatrix(L, len(ansatz.terms), kept + rows))
        yield space
        kept = space.rows


@pytest.mark.parametrize("n, twoshift, cut", [(0, 6, False), (1, 3, False), (1, 10, False),
                                              (2, 2, False), (2, 3, False), (0, 4, True)])
def test_lemma_bands_match_fresh_eliminations(n, twoshift, cut):
    """Band by band, the one system across the Lemma 5.1 bands keeps the
    rows, pivots and basis, and so reaches the verdict, that a fresh
    generic_nullspace of the carried rows plus the band reaches.  With
    cut, an invariance row cuts the solutions as in
    test_lemma_failure_solves_full_system, so no band settles the Lemma
    and every band runs."""
    from superdensity.cohomology import _lemma_aff_holds, _lemma_bands
    ansatz, van, inv, v_basis, _ = relative_cochains(n, twoshift)
    if cut:
        inv = inv + [{3: ParamPoly.const(L, 1)}]
    d = default_degree_bound(twoshift)
    cols = sorted({ci for v in v_basis for ci in v})
    got = list(_lemma_bands(CocycleAssembler(n, twoshift), ansatz, d, van, cols))
    want = list(lemma_bands_oracle(CocycleAssembler(n, twoshift), ansatz, d, van, cols))
    assert len(got) == len(want) == 2 * (d + 1)
    verdicts = []
    for space, want_space in zip(got, want):
        assert space.rows == want_space.rows
        assert space.pivot_polynomials == want_space.pivot_polynomials
        assert space.basis == want_space.basis
        verdicts.append(annihilates(inv, space.basis))
        assert verdicts[-1] == annihilates(inv, want_space.basis)
    assert any(verdicts) is not cut
    assert _lemma_aff_holds(CocycleAssembler(n, twoshift), ansatz, d, van, inv, cols) \
        is not cut


@pytest.mark.parametrize("n, twoshift", [(1, 3), (2, 2)])
def test_rows_do_not_depend_on_earlier_cells(n, twoshift, monkeypatch):
    """The module action's action tables are a process-wide cache, so a
    cell's rows must not depend on what ran before it: the rows of a fresh
    assembler (the Z sweep and the D+2 band on supp(V)) are the same, item
    for item and in order, with the tables cold and after two other cells
    and an invariance solve of the same shift have filled them."""
    from superdensity import cohomology
    from superdensity.diffop import _action_table
    ansatz, _, _, v_basis, _ = relative_cochains(n, twoshift)
    cols = sorted({ci for v in v_basis for ci in v})
    d = default_degree_bound(twoshift)

    def rows():
        return [list(r.items()) for r in
                CocycleAssembler(n, twoshift).rows(ansatz, d + 2, cols=cols)]
    _action_table.cache_clear()
    cold = rows()
    monkeypatch.setattr(cohomology, "_CELL_CACHE", {})
    for other in (twoshift - 1, twoshift + 1):
        h1_cell(n, other)
    solve_invariance_lin(n, twoshift)
    assert _action_table.cache_info().currsize > 0
    assert rows() == cold

"""Pencils, joint-center assembly, ladders, and the evaluation picture."""
import dataclasses
import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from glab.exactla import (
    BudgetError, InputError, QMatrix, RowSpace, mat_inv, nullspace, rank_mod_p, rat_str,
    row_space,
)
from glab.liecore import (
    UniPoly,
    algebra_from_json,
    algebra_to_json,
    builtin_algebra,
    index_report,
    make_difference_bracket,
    make_quotient,
    parse_poly,
    pencil_combination,
    rational_roots,
)
from glab import invariantlab, pencilz, psring
from glab.psring import (
    MPoly,
    annihilation_rows,
    coeff_rows,
    combination_basis,
    directional_derivative,
    poisson_bracket,
    primitive,
    span_dim,
    substitute_levels,
    substitute_vars,
)
from glab.invariantlab import (
    basic_invariants,
    casimir,
    crt_generators,
    invariants_degree,
    polarize,
    weakly_increasing,
)
from glab.pencilz import (
    Pencil,
    ZAlgebra,
    _annihilator_combos,
    _ladder_space,
    _ladders_against_Z,
    _pencil_rows,
    _sample_sequence,
    build_Z,
    check_ft_gzu,
    check_sovp,
    expected_trdeg,
    mf_image,
    tau_ladder_span,
    trdeg_estimate,
    trdeg_of_Z,
    verify_Z_commutes,
)
from oracle import (
    reference_combine,
    reference_derivation,
    reference_echelon_basis,
    reference_images,
    reference_jacobian_at,
    reference_ladder,
    reference_rho_gamma,
    reference_sampled_max_rank,
)


@pytest.fixture(scope="module")
def pen_t(sl2):
    return Pencil(sl2, parse_poly("t^2"), parse_poly("t^2+t"))


@pytest.fixture(scope="module")
def pen_1(sl2):
    return Pencil(sl2, parse_poly("t^2"), parse_poly("t^2+1"))


def test_pencil_validation(sl2):
    with pytest.raises(InputError):
        Pencil(sl2, parse_poly("t^2"), parse_poly("t^2"))
    with pytest.raises(InputError):
        Pencil(sl2, parse_poly("t^3"), parse_poly("t^2"))
    with pytest.raises(InputError):
        Pencil(sl2, parse_poly("t^3"), parse_poly("t^3+t^2"))
    with pytest.raises(InputError):
        Pencil(sl2, UniPoly.make([1, 2]), parse_poly("t+1"))


def test_normalization(sl2, pen_t, pen_1):
    n1 = pen_t.normalization()
    assert n1["l"] == "t" and n1["shift"] == 0
    n2 = pen_1.normalization()
    assert n2["l"] == "1"
    shifted = Pencil(sl2, parse_poly("t^2"), parse_poly("t^2+t+1"))
    n3 = shifted.normalization()
    assert n3["l"] == "t"
    l = parse_poly("t^2") - parse_poly("t^2+t+1")
    assert l.eval(n3["shift"]) == 0


def test_build_Z_counts_and_recipes(pen_t):
    Z = build_Z(pen_t)
    assert Z.counts() == {0: 3}
    assert Z.expected_counts() == {0: 3}
    assert len(Z.samples) == 2 * 2 + 3
    assert Z.raw_generators == 14
    assert verify_Z_commutes(Z)


def test_build_Z_reads_no_name(sl3):
    # sl3 loaded under another name: the invariants come from its matrices
    renamed = algebra_from_json(dict(algebra_to_json(sl3), name="custom"))
    assert basic_invariants(renamed) == basic_invariants(sl3)
    p1, p2 = parse_poly("t^2"), parse_poly("t^2+t")
    assert build_Z(Pencil(renamed, p1, p2)).basis == build_Z(Pencil(sl3, p1, p2)).basis


def test_build_Z_recipes_reproduce_central_generators(sl3):
    # every member kernel vector gives a nonzero polynomial that is central
    # for its member and lies in the basis span of its source, and
    # raw_generators counts them
    P = Pencil(sl3, parse_poly("t^2"), parse_poly("t^2+t"))
    Z = build_Z(P)
    spaces = [(pols, _pencil_rows(pols, P)) for pols in _polarization_spaces(P, Z.invariants)]
    raw = 0
    for a in Z.samples:
        member = pencil_combination(*P.end_tables, a, 1 - a)
        for i, (pols, rows) in enumerate(spaces):
            for vec in _annihilator_combos(rows, P.member_weights(a), len(pols)):
                poly = reference_combine(pols, vec)
                assert not poly.is_zero()
                assert all(poisson_bracket(poly, MPoly.variable(v), member).is_zero()
                           for v in member.var_list())
                assert span_dim(Z.basis[i] + [poly]) == span_dim(Z.basis[i])
                raw += 1
    assert raw == Z.raw_generators == 36


def test_build_Z_annihilation_route(pen_1):
    # members t^2 + (1 - a) include irreducible moduli, so the exact
    # annihilation solve must participate
    Z = build_Z(pen_1)
    assert Z.counts() == {0: 3}
    assert verify_Z_commutes(Z)


def test_build_Z_monotone_in_samples(pen_t, pen_1):
    for pen in (pen_t, pen_1):
        dims = []
        for count in (1, 2, 4, 7):
            Z = build_Z(pen, sample_count=count)
            dims.append(sum(Z.counts().values()))
        assert dims == sorted(dims)
        assert dims[-1] == 3


def test_build_Z_input_checks(pen_t):
    with pytest.raises(InputError):
        build_Z(pen_t, sample_count=0)
    with pytest.raises(InputError):
        build_Z(pen_t, f_list=[])


def test_build_Z_refuses_a_sample_count_above_the_budget(pen_t, monkeypatch):
    # refused before the samples are listed or any member is solved
    def unreachable(*args):
        raise AssertionError("build_Z went past the sample count check")

    monkeypatch.setenv("GLAB_BUDGET_TERMS", "100")
    monkeypatch.setattr(pencilz, "_sample_sequence", unreachable)
    monkeypatch.setattr(pencilz, "_annihilator_combos", unreachable)
    with pytest.raises(BudgetError, match="sample count 101 exceeds budget 100"):
        build_Z(pen_t, sample_count=101)


def test_build_Z_bounds_the_polarizations_by_the_budget(monkeypatch):
    # terms(F) * n^deg F bounds the terms of all polarizations of F: for
    # sl4's quartic invariant at n = 3 that is 80 * 81 = 6480, which the
    # budget admits at 6480 and refuses below, before any polarization
    pen = Pencil(builtin_algebra("sl4"), parse_poly("t^3"), parse_poly("t^3+t"))
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "6480")
    assert build_Z(pen).counts() == {0: 5, 1: 7, 2: 9}
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "6479")
    monkeypatch.setattr(pencilz, "polarize", None)
    with pytest.raises(BudgetError, match="invariant 2 .80 terms of degree 4, n = 3. "
                                          "may hold 6480 terms, past budget 6479"):
        build_Z(pen)


def test_build_Z_refuses_invariants_that_are_not_central(sl2, pen_t):
    # the rows are taken at q's module generators only, which is sound for
    # polarizations of invariants alone
    e, C = MPoly.variable((0, 0)), casimir(sl2)
    for f_list in ([e], [C, e], [MPoly.zero()]):
        with pytest.raises(InputError, match="invariant of sl2"):
            build_Z(pen_t, f_list=f_list)
    assert build_Z(pen_t, f_list=[C]).counts() == {0: 3}


def _basis_text(Z) -> str:
    """Canonical text of the Z basis: monomials and coefficients, sorted
    (the layout the benchmark pins the Z basis in)."""
    return json.dumps([
        [sorted([repr(m), rat_str(c)] for m, c in F.terms.items()) for F in Z.basis[i]]
        for i in sorted(Z.basis)
    ], separators=(",", ":"))


# sha256 of the basis text and the number of raw generators, taken while
# build_Z still bracketed every variable and formed every member polynomial
# (sl5: while it still formed every basis combination and reduced them over
# their monomials; sl6: while build_Z still formed every basis polynomial)
@pytest.mark.parametrize("qname, p1, p2, generators, digest", [
    ("sl4", "t^2", "t^2+t", 66,
     "ad83913375917b3363741705e330536173086a46008dd96d176178a3455a532b"),
    ("gl3", "t^3", "t^3+1", 108,
     "2899de8274b8a69c1c5521a3fc7e31a4f6ed6bfbab0f9fda8c616273a233cd86"),
    ("sl3", "t^4", "t^4+t", 120,
     "c5e2caf9fa7ee3fd2e77546eb00a31c01ed9e3f8b0788c6708c55f09d40bb8c7"),
    ("sl4", "t^3", "t^3+t", 135,
     "ea16e9beb62a92ed5a23d4ebd5068416a608305b87737a904d327566abeea666"),
    ("sl5", "t^2", "t^2+t", 104,
     "d1f6f0bdd7a917fb9d018dd5f52628aa07daf18a8fdf835839e5c7302a8c8c1c"),
    ("sl6", "t^2", "t^2+t", 150,
     "2ce8281b07030b74f201a42ad93ce06f2da43a204f203f2916e7eeeb78b71b8e"),
])
def test_build_Z_bytes_are_pinned(qname, p1, p2, generators, digest):
    Z = build_Z(Pencil(builtin_algebra(qname), parse_poly(p1), parse_poly(p2)))
    assert Z.raw_generators == generators
    assert Z.counts() == Z.expected_counts()
    assert hashlib.sha256(_basis_text(Z).encode()).hexdigest() == digest


# small pencils on which Z must not depend on a choice the paper does not make
METAMORPHIC_CASES = [
    ("sl2", "t^2", "t^2+t"),
    ("sl3", "t^2", "t^2+t"),
    ("gl3", "t^2", "t^2+1"),
    ("sl3", "t^3", "t^3+t"),
]


@pytest.mark.parametrize("qname, p1, p2", METAMORPHIC_CASES)
def test_build_Z_does_not_depend_on_which_end_comes_first(qname, p1, p2):
    # the pencil of p1, p2 is that of p2, p1: the member at a of one is the
    # member at 1 - a of the other, and the bases are canonical
    q, p1, p2 = builtin_algebra(qname), parse_poly(p1), parse_poly(p2)
    Z, W = build_Z(Pencil(q, p1, p2)), build_Z(Pencil(q, p2, p1))
    assert Z.counts() == W.counts() == Z.expected_counts()
    assert Z.basis == W.basis


def _pencil_summary(q, p1, p2):
    """What the choice of a basis of q must not change: the index of q and
    of both ends, Z's counts, whether Z commutes, and its trdeg."""
    P = Pencil(q, parse_poly(p1), parse_poly(p2))
    Z = build_Z(P)
    return (index_report(q).index, [index_report(T).index for T in P.end_tables],
            Z.counts(), verify_Z_commutes(Z), trdeg_of_Z(Z).rank)


@functools.lru_cache(maxsize=None)
def _builtin_summary(qname, p1, p2):
    return _pencil_summary(builtin_algebra(qname), p1, p2)


def invertible_matrices(dim):
    """Invertible rational dim x dim matrices: a product of elementary row
    operations row_i += c * row_j, then one row halved or none."""
    op = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                   st.sampled_from([-2, -1, 1, 2])).filter(lambda o: o[0] != o[1])

    def build(ops, halved):
        g = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        for i, j, c in ops:
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        if halved is not None:
            g[halved] = [x / 2 for x in g[halved]]
        return g

    return st.builds(build, st.lists(op, min_size=1, max_size=dim),
                     st.none() | st.integers(0, dim - 1))


def _changed_basis(q, g):
    """q in the basis y_a = sum_i g[a][i] x_i, its structure constants,
    form and matrices carried over and loaded through algebra_from_json."""
    n = q.dim
    # x_k = sum_c ginv[k][c] y_c
    ginv = [mat_inv(QMatrix.from_rows(g)).row(i) for i in range(n)]
    sc = []
    for a in range(n):
        for b in range(a + 1, n):
            acc = [Fraction(0)] * n  # [y_a, y_b] on the y_c
            for i, j, ent in q.sc:
                w = g[a][i] * g[b][j] - g[a][j] * g[b][i]
                if w:
                    for k, x in ent:
                        acc = [s + w * x * y for s, y in zip(acc, ginv[k])]
            sc.extend([a, b, c, rat_str(x)] for c, x in enumerate(acc) if x)
    form = [[sum(g[a][i] * q.form.at(i, j) * g[b][j] for i in range(n) for j in range(n))
             for b in range(n)] for a in range(n)]
    matrices = []
    for a in range(n):
        entries = {}
        for i, m in enumerate(q.matrices):
            for r, c, x in m:
                entries[r, c] = entries.get((r, c), 0) + g[a][i] * x
        matrices.append([[r, c, rat_str(x)] for (r, c), x in sorted(entries.items()) if x])
    return algebra_from_json(dict(
        algebra_to_json(q), sc=sc, form=[[rat_str(x) for x in row] for row in form],
        matrices=matrices))


@pytest.mark.parametrize("qname, p1, p2", METAMORPHIC_CASES + [("gl2", "t^2", "t^2+t")])
@given(st.data())
# each shrink step rebuilds the invariants and the pencil, so a failing
# example is reported as found rather than shrunk
@settings(max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_a_change_of_basis_of_q_changes_nothing_but_coordinates(qname, p1, p2, data):
    # the invariants of q in the basis y = g x are those of q with
    # x_k = sum_c g^-1[k][c] y_c, up to primitive; the index, Z's counts,
    # its commutation and its trdeg are the same
    q = builtin_algebra(qname)
    g = data.draw(invertible_matrices(q.dim))
    qg = _changed_basis(q, g)
    ginv = mat_inv(QMatrix.from_rows(g))
    to_y = {(k, 0): sum((MPoly.variable((c, 0), ginv.at(k, c)) for c in range(q.dim)),
                        MPoly.zero()) for k in range(q.dim)}
    want = [primitive(substitute_vars(F, to_y)) for F in basic_invariants(q)]
    assert basic_invariants(qg) == want
    assert _pencil_summary(qg, p1, p2) == _builtin_summary(qname, p1, p2)


@pytest.mark.parametrize("qname, p1, p2", METAMORPHIC_CASES)
@pytest.mark.parametrize("c", [Fraction(1), Fraction(-2, 3)])
def test_shifting_t_maps_Z_level_by_level(qname, p1, p2, c):
    # x t^a -> x (t + c)^a carries q[t]/(p) onto q[t]/(p(t + c)), so Z of
    # the shifted pencil is the image of Z, span by span.  At n = 3 the
    # other direction, (t - c)^a, gives another span
    q, p1, p2 = builtin_algebra(qname), parse_poly(p1), parse_poly(p2)
    r = UniPoly.make([c, 1])  # t + c

    def shifted(p):
        return sum(((r ** k).scale(p.coeff(k)) for k in range(p.degree + 1)), UniPoly.zero())

    Z = build_Z(Pencil(q, p1, p2))
    W = build_Z(Pencil(q, shifted(p1), shifted(p2)))
    for i, basis in Z.basis.items():
        # equal spans: dim A = dim B = dim(A + B)
        image = [substitute_levels(F, lambda a: r ** a) for F in basis]
        assert span_dim(W.basis[i]) == span_dim(image) == span_dim(W.basis[i] + image)


def test_trdeg(pen_t, sl2):
    Z = build_Z(pen_t)
    rep = trdeg_of_Z(Z)
    assert rep.rank == 3
    assert expected_trdeg(sl2, 2) == 3
    assert expected_trdeg(sl2, 3) == 5


def test_negative_control(pen_t):
    t1, _ = pen_t.end_tables
    nc = poisson_bracket(
        MPoly.variable((0, 0)), MPoly.variable((2, 1)), t1
    )
    assert not nc.is_zero()


def test_cubic_pencil(sl2):
    pen = Pencil(sl2, parse_poly("t^3"), parse_poly("t^3+t"))
    Z = build_Z(pen)
    assert Z.counts() == {0: 5}
    assert verify_Z_commutes(Z)
    assert trdeg_of_Z(Z).rank == 5


def test_sl3_pencil(sl3):
    pen = Pencil(sl3, parse_poly("t^2"), parse_poly("t^2+t"))
    Z = build_Z(pen)
    assert Z.counts() == {0: 3, 1: 4}
    assert trdeg_of_Z(Z).rank == 7


def test_sl4_cubic_pencil():
    # the exact check contracts each pair from its cheaper side under the
    # p1 end and the difference (7 s when it walked both ends)
    pen = Pencil(builtin_algebra("sl4"), parse_poly("t^3"), parse_poly("t^3+t"))
    Z = build_Z(pen)
    assert Z.counts() == Z.expected_counts() == {0: 5, 1: 7, 2: 9}
    assert verify_Z_commutes(Z)


def test_sl4_north_star_pencil():
    pen = Pencil(builtin_algebra("sl4"), parse_poly("t^2+1"), parse_poly("t^2+t+1"))
    Z = build_Z(pen)
    assert Z.counts() == Z.expected_counts() == {0: 3, 1: 4, 2: 5}
    assert verify_Z_commutes(Z)
    assert trdeg_of_Z(Z).rank == 12


def test_verify_Z_commutes_checks_both_ends(sl2, pen_1):
    # [x t, y t] = [x, y] t^2 vanishes mod t^2 and is -[x, y] mod t^2 + 1,
    # so e t and f t commute under the end t^2 and not under the other; the
    # polarized Casimir C(x_0) - C(x_1) is central mod t^2 + 1 and does not
    # commute with e t mod t^2.  Each family fails under one end alone, the
    # p1 end of one orientation and the p2 end of the other
    e1, f1, h = MPoly.variable((0, 1)), MPoly.variable((2, 1)), MPoly.variable((1, 0))
    C = casimir(sl2)
    central = polarize(C, (0, 0)) - polarize(C, (1, 1))
    t1, t2 = pen_1.end_tables
    assert poisson_bracket(e1, f1, t1).is_zero()
    assert poisson_bracket(e1, f1, t2) == -h
    assert all(poisson_bracket(central, MPoly.variable(v), t2).is_zero()
               for v in t2.var_list())
    assert not poisson_bracket(central, e1, t1).is_zero()
    for pen in (pen_1, Pencil(sl2, parse_poly("t^2+1"), parse_poly("t^2"))):
        Z = ZAlgebra(pen, [], 0, [], [])
        Z.basis = {0: [e1, e1 * e1], 1: [f1]}
        assert verify_Z_commutes(Z) is False  # fails under t^2 + 1 alone
        Z.basis = {0: [e1, e1 * e1], 1: [MPoly.const(3)]}
        assert verify_Z_commutes(Z) is True
        Z.basis = {0: [central], 1: [e1]}
        assert verify_Z_commutes(Z) is False  # fails under t^2 alone


def test_spanning_tables_are_the_first_end_and_the_difference(sl2):
    for p1, p2 in (("t^2", "t^2+1"), ("t^2+1", "t^2"), ("t^3", "t^3+t"), ("t^3+t", "t^3")):
        P = Pencil(sl2, parse_poly(p1), parse_poly(p2))
        t1, t2 = P.end_tables
        B, D = P.spanning_tables
        assert B is t1
        assert D == make_difference_bracket(sl2, P.p2, P.p1)
        for a in (Fraction(1), Fraction(0), Fraction(-7, 3)):
            # x * T1 + y * D is d times the member at a
            x, y = P.member_weights(a)
            d = a.denominator
            assert pencil_combination(B, D, Fraction(x, d), Fraction(y, d)) == \
                pencil_combination(t1, t2, a, 1 - a)


VARS2 = [(i, a) for a in range(2) for i in range(3)]


def mpolys2():
    mono = st.lists(
        st.tuples(st.sampled_from(VARS2), st.integers(1, 2)), min_size=0, max_size=3,
    ).map(lambda pairs: tuple(sorted(dict(pairs).items())))
    term = st.tuples(mono, st.fractions(min_value=-6, max_value=6, max_denominator=3))
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: sum((MPoly({m: c}) for m, c in ts if c), MPoly.zero())
    )


@given(st.booleans(), st.lists(mpolys2(), max_size=4), st.data())
@settings(max_examples=60, deadline=None)
def test_verify_Z_commutes_agrees_with_the_two_ends(sl2, reverse, polys, data):
    # both orientations of t^2 / t^2+1, so the p1 end is either
    p1, p2 = parse_poly("t^2"), parse_poly("t^2+1")
    P = Pencil(sl2, p2, p1) if reverse else Pencil(sl2, p1, p2)
    # members central under one end alone: C(x_1) under t^2, C(x_0) -
    # C(x_1) under t^2 + 1
    C1 = polarize(casimir(sl2), (1, 1))
    C01 = polarize(casimir(sl2), (0, 0)) - C1
    polys = polys + data.draw(st.lists(st.sampled_from([C1, C01]), max_size=2))
    Z = ZAlgebra(P, [], 0, [], [])
    Z.basis = {0: polys}
    want = all(psring.pairwise_commute(polys, T) for T in P.end_tables)
    assert verify_Z_commutes(Z) == want


def _trdeg_families(sl3):
    """(name, polys, variables, sampled rank) of the families the sampled
    trdeg is checked on against the exact oracle."""
    Z = build_Z(Pencil(sl3, parse_poly("t^3"), parse_poly("t^3+t")))
    zs = Z.all_basis()
    vs = Z.pencil.end_tables[0].var_list()
    yield "Z[sl3, t^3 / t^3+t]", zs, vs, 12
    # Z's basis plus the sum of two of its elements: one row too many, so
    # the witness is ranked exactly
    yield "Z[sl3, t^3 / t^3+t] + dependent", zs + [zs[0] + zs[-1]], vs, 12
    for qname, n, rank in (("sl2", 2, 2), ("sl2", 3, 3), ("sl3", 2, 4)):
        q = builtin_algebra(qname)
        gens = invariantlab.takiff_generators(basic_invariants(q), n)
        vs = make_quotient(q, UniPoly.monomial(n)).var_list()
        yield f"takiff[{qname}, n={n}]", gens, vs, rank
    Z = build_Z(Pencil(builtin_algebra("gl3"), parse_poly("t^2"), parse_poly("t^2+1")))
    yield "Z[gl3, t^2 / t^2+1]", Z.all_basis(), Z.pencil.end_tables[0].var_list(), 9


def test_trdeg_estimate_matches_the_exact_sampling_oracle(sl3, monkeypatch):
    # ranks taken mod p steer the sampling exactly as exact ranks did, and
    # a witness short of full rank is ranked by its RowSpace
    exact = []

    def counted_row_space(rows, width):
        exact.append(width)
        return row_space(rows, width)

    monkeypatch.setattr(pencilz, "row_space", counted_row_space)
    for name, polys, vs, want in _trdeg_families(sl3):
        def matrix(point):
            return reference_jacobian_at(polys, dict(zip(vs, point)), vs)

        exact.clear()
        for seed in range(12):
            rep = trdeg_estimate(polys, vs, seed=seed)
            got = (rep.rank, rep.witness, rep.bound, rep.rounds)
            assert got == reference_sampled_max_rank(matrix, len(vs), seed=seed), name
            assert rep.rank == want, name
        # full rank mod p at the witness needs no exact rank
        assert exact == ([len(vs)] * 12 if want < min(len(polys), len(vs)) else []), name


@functools.cache
def _gradient_case_Z(qname: str, f_list: str, p1: str, p2: str) -> ZAlgebra:
    """Z of the pencil p1 / p2 on qname, its f_list "basic", "degree 2"
    (invariants_degree), "C, C*C" (the first basic invariant and its
    square) or "1, C" (a constant and C)."""
    q = builtin_algebra(qname)
    fs = None
    if f_list == "degree 2":
        fs = invariants_degree(q, 2)
    elif f_list == "C, C*C":
        C = basic_invariants(q)[0]
        fs = [C, C * C]
    elif f_list == "1, C":
        fs = [MPoly.const(1), basic_invariants(q)[0]]
    return build_Z(Pencil(q, parse_poly(p1), parse_poly(p2)), f_list=fs)


def _rref(rows, width):
    reduced, d = row_space(rows, width).reduced()
    return [tuple(Fraction(x, d) for x in r) for r in reduced]


_GRADIENT_CASES = [
    ("sl2", "basic"), ("sl3", "basic"), ("gl2", "basic"), ("gl3", "basic"),
    ("sum:sl2,sl2", "degree 2"), ("takiff:sl2:2", "degree 2"), ("sl2", "C, C*C"),
    ("sl2", "1, C"),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_GRADIENT_CASES), st.integers(1, 4), st.sampled_from(["t", "1"]),
       st.sampled_from([2, 1000]), st.data())
def test_z_jacobian_from_gradients_matches_the_basis_jacobian(case, n, tail, bound, data):
    # C * J_pol, read off the gradients of the invariants, spans at every
    # point the rows cleared_jacobian gives for Z's basis, so the ranks
    # over Q and mod PRIME agree; small coordinates reach degenerate points
    assume(n > 1 or tail == "1")  # t / 2t is no pencil
    Z = _gradient_case_Z(*case, f"t^{n}", f"t^{n}+{tail}")
    vs = Z.pencil.end_tables[0].var_list()
    width = len(vs)
    point = tuple(data.draw(st.lists(st.integers(-bound, bound),
                                     min_size=width, max_size=width)))
    got = pencilz._z_jacobian(Z)(point)
    # row r of C is the combination sum_m C[r][m] * P_m, cleared alike
    combos = [reference_combine(pols, r) for pols, C in Z.spaces for r in C]
    assert got == psring.cleared_jacobian(combos, vs)(point)
    want = psring.cleared_jacobian(Z.all_basis(), vs)(point)
    assert len(got) == len(want)
    assert _rref(got, width) == _rref(want, width)
    assert row_space(got, width).dim == row_space(want, width).dim
    assert rank_mod_p(got, width) == rank_mod_p(want, width)


@pytest.mark.parametrize("qname, f_list, p1, p2, want", [
    ("sl3", "basic", "t^3", "t^3+t", 12),
    ("sl3", "basic", "t^2", "t^2+t", 7),
    ("sl4", "basic", "t^2+1", "t^2+t+1", 12),
    ("sl4", "basic", "t^3", "t^3+t", 21),
    ("gl3", "basic", "t^3", "t^3+1", 15),
    ("gl3", "basic", "t^2", "t^2+1", 9),
    ("sl2", "basic", "t^4", "t^4+t", 7),
    ("sl2", "C, C*C", "t^3", "t^3+t", 5),
    ("sl2", "C, C*C", "t^2", "t^2+t", 3),
    ("sl2", "1, C", "t^3", "t^3+t", 5),
    ("sum:sl2,sl2", "degree 2", "t^3", "t^3+t", 10),
    ("takiff:sl2:2", "degree 2", "t^3", "t^3+t", 10),
])
def test_trdeg_of_Z_reports_what_the_basis_jacobian_reports(qname, f_list, p1, p2, want):
    # trdeg_of_Z once ranked Z's basis through trdeg_estimate: the rank,
    # witness, bound and rounds are unchanged at every seed
    Z = _gradient_case_Z(qname, f_list, p1, p2)
    vs = Z.pencil.end_tables[0].var_list()
    for seed in range(12):
        rep = trdeg_of_Z(Z, seed=seed)
        assert rep == trdeg_estimate(Z.all_basis(), vs, seed=seed), seed
        assert rep.rank == want


def test_trdeg_of_Z_forms_no_basis_polynomial(monkeypatch, sl2, sl3):
    # trdeg_of_Z reads Z.spaces and the gradients of the invariants: no
    # basis polynomial of Z is formed and none is differentiated, also
    # where the witness falls short of full rank and is ranked exactly
    def unreachable(*args, **kwargs):
        raise AssertionError("trdeg_of_Z formed a basis polynomial")

    monkeypatch.setattr(pencilz, "combination_basis", unreachable)
    monkeypatch.setattr(pencilz, "cleared_jacobian", unreachable)
    Z = build_Z(Pencil(sl3, parse_poly("t^3"), parse_poly("t^3+t")))
    assert trdeg_of_Z(Z).rank == 12
    assert "basis" not in vars(Z)
    C = basic_invariants(sl2)[0]
    Z = build_Z(Pencil(sl2, parse_poly("t^2"), parse_poly("t^2+t")), f_list=[C, C * C])
    rep = trdeg_of_Z(Z)
    assert rep.rank == 3 < len(Z.pencil.end_tables[0].var_list())
    assert "basis" not in vars(Z)


def test_z_jacobian_reads_the_gradient_at_the_simplex_nodes_only(monkeypatch, sl2):
    # the s^beta coefficients the identity needs have total degree below
    # d = 2, so n = 16 levels read 16 gradients of the Casimir, at the
    # nodes sum_j s_j <= 1, where the grid {0, 1}^15 would read 32768
    Z = build_Z(Pencil(sl2, parse_poly("t^16"), parse_poly("t^16+t")))
    vs = Z.pencil.end_tables[0].var_list()
    assert trdeg_of_Z(Z) == trdeg_estimate(Z.all_basis(), vs)
    assert trdeg_of_Z(Z).rank == expected_trdeg(sl2, 16) == 31
    evaluated = []
    gradients_of = pencilz.gradient_numerators

    def counted(polys, vars_order):
        at = gradients_of(polys, vars_order)
        return lambda point: evaluated.append(point) or at(point)

    monkeypatch.setattr(pencilz, "gradient_numerators", counted)
    point = tuple(random.Random(16).randint(-50, 50) for _ in vs)
    got = pencilz._z_jacobian(Z)(point)
    assert len(evaluated) == 16
    combos = [reference_combine(pols, r) for pols, C in Z.spaces for r in C]
    assert got == psring.cleared_jacobian(combos, vs)(point)


def test_z_independent_of_second_modulus(sl2, pen_t, pen_1):
    pen_b = Pencil(sl2, parse_poly("t^2"), parse_poly("t^2+t+1"))
    Z1 = build_Z(pen_t)
    Z2 = build_Z(pen_1)
    Z3 = build_Z(pen_b)
    # each basis is canonical, so equal spans give equal bases
    assert Z1.basis[0] == Z2.basis[0] == Z3.basis[0]


# ---------------------------------------------------------------------------
# ladders


def test_tau_ladder_span_dims(sl2):
    C = casimir(sl2)
    # the span reaches d(n - 1) + 1 exactly when p(0) != 0
    for ptxt, want in (("t^2-1", 3), ("t^3-1", 5), ("t^3+t+1", 5)):
        p = parse_poly(ptxt)
        assert p.coeff(0) != 0
        lad = tau_ladder_span(C, p)
        assert len(lad) == want == C.total_degree() * (p.degree - 1) + 1
        # the rows are coordinates on the polarizations of C
        pols = [polarize(C, m) for m in weakly_increasing(2, p.degree - 1)]
        assert combination_basis(pols, lad) == reference_echelon_basis(reference_ladder(C, p, 1))
    p = parse_poly("t^2")
    assert p.coeff(0) == 0
    assert len(tau_ladder_span(C, p)) < C.total_degree() * (p.degree - 1) + 1


def test_tau_ladder_span_edge_cases(sl2):
    p = parse_poly("t^3+t+1")
    # zero spans nothing and a constant spans one line, as the polynomial
    # ladder says
    assert tau_ladder_span(MPoly.zero(), p) == ()
    assert span_dim(reference_ladder(MPoly.zero(), p, 1)) == 0
    assert tau_ladder_span(MPoly.const(Fraction(-3, 2)), p) == ([1],)
    assert span_dim(reference_ladder(MPoly.const(Fraction(-3, 2)), p, 1)) == 1
    # InputError where polarize refuses F: not homogeneous, or a level > 0
    x, y = MPoly.variable((0, 0)), MPoly.variable((1, 0))
    for F in (x * y + x, x * MPoly.variable((1, 1))):
        with pytest.raises(InputError):
            polarize(F, [0] * F.total_degree())
        with pytest.raises(InputError):
            tau_ladder_span(F, p)
    with pytest.raises(InputError):
        tau_ladder_span(casimir(sl2), UniPoly.make([1, 0, 2]))


@functools.cache
def _ladder_inputs() -> list:
    """The basic invariants of sl2, sl3, gl2 and gl3, a constant and 0."""
    out = [F for name in ("sl2", "sl3", "gl2", "gl3")
           for F in basic_invariants(builtin_algebra(name))]
    return out + [MPoly.const(Fraction(-3, 2)), MPoly.zero()]


@given(st.data(), st.integers(min_value=1, max_value=4), st.sampled_from([0, 1]),
       st.booleans())
@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_ladder_coordinates_match_the_polynomial_ladder(data, n, first_level, at_zero):
    # both ladders against the oracle's polynomial rungs, on a random monic
    # p with small rational coefficients, p(0) = 0 among them
    F = data.draw(st.sampled_from(_ladder_inputs()))
    low = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                             min_size=n, max_size=n))
    if at_zero:
        low[0] = 0
    p = UniPoly.make(low + [1])
    fam = reference_ladder(F, p, first_level)
    if F.is_zero():
        assert span_dim(fam) == 0 and tau_ladder_span(F, p) == ()
        return
    rows = _ladder_space(F, p, first_level).rows
    if first_level:
        assert tau_ladder_span(F, p) == rows
    pols = [polarize(F, m) for m in weakly_increasing(F.total_degree(), n - 1)]
    # equal spans: dim A = dim B = dim(A + B), A the polynomials of the rows
    got = combination_basis(pols, rows)
    assert len(rows) == span_dim(got) == span_dim(fam) == span_dim(got + fam)


def test_gzu_ladder_members_reduce(sl2):
    # the lowered rungs reduce below level n, and their span is the one the
    # lowered ladder's coordinates give
    C = casimir(sl2)
    p = parse_poly("t^2-1")
    fam = reference_ladder(C, p, 0)
    assert all(f.vars() <= {(i, a) for i in range(3) for a in range(2)}
               for f in fam if not f.is_zero())
    pols = [polarize(C, m) for m in weakly_increasing(2, 1)]
    assert combination_basis(pols, _ladder_space(C, p, 0).rows) == reference_echelon_basis(fam)


def test_check_sovp(sl2):
    chk = check_sovp(sl2, parse_poly("t^2-1"))
    assert chk.ok
    assert all(d["equal"] for d in chk.detail)
    with pytest.raises(InputError):
        check_sovp(sl2, parse_poly("t^2-t"))


def _agreeing(dims) -> list:
    return [{"invariant": i, "ladder_dim": d, "z_dim": d, "equal": True}
            for i, d in enumerate(dims)]


def test_check_ft_gzu(sl2):
    chk = check_ft_gzu(sl2, parse_poly("t^2-1"))
    assert chk.ok
    # check_sovp refuses p(0) = 0; the constant pencil does not need it
    assert check_ft_gzu(sl2, parse_poly("t^3")).detail == _agreeing([5])


# (algebra, modulus, ladder dimension per invariant), as the polynomial
# ladders gave them: every ladder spans its part of Z
LADDER_DETAILS = [
    ("sl3", "t^3-1", [5, 7]),
    ("sl3", "t^3+t+1", [5, 7]),
    ("gl2", "t^2+1", [2, 3]),
    ("gl3", "t^2-2", [2, 3, 4]),
    ("sl2", "t^4-1", [7]),
]


@pytest.mark.parametrize("name, ptxt, dims", LADDER_DETAILS)
def test_ladder_checks_keep_their_detail(name, ptxt, dims):
    q = builtin_algebra(name)
    assert check_sovp(q, parse_poly(ptxt)).detail == _agreeing(dims)
    assert check_ft_gzu(q, parse_poly(ptxt)).detail == _agreeing(dims)


@pytest.mark.parametrize("ptxt, want", [
    # equal dimensions, different spans
    ("t^3+t+1", [{"invariant": 0, "ladder_dim": 5, "z_dim": 5, "equal": False}]),
    # p(0) = 0: the raised ladder falls short
    ("t^3", [{"invariant": 0, "ladder_dim": 3, "z_dim": 5, "equal": False}]),
])
def test_raised_ladder_against_the_constant_pencil_disagrees(sl2, ptxt, want):
    # negative control: the raised ladder belongs to the t pencil, not to
    # Z(p, p + 1)
    p = parse_poly(ptxt)
    chk = _ladders_against_Z(Pencil(sl2, p, p + UniPoly.one()), 1)
    assert not chk.ok and chk.detail == want


def test_ladder_checks_form_no_polynomial(monkeypatch, sl2, sl3):
    # the ladders are compared with Z in polarization coordinates: no rung
    # is raised, reduced or substituted, and Z's basis is not read
    def unreachable(*args, **kwargs):
        raise AssertionError("a ladder check formed a polynomial")

    names = ("tau_apply", "psi_p", "substitute_vars", "combination_basis")
    patched = 0
    for module in (pencilz, psring, invariantlab):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
                patched += 1
    assert patched > len(names)
    assert check_sovp(sl3, parse_poly("t^3-1")).detail == _agreeing([5, 7])
    assert check_ft_gzu(sl3, parse_poly("t^3+t+1")).detail == _agreeing([5, 7])
    assert len(tau_ladder_span(casimir(sl2), parse_poly("t^3-1"))) == 5


# ---------------------------------------------------------------------------
# degree-two evaluation


def test_rho_gamma(sl2):
    # the oracle's evaluation of the t coordinate: x_i t^0 stays, x_i t^1
    # -> gamma_i, higher t degrees refused
    F = MPoly.variable((0, 0)) * MPoly.variable((2, 1))
    img = reference_rho_gamma(F, [1, 2, -1])
    assert img == MPoly.variable((0, 0)).scale(-1)
    with pytest.raises(InputError):
        reference_rho_gamma(MPoly.variable((0, 2)), [1, 2, 3])


@pytest.mark.parametrize("qname", ["sl2", "sl3", "gl2", "gl3", "sl4"])
def test_evaluated_polarizations_are_taylor_coefficients(qname):
    # rho_gamma(P_k) = D_gamma^k F / k!, P_k the polarization with k ones:
    # Taylor's formula on F(xi_0 + s gamma), which mf_image rests on
    q = builtin_algebra(qname)
    rng = random.Random(qname)
    for F in basic_invariants(q):
        d = F.total_degree()
        for _ in range(2):
            gamma = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(q.dim)]
            gdict = {(i, 0): c for i, c in enumerate(gamma)}
            g = F
            for k in range(d + 1):
                P_k = polarize(F, (0,) * (d - k) + (1,) * k)
                assert reference_rho_gamma(P_k, gamma) == g, (qname, k)
                g = directional_derivative(g, gdict).scale(Fraction(1, k + 1))


def test_mf_image_contained(sl2, pen_t, pen_1):
    for pen in (pen_t, pen_1):
        Z = build_Z(pen)
        assert mf_image(Z, [1, 1, 1])
        # an isotropic direction shortens the chain but stays contained
        assert mf_image(Z, [1, 2, -1])


def test_mf_image_degenerate_and_errors(sl2, sl3, pen_t):
    Z = build_Z(pen_t)
    # the zero direction leaves only F itself, evaluated at t = 0
    assert mf_image(Z, [0, 0, 0])
    with pytest.raises(InputError):
        mf_image(Z, [1, 2])
    pen3 = Pencil(sl2, parse_poly("t^3"), parse_poly("t^3+t"))
    with pytest.raises(InputError):
        mf_image(build_Z(pen3), [1, 1, 1])


def _without_row(Z: ZAlgebra, i: int, k: int) -> ZAlgebra:
    """Z with row k of the rows C of invariant i dropped."""
    spaces = list(Z.spaces)
    pols, rows = spaces[i]
    spaces[i] = (pols, rows[:k] + rows[k + 1:])
    return dataclasses.replace(Z, spaces=spaces)


def test_mf_image_fails_without_any_one_basis_element(pen_t):
    # negative control: the chain needs the whole evaluated center, so no
    # row of C can go
    Z = build_Z(pen_t)
    assert mf_image(Z, [1, 1, 1])
    for k in range(len(Z.spaces[0][1])):
        assert not mf_image(_without_row(Z, 0, k), [1, 1, 1])


def test_mf_image_holds_on_every_degree_two_z_case():
    for qa, p2txt in (("sl3", "t^2+t"), ("gl2", "t^2+1"), ("abelian:2", "t^2+t"),
                      ("sum:abelian:1,abelian:2", "t^2+t")):
        q = builtin_algebra(qa)
        Z = build_Z(Pencil(q, parse_poly("t^2"), parse_poly(p2txt)))
        assert mf_image(Z, [1] * q.dim), qa


def test_mf_image_forms_no_basis_polynomial(monkeypatch, sl3):
    # mf_image reads Z.spaces: no basis polynomial of Z is formed and no
    # polynomial is substituted
    def unreachable(*args, **kwargs):
        raise AssertionError("mf_image formed a basis polynomial")

    monkeypatch.setattr(pencilz, "combination_basis", unreachable)
    monkeypatch.setattr(psring, "substitute_vars", unreachable)
    Z = build_Z(Pencil(sl3, parse_poly("t^2"), parse_poly("t^2+t")))
    assert mf_image(Z, [1] * sl3.dim) and mf_image(Z, [0] * sl3.dim)
    assert not mf_image(_without_row(Z, 1, 0), [1] * sl3.dim)
    with pytest.raises(AssertionError, match="formed a basis polynomial"):
        Z.basis


@functools.cache
def _degree_two_Z(qname: str, p2txt: str) -> ZAlgebra:
    return build_Z(Pencil(builtin_algebra(qname), parse_poly("t^2"), parse_poly(p2txt)))


def _mf_image_by_the_oracle(Z: ZAlgebra, gamma) -> bool:
    """mf_image the long way: Z's basis polynomials evaluated by
    reference_rho_gamma, and the chain D_gamma^k F inside their span when
    adding it leaves reference_echelon_basis as it was."""
    def direction(v):
        return MPoly.const(gamma[v[0]]) if v[1] == 0 else MPoly.zero()

    for i, F in enumerate(Z.invariants):
        images = reference_echelon_basis([reference_rho_gamma(b, gamma) for b in Z.basis[i]])
        chain = [F]
        for _ in range(F.total_degree()):
            chain.append(reference_derivation(chain[-1], direction))
        if reference_echelon_basis(images + chain) != images:
            return False
    return True


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_mf_image_matches_the_oracle(data):
    # random directions, with 0 and the isotropic [1, 2, -1] always among
    # them, on Z and on Z with any one row of C dropped
    qname = data.draw(st.sampled_from(
        ["sl2", "sl3", "gl2", "gl3", "abelian:2", "sum:abelian:1,abelian:2"]))
    Z = _degree_two_Z(qname, data.draw(st.sampled_from(["t^2+t", "t^2+1"])))
    dim = Z.pencil.base.dim
    gammas = [[Fraction(0)] * dim, data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=dim, max_size=dim))]
    if dim == 3:
        gammas.append([Fraction(c) for c in (1, 2, -1)])
    variants = [Z] + [_without_row(Z, i, k) for i, (_, rows) in enumerate(Z.spaces)
                      for k in range(len(rows))]
    for W in variants:
        for gamma in gammas:
            assert mf_image(W, gamma) == _mf_image_by_the_oracle(W, gamma), (qname, gamma)


# ---------------------------------------------------------------------------
# the pencil-linear centre solve


VARS3 = [(i, a) for a in range(3) for i in range(3)]


def mpolys3():
    mono = st.lists(
        st.tuples(st.sampled_from(VARS3), st.integers(1, 2)), min_size=1, max_size=3,
    ).map(lambda pairs: tuple(sorted(dict(pairs).items())))
    term = st.tuples(mono, st.fractions(min_value=-6, max_value=6, max_denominator=3))
    return st.lists(term, min_size=1, max_size=4).map(
        lambda ts: sum((MPoly({m: c}) for m, c in ts if c), MPoly.zero())
    )


@given(st.fractions(min_value=-5, max_value=5, max_denominator=4),
       st.lists(mpolys3(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_member_images_are_linear_in_the_ends(sl2, a, polys):
    # {F, x_v} under a * T1 + (1 - a) * T2, as _pencil_rows reads it
    P = Pencil(sl2, parse_poly("t^3"), parse_poly("t^3+t"))
    t1, t2 = P.end_tables
    member = pencil_combination(t1, t2, a, 1 - a)
    for F in polys:
        for v in VARS3:
            x = MPoly.variable(v)
            want = poisson_bracket(F, x, t1).scale(a) + poisson_bracket(F, x, t2).scale(1 - a)
            assert poisson_bracket(F, x, member) == want


def _dense_combos(pols, T):
    """The annihilation kernel from the tall block matrix of one member,
    its images {pol, x_v} from the oracle's table walk."""
    images = [reference_images(F, T) for F in pols]
    blocks = []
    for v in T.var_list():
        col = [img.get(v, MPoly.zero()) for img in images]
        if all(F.is_zero() for F in col):
            continue
        rows = coeff_rows(col)
        blocks.extend([r[c] for r in rows] for c in range(len(rows[0])))
    return nullspace(QMatrix.from_rows(blocks))


def _polarization_spaces(P, f_list):
    return [
        [polarize(F, kv) for kv in weakly_increasing(F.total_degree(), P.n - 1)]
        for F in f_list
    ]


def test_streamed_kernel_matches_dense_block_matrix(sl3):
    # every member, split moduli included
    P = Pencil(sl3, parse_poly("t^3"), parse_poly("t^3+t"))
    spaces = _polarization_spaces(P, basic_invariants(sl3))
    rows = [_pencil_rows(pols, P) for pols in spaces]
    for a in _sample_sequence(12):
        T = pencil_combination(*P.end_tables, a, 1 - a)
        for pols, r in zip(spaces, rows):
            got = _annihilator_combos(r, P.member_weights(a), len(pols))
            assert got
            assert got == _dense_combos(pols, T)


@pytest.mark.parametrize("qname, p1, p2, split", [
    ("sl3", "t^3", "t^3+t", [1, 2, 5]),  # a = 1: the triple root of t^3
    ("gl3", "t^3", "t^3+1", [1]),
])
def test_split_member_kernel_matches_crt_generators(qname, p1, p2, split):
    # at a member whose modulus splits over Q, the annihilation kernel spans
    # the transported split-modulus generators of each source invariant
    q = builtin_algebra(qname)
    P = Pencil(q, parse_poly(p1), parse_poly(p2))
    f_list = basic_invariants(q)
    spaces = _polarization_spaces(P, f_list)
    solves = [(_pencil_rows(pols, P), pols) for pols in spaces]
    found = []
    for a in _sample_sequence(12):
        ptilde = P.p1.scale(a) + P.p2.scale(1 - a)
        if rational_roots(ptilde) is None:
            continue
        found.append(a)
        for F, (rows, pols) in zip(f_list, solves):
            kernel = [reference_combine(pols, vec)
                      for vec in _annihilator_combos(rows, P.member_weights(a), len(pols))]
            # equal spans: dim A = dim B = dim(A + B)
            crt = crt_generators([F], ptilde)
            assert span_dim(kernel) == span_dim(crt) == span_dim(kernel + crt)
    assert found == split


def test_member_kernel_at_fractional_a_matches_dense_block_matrix(sl2):
    # a = s / d enters the integer member rows as d * r1 + (d - s) * rD,
    # in either orientation of the pencil
    F = basic_invariants(sl2)[0]
    for p1, p2 in (("t^3", "t^3+t"), ("t^3+t", "t^3")):
        P = Pencil(sl2, parse_poly(p1), parse_poly(p2))
        pols = [polarize(F, kv) for kv in weakly_increasing(F.total_degree(), P.n - 1)]
        rows = _pencil_rows(pols, P)
        for a in (Fraction(1, 2), Fraction(-7, 3), Fraction(5, 4), Fraction(12, 5)):
            T = pencil_combination(*P.end_tables, a, 1 - a)
            got = _annihilator_combos(rows, P.member_weights(a), len(pols))
            assert got and got == _dense_combos(pols, T)


@pytest.mark.parametrize("qname, p1, p2", [
    ("sl3", "t^3", "t^3+t"),
    ("sl3", "t^3+t", "t^3"),
    ("sl4", "t^2+1", "t^2+t+1"),
])
def test_spanning_rows_keep_the_member_kernels_of_the_end_rows(qname, p1, p2):
    # rows over (T1, D) and rows over the two ends, where the member at
    # a = s / d is s * r1 + (d - s) * r2, give equal kernels at every sample
    P = Pencil(builtin_algebra(qname), parse_poly(p1), parse_poly(p2))
    f_list = basic_invariants(P.base)
    samples = _sample_sequence(max(F.total_degree() for F in f_list) * P.n + 3)
    targets = {(j, k) for j in P.base.module_generators for k in range(1, P.n)}
    for pols in _polarization_spaces(P, f_list):
        w = len(pols)
        ends = row_space(annihilation_rows(pols, P.end_tables, targets), 2 * w).rows
        spanning = _pencil_rows(pols, P)
        for a in samples:
            s, d = a.numerator, a.denominator
            want = row_space(([s * x + (d - s) * y for x, y in zip(r[:w], r[w:])]
                              for r in ends), w).kernel()
            assert _annihilator_combos(spanning, P.member_weights(a), w) == want


# algebras with characteristic invariants, then ones solved for their
# invariants of degrees 1 and 2; sum:sl2,sl2 needs two module generators
# that both bracket
SOLVED = ("takiff:sl2:2", "sum:sl2,abelian:1", "sum:sl2,sl2")
TARGETED = ["sl2", "sl3", "gl2", "gl3", "abelian:2", *SOLVED]


@functools.lru_cache(maxsize=None)
def _targeted_spaces(qname, p1, l):
    q = builtin_algebra(qname)
    if qname in SOLVED:
        f_list = invariants_degree(q, 1) + invariants_degree(q, 2)
    else:
        f_list = basic_invariants(q)
    P = Pencil(q, parse_poly(p1), parse_poly(f"{p1}+{l}"))
    return P, [(pols, _pencil_rows(pols, P)) for pols in _polarization_spaces(P, f_list)]


@given(st.sampled_from(TARGETED), st.sampled_from(["t^2", "t^3"]),
       st.sampled_from(["t", "1", "2t-3"]),
       st.fractions(min_value=-6, max_value=6, max_denominator=7))
@settings(max_examples=60, deadline=None)
def test_targeted_kernel_equals_the_all_variable_kernel(qname, p1, l, a):
    # the rows at q's module generators, levels 1 .. n-1, have the kernel
    # that the rows at every variable of the member a have
    P, spaces = _targeted_spaces(qname, p1, l)
    T = pencil_combination(*P.end_tables, a, 1 - a)
    for pols, rows in spaces:
        want = row_space(annihilation_rows(pols, [T]), len(pols)).kernel()
        assert _annihilator_combos(rows, P.member_weights(a), len(pols)) == want


def test_pencil_rows_reduce_only_the_distinct_rows(sl3, monkeypatch):
    # 24 + 222 annihilation rows over the two polarization spaces, at the
    # two bracketed variables x_0 t, x_0 t^2 (240 + 2040 at all 24), of
    # which 4 + 30 are distinct up to scaling: only those reach the RowSpace
    P = Pencil(sl3, parse_poly("t^3"), parse_poly("t^3+t"))
    spaces = _polarization_spaces(P, basic_invariants(sl3))
    # the ad-closure, once per algebra, is not part of the count
    assert sl3.module_generators == (0,)
    calls, bracketed = [], set()
    add, images = RowSpace.add, psring._int_images

    def counted(self, vec):
        calls.append(vec)
        return add(self, vec)

    def recorded(*args):
        out = images(*args)
        bracketed.update(out)
        return out

    monkeypatch.setattr(RowSpace, "add", counted)
    monkeypatch.setattr(psring, "_int_images", recorded)
    rows = [_pencil_rows(pols, P) for pols in spaces]
    assert len(calls) <= 34
    assert len(bracketed) <= 2 and len(P.end_tables[0].var_list()) == 24
    assert all(isinstance(x, int) for r in rows for row in r for x in row)

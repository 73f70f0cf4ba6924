"""Invariants, polarizations, central generators, quadratic family."""
import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from glab.exactla import BudgetError, InputError, QMatrix, det
from glab.liecore import (
    LieAlgebra,
    UniPoly,
    algebra_from_json,
    algebra_to_json,
    builtin_algebra,
    make_direct_power,
    make_quotient,
    crt_primary,
    parse_poly,
    rational_roots,
)
from glab import psring
from glab.psring import (
    MPoly,
    poisson_bracket,
    span_dim,
    substitute_vars,
)
from glab.invariantlab import (
    _berkowitz,
    _char_invariants,
    _generic_matrix,
    _raised_bracket_tensor,
    attach_poly,
    basic_invariants,
    binom_identity_check,
    casimir,
    centralizer_in_span,
    copies_to_quotient,
    crt_generators,
    example_split_family,
    f_bracket_j,
    ff_bracket_decomposition,
    gaudin_hamiltonians,
    graded_H_sum,
    h_span,
    invariants_degree,
    lemma_x_element,
    matrix_A,
    matrix_A_kd,
    phi_transport,
    polarize,
    polarize_t,
    predicted_centralizer_basis,
    quad_H,
    quad_X,
    quad_h,
    quad_h_bilinear,
    script_f,
    takiff_generators,
    univ_sum,
    weakly_increasing,
    xi_t,
    y_xi,
)
from oracle import (
    SL2_RESCALED,
    reference_char_poly,
    reference_polarize,
    reference_raised_bracket_tensor,
    reference_script_f,
)

E, H, F = (MPoly.variable((i, 0)) for i in range(3))


# ---------------------------------------------------------------------------
# invariants


def test_casimir_sl2(sl2):
    assert casimir(sl2) == (E * F).scale(4) + H * H


def test_invariants_degree_kernel(sl2, sl3):
    fam = invariants_degree(sl2, 2)
    assert len(fam) == 1
    assert span_dim([fam[0], casimir(sl2)]) == 1
    for F in basic_invariants(sl3):
        fam = invariants_degree(sl3, F.total_degree())
        assert len(fam) == 1
        assert span_dim([fam[0], F]) == 1
    assert invariants_degree(sl3, 1) == []


@pytest.mark.parametrize("name, degrees", [("sl2", (1, 2, 3, 4)), ("sl3", (1, 2, 3))])
def test_invariants_degree_agrees_with_sympy(name, degrees):
    """The kernel of F -> ({F, x_v})_v over QQ, solved in sympy from the
    structure constants, is spanned by invariants_degree."""
    pytest.importorskip("sympy")
    from sympy import QQ, Poly, symbols
    from sympy.polys.matrices import DomainMatrix

    q = builtin_algebra(name)
    xs = symbols(f"x0:{q.dim}")

    def poly(coeffs):
        return Poly.from_dict(coeffs, *xs, domain=QQ)

    def unit(w):
        return tuple(int(i == w) for i in range(q.dim))

    brackets = {
        (u, v): poly({unit(w): QQ(c.numerator, c.denominator) for w, c in q.bracket(u, v)})
        for u in range(q.dim) for v in range(q.dim)
    }
    for d in degrees:
        exps = sorted(e for e in itertools.product(range(d + 1), repeat=q.dim) if sum(e) == d)
        columns = []
        for e in exps:
            m = poly({e: QQ(1)})
            col = {}
            for v in range(q.dim):
                img = sum((m.diff(xs[u]) * brackets[(u, v)] for u in range(q.dim)), poly({}))
                for mono, c in img.terms():
                    col[(v, mono)] = c
            columns.append(col)
        rows = sorted({key for col in columns for key in col})
        M = DomainMatrix([[col.get(key, QQ(0)) for col in columns] for key in rows],
                         (len(rows), len(exps)), QQ)
        want = M.nullspace().rank() if rows else len(exps)
        got = invariants_degree(q, d)
        assert len(got) == want
        if not got:
            continue
        monos = [tuple(((i, 0), k) for i, k in enumerate(e) if k) for e in exps]
        assert all(set(F.terms) <= set(monos) for F in got)
        vecs = DomainMatrix([[QQ(F.coeff(m).numerator, F.coeff(m).denominator) for m in monos]
                             for F in got], (len(got), len(exps)), QQ)
        assert vecs.rank() == len(got)
        assert M.matmul(vecs.transpose()).is_zero_matrix


def test_invariants_refuse_a_reordered_basis_named_like_a_builtin(sl2):
    d = algebra_to_json(sl2)
    order = [1, 0, 2]  # (h, e, f): position k holds basis element order[k]
    pos = {old: new for new, old in enumerate(order)}
    d["basis"] = [d["basis"][k] for k in order]
    d["sc"] = [[pos[i], pos[j], pos[k], c] for i, j, k, c in d["sc"]]
    d["form"] = [[d["form"][r][c] for c in order] for r in order]
    q = algebra_from_json(d)
    assert q.name == "sl2" and q.labels == ("h", "e", "f")
    with pytest.raises(InputError, match="not central"):
        basic_invariants(q)
    assert basic_invariants(algebra_from_json(algebra_to_json(sl2))) == basic_invariants(sl2)


def test_abelian_invariants_come_from_the_structure_not_the_name():
    # no structure constants: every variable is central, whatever the name
    total = builtin_algebra("sum:abelian:1,abelian:2")
    d = algebra_to_json(builtin_algebra("abelian:2"))
    d["name"] = "flat"
    for q in (total, algebra_from_json(d)):
        fs = basic_invariants(q)
        assert fs == [MPoly.variable((i, 0)) for i in range(q.dim)]
        T = make_quotient(q, parse_poly("t^2"))
        assert all(poisson_bracket(F, MPoly.variable(v), T).is_zero()
                   for F in fs for v in T.var_list())


def test_basic_invariants_sl3(sl3):
    fs = basic_invariants(sl3)
    assert [f.total_degree() for f in fs] == [2, 3]
    assert len(fs[0].terms) == 6
    assert len(fs[1].terms) == 12
    T = make_quotient(sl3, parse_poly("t"))
    for f in fs:
        for i in range(sl3.dim):
            assert poisson_bracket(f, MPoly.variable((i, 0)), T).is_zero()


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl5", "gl2", "gl3", "gl4"])
def test_berkowitz_matches_the_permutation_expansion(name):
    q = builtin_algebra(name)
    X = _generic_matrix(q, int(name[2:]))
    assert _berkowitz(X) == reference_char_poly(X)


def _linear(coeffs):
    return MPoly.const(coeffs[0]) + MPoly.from_entries(
        ((v, 0), c) for v, c in enumerate(coeffs[1:]))


@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_berkowitz_matches_the_permutation_expansion_on_random_matrices(rows):
    # entries c + a*x0 + b*x1 + d*x2 with small integer coefficients
    A = [[_linear(e) for e in row] for row in rows]
    assert _berkowitz(A) == reference_char_poly(A)


def test_char_invariants_are_refused_over_the_budget(monkeypatch):
    # the side n = 4 of sl4's matrices gives 4! * 2^4 = 384, above the
    # 15^2 bracket pairs of the table their centrality is checked on
    sl4 = builtin_algebra("sl4")
    want = basic_invariants(sl4)
    _char_invariants.cache_clear()
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "384")
    assert basic_invariants(sl4) == want
    _char_invariants.cache_clear()
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "383")
    with pytest.raises(BudgetError, match="4! \\* 2\\^4"):
        basic_invariants(sl4)


def test_char_invariants_refuse_a_huge_matrix_side_before_any_factorial(sl2):
    d = algebra_to_json(sl2)
    d["matrices"][0].append([10 ** 9, 0, "1"])
    with pytest.raises(BudgetError, match=r"1000000001! \* 2\^1000000001"):
        basic_invariants(algebra_from_json(d))


def test_basic_invariants_abelian():
    ab = builtin_algebra("abelian:3")
    fs = basic_invariants(ab)
    assert fs == [MPoly.variable((i, 0)) for i in range(3)]


# ---------------------------------------------------------------------------
# polarization


def test_polarize_oracles(sl2):
    ef = E * F
    pol = polarize(ef, (0, 1))
    e0, e1 = MPoly.variable((0, 0)), MPoly.variable((0, 1))
    f0, f1 = MPoly.variable((2, 0)), MPoly.variable((2, 1))
    assert pol == e0 * f1 + e1 * f0
    ee = E * E
    assert polarize(ee, (1, 2)) == (e1 * MPoly.variable((0, 2))).scale(2)
    # sum over all shapes of one degree recovers nothing simpler, but the
    # degree-0 shape is the original polynomial
    assert polarize(ef, (0, 0)) == ef


def test_polarize_t_multiplicity_factor(sl2):
    ee = E * E
    assert polarize_t(ee, (1, 1)) == polarize(ee, (1, 1)).scale(2)
    assert polarize_t(ee, (1, 2)) == polarize(ee, (1, 2))


def test_polarize_validation(sl2):
    with pytest.raises(InputError):
        polarize(E * F, (0, 1, 2))
    with pytest.raises(InputError):
        polarize(MPoly.variable((0, 1)), (0,))
    # t degrees outside W: negative or not integral, never truncated
    C = casimir(sl2)
    for kvec in ((-1, 0), (0.7, 1.2), (Fraction(1, 2), 1), ("1", 0), (float("nan"), 0)):
        with pytest.raises(InputError, match="not a nonnegative integer"):
            polarize(C, kvec)
        with pytest.raises(InputError, match="not a nonnegative integer"):
            polarize_t(C, kvec)
    # integral values of another type are the same degrees
    assert polarize(C, (Fraction(0), 1.0)) == polarize(C, (0, 1))
    assert polarize_t(C, (Fraction(1), 1.0)) == polarize_t(C, (1, 1))


def _t0_monomials(dim, d):
    return st.lists(st.integers(0, dim - 1), min_size=d, max_size=d).map(
        lambda idx: tuple(sorted({(i, 0): idx.count(i) for i in idx}.items())))


@st.composite
def homogeneous_and_levels(draw):
    """(F, kvec): F homogeneous of degree d in t-degree-zero variables with
    rational coefficients, kvec d levels drawn from few values, so that
    levels repeat."""
    d = draw(st.integers(0, 4))
    terms = draw(st.dictionaries(_t0_monomials(4, d), st.fractions(
        min_value=-6, max_value=6, max_denominator=12), max_size=5))
    kvec = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
    return MPoly(terms), kvec


@given(homogeneous_and_levels())
@settings(max_examples=150, deadline=None)
def test_polarize_matches_the_fraction_reference(case):
    F, kvec = case
    assert polarize(F, kvec) == reference_polarize(F, kvec)


@pytest.mark.parametrize("qname", ["sl2", "sl3", "gl2"])
def test_polarize_invariants_matches_the_fraction_reference(qname):
    for F in basic_invariants(builtin_algebra(qname)):
        d = F.total_degree()
        for kvec in itertools.product(range(3), repeat=d):
            assert polarize(F, kvec) == reference_polarize(F, kvec)


@lru_cache(maxsize=None)
def _invariants(qname):
    return tuple(basic_invariants(builtin_algebra(qname)))


@st.composite
def nonzero_homogeneous(draw):
    """A nonzero F, homogeneous of degree d in t-degree-zero variables."""
    d = draw(st.integers(0, 4))
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool)
    return MPoly(draw(st.dictionaries(_t0_monomials(4, d), coeffs, min_size=1, max_size=5)))


@given(st.one_of(nonzero_homogeneous(),
                 st.sampled_from(["sl2", "sl3", "gl2", "gl3"]).flatmap(
                     lambda qname: st.sampled_from(_invariants(qname)))),
       st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_polarizations_of_a_nonzero_F_have_disjoint_supports(F, n):
    # what build_Z's independence of each polarization family rests on: a
    # polarized monomial gives back F's monomial without its levels and
    # kvec without its indices, and each coefficient is F's times a count
    pols = [polarize(F, kv) for kv in weakly_increasing(F.total_degree(), n - 1)]
    supports = [set(P.terms) for P in pols]
    assert all(supports)
    assert sum(map(len, supports)) == len(set().union(*supports))
    assert span_dim(pols) == len(pols)


def test_weakly_increasing_counts():
    assert weakly_increasing(2, 1) == [(0, 0), (0, 1), (1, 1)]
    assert len(weakly_increasing(3, 2)) == 10


def test_pol_space_and_graded_pieces(sl2):
    C = casimir(sl2)
    space = [polarize(C, kv) for kv in weakly_increasing(C.total_degree(), 1)]
    assert len(space) == 3
    total = MPoly.zero()
    for j in range(3):
        total = total + f_bracket_j(C, j, 2)
    # graded pieces tile the full polarization sum
    assert total == sum(space, MPoly.zero())


def test_attach_poly(sl2):
    C = casimir(sl2)
    r = parse_poly("1+t")
    A = attach_poly(C, r)
    # substituting x t -> x recovers C scaled by r(1)^deg
    folded = substitute_vars(
        A, {(i, 1): MPoly.variable((i, 0)) for i in range(3)}
    )
    assert folded == C.scale(4)
    # reduction mod t^2 keeps only degrees below 2
    assert attach_poly(C, r, parse_poly("t^2")) == A


# ---------------------------------------------------------------------------
# central generator families


def test_takiff_generators_sl2(sl2):
    fs = basic_invariants(sl2)
    gens = takiff_generators(fs, 2)
    assert len(gens) == 2
    T = make_quotient(sl2, parse_poly("t^2"))
    for g in gens:
        for v in T.var_list():
            assert poisson_bracket(g, MPoly.variable(v), T).is_zero()
    # F^[1] then F^[2], the graded polarization sums in order
    C = fs[0]
    assert gens == [f_bracket_j(C, 1, 2), f_bracket_j(C, 2, 2)]


def test_crt_generators_split_modulus(sl2):
    p = parse_poly("t^2-1")
    gens = crt_generators(basic_invariants(sl2), p)
    assert len(gens) == 2
    T = make_quotient(sl2, p)
    for g in gens:
        for v in T.var_list():
            assert poisson_bracket(g, MPoly.variable(v), T).is_zero()
    # the root -1 generator written out by hand
    e0, e1 = MPoly.variable((0, 0)), MPoly.variable((0, 1))
    h0, h1 = MPoly.variable((1, 0)), MPoly.variable((1, 1))
    f0, f1 = MPoly.variable((2, 0)), MPoly.variable((2, 1))
    expected = ((e0 - e1) * (f0 - f1)).scale(4) + (h0 - h1) * (h0 - h1)
    # one generator per root, in the order rational_roots lists the roots
    assert [r for r, _ in rational_roots(p)] == [-1, 1]
    assert gens[0] == expected.scale(Fraction(1, 4))


def test_crt_generators_repeated_root(sl2):
    p = UniPoly.from_roots([1, 1, -2])
    C = casimir(sl2)
    gens = crt_generators([C], p)
    assert len(gens) == 3
    T = make_quotient(sl2, p)
    for g in gens:
        for v in T.var_list():
            assert poisson_bracket(g, MPoly.variable(v), T).is_zero()
    # the double root -2 < 1 comes second: its two truncated generators,
    # transported, follow the idempotent image of C at -2
    (r0, m0), (r1, m1) = rational_roots(p)
    assert (r0, m0, r1, m1) == (-2, 1, 1, 2)
    comps = crt_primary(p, rational_roots(p))
    assert gens == [attach_poly(C, comps[0].r0, p)] + [
        phi_transport(G, p, comps[1]) for G in takiff_generators([C], 2)]


def test_phi_transport_inputs(sl2):
    p = UniPoly.from_roots([1, 1, -2])
    comps = crt_primary(p, ((Fraction(1), 2), (Fraction(-2), 1)))
    local = takiff_generators([casimir(sl2)], 2)
    moved = phi_transport(local[0], p, comps[0])
    T = make_quotient(sl2, p)
    for v in T.var_list():
        assert poisson_bracket(moved, MPoly.variable(v), T).is_zero()


# ---------------------------------------------------------------------------
# the quadratic family


def test_quad_H_symmetry(sl2):
    assert quad_H(sl2, 1, 2) == quad_H(sl2, 2, 1)
    assert quad_h(sl2, 0, 3, parse_poly("t^2-1")) == quad_h(
        sl2, 0, 1, parse_poly("t^2-1")
    )


def test_quad_h_bilinear_matches_monomials(sl2):
    p = parse_poly("t^3-t")
    f = parse_poly("t^2+1")
    g = parse_poly("t")
    expanded = (
        quad_h(sl2, 2, 1, p) + quad_h(sl2, 0, 1, p)
    )
    assert quad_h_bilinear(sl2, f, g, p) == expanded


def test_quad_X_symmetries(sl2):
    for a, b, c in itertools.product(range(3), repeat=3):
        X = quad_X(sl2, a, b, c)
        assert X == -quad_X(sl2, b, a, c)
        assert X == quad_X(sl2, b, c, a)
    assert quad_X(sl2, 1, 1, 2).is_zero()


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "gl2", "gl3", "takiff:sl2:2",
                                  "takiff:sl3:2", "sum:sl2,sl2", "sl2-rescaled"])
def test_raised_bracket_tensor_matches_the_reference_loop(name):
    # lowering by the form and raising the third slot cancel, so the
    # tensor is read off the brackets and two form inverses alone
    q = SL2_RESCALED if name == "sl2-rescaled" else builtin_algebra(name)
    assert repr(_raised_bracket_tensor(q)) == repr(reference_raised_bracket_tensor(q))


def test_y_xi_diagonal_vanishes(sl2):
    xi = [Fraction(1), Fraction(-2), Fraction(3)]
    for a in range(3):
        assert y_xi(sl2, xi, a, a).is_zero()


def test_bracket_of_quadratics_subset(sl2):
    T = make_quotient(sl2, parse_poly("t^6"))  # sl2[t] below level 6
    for a, b, c, d in ((0, 0, 1, 1), (1, 2, 0, 1), (2, 2, 2, 2)):
        lhs = poisson_bracket(quad_H(sl2, a, b), quad_H(sl2, c, d), T)
        rhs = (
            quad_X(sl2, b, d, a + c)
            + quad_X(sl2, b, c, a + d)
            + quad_X(sl2, a, d, b + c)
            + quad_X(sl2, a, c, b + d)
        )
        assert lhs == rhs


def test_bracket_against_linear_subset(sl2):
    T = make_quotient(sl2, parse_poly("t^6"))  # sl2[t] below level 6
    xi = [Fraction(1), Fraction(0), Fraction(0)]
    for a, b in ((0, 0), (1, 2), (2, 1)):
        lhs = poisson_bracket(quad_H(sl2, a, b), xi_t(xi), T)
        assert lhs == y_xi(sl2, xi, a + 1, b) + y_xi(sl2, xi, b + 1, a)


def test_graded_sums(sl2):
    assert graded_H_sum(sl2, 2) == quad_H(sl2, 1, 1)


def test_corrected_element_central(sl2):
    for ptxt in ("t^3", "t^4-t^2+2"):
        p = parse_poly(ptxt)
        x = lemma_x_element(sl2, p)
        T = make_quotient(sl2, p)
        for v in T.var_list():
            assert poisson_bracket(x, MPoly.variable(v), T).is_zero()
    with pytest.raises(InputError):
        lemma_x_element(sl2, parse_poly("t^2"))


def test_corrected_element_shift(sl2):
    p = parse_poly("t^3-1")
    x = lemma_x_element(sl2, p)
    shifted = x - quad_h(sl2, 1, 1, p).scale(Fraction(1, 2))
    T = make_quotient(sl2, p + UniPoly.t())
    for v in T.var_list():
        assert poisson_bracket(shifted, MPoly.variable(v), T).is_zero()


# ---------------------------------------------------------------------------
# commuting families from evaluation points


def test_gaudin_oracle(sl2):
    H3 = gaudin_hamiltonians(sl2, [1, 2, 5])
    T = make_direct_power(sl2, 3)
    for i in range(3):
        for j in range(i + 1, 3):
            assert poisson_bracket(H3[i], H3[j], T).is_zero()
    assert sum(H3, MPoly.zero()).is_zero()
    with pytest.raises(InputError):
        gaudin_hamiltonians(sl2, [1, 1])


def test_gaudin_bridges_to_quadratic(sl2):
    from glab.liecore import crt_idempotents

    roots = (Fraction(1), Fraction(2), Fraction(3))
    p = UniPoly.from_roots(roots)
    idems = crt_idempotents(p, roots)
    Hs = gaudin_hamiltonians(sl2, [1 / a for a in roots])
    acc = MPoly.zero()
    for k, a in enumerate(roots):
        acc = acc + copies_to_quotient(Hs[k], p, roots).scale(-2 * a)
        acc = acc + quad_h_bilinear(sl2, idems[k], idems[k], p).scale(a * a)
    assert acc == quad_h(sl2, 1, 1, p)


def test_copies_to_quotient_substitution(sl2):
    roots = (Fraction(0), Fraction(1))
    p = UniPoly.from_roots(roots)
    F = MPoly.variable((0, 0)) * MPoly.variable((2, 1))
    img = copies_to_quotient(F, p, roots)
    # copy 0 -> 1 - t, copy 1 -> t
    e0, e1 = MPoly.variable((0, 0)), MPoly.variable((0, 1))
    f1 = MPoly.variable((2, 1))
    assert img == (e0 - e1) * f1


# ---------------------------------------------------------------------------
# centralizer of the quadratic element


def test_centralizer_dims(sl2):
    for n in (2, 3):
        for ptxt in (f"t^{n}", f"t^{n}-1"):
            p = parse_poly(ptxt)
            T = make_quotient(sl2, p)
            span = [s for _, s in h_span(sl2, p)]
            combos = centralizer_in_span(quad_h(sl2, 1, 1, p), span, T)
            assert len(combos) == 2 * n - 1


def test_centralizer_in_span_forms_the_target_images_once(sl2, monkeypatch):
    p = parse_poly("t^3")
    T = make_quotient(sl2, p)
    span = [s for _, s in h_span(sl2, p)]
    images, calls = psring._int_images, []

    def counted(*args):
        calls.append(args)
        return images(*args)

    monkeypatch.setattr(psring, "_int_images", counted)
    assert len(centralizer_in_span(quad_h(sl2, 1, 1, p), span, T)) == 5
    assert len(span) == 6 and len(calls) == 1


def test_predicted_basis_power_modulus(sl2):
    p = parse_poly("t^3")
    T = make_quotient(sl2, p)
    basis = predicted_centralizer_basis(sl2, p)
    assert len(basis) == 5
    assert span_dim(basis) == 5
    h = quad_h(sl2, 1, 1, p)
    for g in basis:
        assert poisson_bracket(h, g, T).is_zero()


def test_predicted_basis_other_modulus_spans_but_does_not_commute(sl2):
    p = parse_poly("t^3-1")
    T = make_quotient(sl2, p)
    basis = predicted_centralizer_basis(sl2, p)
    assert span_dim(basis) == 5
    h = quad_h(sl2, 1, 1, p)
    assert any(
        not poisson_bracket(h, g, T).is_zero() for g in basis
    )


# ---------------------------------------------------------------------------
# slot decompositions


def test_script_f_validation(sl2):
    C = casimir(sl2)
    degenerate = LieAlgebra("ab2", ("a", "b"), (), QMatrix.from_rows([[1, 0], [0, 0]]))
    formless = LieAlgebra("ab1", ("a",), ())
    # the fraction reference refuses the same inputs with the same errors
    for slot_f in (script_f, reference_script_f):
        with pytest.raises(InputError, match="slot sizes must total deg F \\+ 1"):
            slot_f(sl2, C, (1, 1), 0, 1)
        with pytest.raises(InputError, match="slot indices must be distinct and in range"):
            slot_f(sl2, C, (1, 1, 1), 0, 0)
        with pytest.raises(InputError, match="slot indices must be distinct and in range"):
            slot_f(sl2, C, (1, 1, 1), 0, 3)
        with pytest.raises(InputError, match="slot sizes must be nonnegative"):
            slot_f(sl2, C, (4, -1), 0, 1)
        # refused, never truncated: (1.7, 1, 1) is not (1, 1, 1)
        for alpha in ((1.7, 1, 1), (Fraction(3, 2), 1, 1), ("1", 1, 1), (float("nan"), 1, 2)):
            with pytest.raises(InputError, match="slot sizes must be integers"):
                slot_f(sl2, C, alpha, 0, 1)
        assert slot_f(sl2, C, (1.0, Fraction(1), 1), 0, 1) == slot_f(sl2, C, (1, 1, 1), 0, 1)
        assert slot_f(sl2, C, (0, 2, 1), 0, 1).is_zero()
        with pytest.raises(InputError, match="pairing matrix is singular"):
            slot_f(degenerate, MPoly.variable((0, 0)), (1, 1), 0, 1)
        with pytest.raises(InputError, match="ab1 carries no bilinear form"):
            slot_f(formless, MPoly.variable((0, 0)), (1, 1), 0, 1)


# every slot shape the forms suite enumerates for the sl2 Casimir: lengths
# 2 to 4, slot sizes up to 3, total 3
FORMS_SHAPES = [
    alpha
    for n in (2, 3, 4)
    for alpha in itertools.product(range(4), repeat=n)
    if sum(alpha) == 3
]


def test_script_f_matches_the_reference_on_every_forms_shape(sl2):
    C = casimir(sl2)
    for alpha in FORMS_SHAPES:
        for i, j in itertools.permutations(range(len(alpha)), 2):
            assert script_f(sl2, C, alpha, i, j) == reference_script_f(sl2, C, alpha, i, j)


SLOT_ALGEBRAS = ["sl2", "sl3", "gl2", "takiff:sl2:2", "sum:sl2,sl2", "sl2-rescaled"]
# every slot shape of 2 to 4 slots and total 2 to 4, and every ordered
# pair of distinct slots; sl3 (dimension 8) keeps to totals up to 3
SLOT_CASES = [
    (alpha, i, j)
    for n in (2, 3, 4)
    for alpha in itertools.product(range(5), repeat=n)
    if 2 <= sum(alpha) <= 4
    for i in range(n)
    for j in range(n)
    if i != j
]


@given(st.sampled_from(SLOT_ALGEBRAS), st.data())
@settings(max_examples=60, deadline=None)
def test_script_f_matches_the_fraction_reference(name, data):
    q = SL2_RESCALED if name == "sl2-rescaled" else builtin_algebra(name)
    cases = [c for c in SLOT_CASES if q.dim < 8 or sum(c[0]) <= 3]
    alpha, i, j = data.draw(st.sampled_from(cases))
    d = sum(alpha) - 1
    # a rational polynomial of degree d, not invariant in general, on
    # levels 0 and 1, which script_f strips
    var = st.tuples(st.integers(0, q.dim - 1), st.integers(0, 1))
    factors = st.lists(var, max_size=d)
    coef = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    terms = {}
    for idx, c in data.draw(st.lists(st.tuples(factors, coef), max_size=4)):
        terms[tuple(sorted(idx))] = c
    top = data.draw(st.lists(var, min_size=d, max_size=d))
    terms[tuple(sorted(top))] = data.draw(coef)
    F = MPoly.from_factors(terms.items())
    assert F.total_degree() == d
    assert script_f(q, F, alpha, i, j) == reference_script_f(q, F, alpha, i, j)


def test_script_f_antisymmetry(sl2):
    C = casimir(sl2)
    for alpha in ((1, 1, 1), (0, 2, 1)):
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert script_f(sl2, C, alpha, i, j) == -script_f(
                        sl2, C, alpha, j, i
                    )


def test_univ_sum_vanishes_sample(sl2):
    C = casimir(sl2)
    for alpha in ((1, 2), (3, 0), (1, 1, 1), (2, 0, 1)):
        for i in range(len(alpha)):
            assert univ_sum(sl2, C, alpha, i).is_zero()


def test_ff_bracket_decomposition(sl2):
    C = casimir(sl2)
    dec = ff_bracket_decomposition(sl2, C, (0, 1))
    assert dec.matches
    dec2 = ff_bracket_decomposition(sl2, C, (1, 2))
    assert dec2.matches
    assert len(dec2.pieces) >= 2
    # t degrees are refused, never truncated: (0.5, 1.9) is not (0, 1)
    for kvec in ((0.5, 1.9), (Fraction(1, 2), 1), ("0", 1), (-1, 1)):
        with pytest.raises(InputError, match="not nonnegative integers"):
            ff_bracket_decomposition(sl2, C, kvec)
    assert ff_bracket_decomposition(sl2, C, (0.0, Fraction(1))) == dec


def test_balanced_slot_line(sl2):
    C = casimir(sl2)
    polys = [script_f(sl2, C, (1, 1, 1), 0, j) for j in (1, 2)]
    polys = [f for f in polys if not f.is_zero()]
    assert polys and span_dim(polys) == 1


# ---------------------------------------------------------------------------
# combinatorial matrices


def test_matrix_A_unimodular():
    for j in (4, 7, 10):
        assert det(matrix_A(j)) == 1
    assert matrix_A(4).rows == 3


def test_matrix_A_kd_unimodular():
    for k, d in ((1, 1), (2, 3), (4, 2)):
        assert det(matrix_A_kd(k, d)) == 1


def test_binom_identity():
    assert all(
        binom_identity_check(u, b) for u in range(2, 12) for b in range(1, u)
    )


# ---------------------------------------------------------------------------
# the split cubic family


def test_split_family_identities(sl2):
    C = casimir(sl2)
    res = example_split_family(C, Fraction(1))
    assert set(res) == {"zero_root", "root_2", "root_3"}
    for lhs, rhs in res.values():
        assert lhs == rhs
    res2 = example_split_family(C, Fraction(9, 4))
    for lhs, rhs in res2.values():
        assert lhs == rhs
    with pytest.raises(InputError):
        example_split_family(C, Fraction(2))

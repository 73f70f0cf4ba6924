"""Sparse polynomials on current-algebra variables and Poisson brackets."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glab.exactla import PRIME, InputError, QMatrix, kernel, rank, rank_mod_p, row_space
from glab.liecore import (
    UniPoly,
    builtin_algebra,
    make_difference_bracket,
    make_direct_power,
    make_quotient,
    parse_poly,
    pencil_combination,
)
from glab.psring import (
    FIELD_MAX,
    BudgetError,
    MPoly,
    annihilation_rows,
    apply_derivation,
    cleared_jacobian,
    coeff_rows,
    combination_basis,
    directional_derivative,
    jacobian_rank_at,
    mono_sort_key,
    pairwise_commute,
    poisson_bracket,
    poisson_brackets,
    psi_p,
    span_dim,
    substitute_levels,
    substitute_vars,
    tau_apply,
    term_budget,
)

from glab.invariantlab import casimir, centralizer_in_span

from glab import psring

from oracle import (
    power,
    reference_add,
    reference_annihilation_rows,
    reference_bracket,
    reference_combination_basis,
    reference_derivation,
    reference_diff,
    reference_echelon_basis,
    reference_images,
    reference_jacobian_at,
    reference_monomials,
    reference_mul,
    reference_nullspace,
    reference_psi,
    reference_repr,
    reference_scale,
    reference_substitute,
)

VARS = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]

# sl3[t] below t^9 has 72 variables, so the kernel's packed keys hold more
# than 64 one-byte fields and span several machine words
WIDE_TABLE = make_quotient(builtin_algebra("sl3"), UniPoly.monomial(9))
WIDE_VARS = WIDE_TABLE.var_list()
FAMILIES = [VARS, WIDE_VARS]


def mpolys():
    mono = st.lists(
        st.tuples(st.sampled_from(VARS), st.integers(1, 2)),
        min_size=0, max_size=3,
    ).map(lambda pairs: tuple(sorted(dict(pairs).items())))
    term = st.tuples(mono, st.fractions(min_value=-6, max_value=6, max_denominator=3))
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: sum((MPoly({m: c}) for m, c in ts if c), MPoly.zero())
    )


def test_mpoly_basics():
    x = MPoly.variable((0, 0))
    y = (MPoly.variable((1, 1)) * MPoly.variable((1, 1))).scale(3)
    assert x.total_degree() == 1
    assert y.total_degree() == 2
    assert (x + x).coeff((((0, 0), 1),)) == 2
    assert (x - x).is_zero()
    assert x.scale(0).is_zero()
    assert x * x == MPoly({(((0, 0), 2),): Fraction(1)})
    # looking up a variable no polynomial holds gives 0 and takes no slot
    slots = len(psring._VARS)
    assert x.coeff((((0, 0), 1), ((10 ** 6, 0), 1))) == 0
    assert len(psring._VARS) == slots


@given(mpolys(), mpolys(), mpolys())
@settings(max_examples=50, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


@given(mpolys(), mpolys())
@settings(max_examples=50, deadline=None)
def test_diff_leibniz(a, b):
    v = (0, 0)
    lhs = (a * b).diff(v)
    rhs = a.diff(v) * b + a * b.diff(v)
    assert lhs == rhs


def test_substitutions():
    x0 = MPoly.variable((0, 0))
    x1 = MPoly.variable((0, 1))
    F = x0 * x1
    # x_0 stays, x_0 t -> x_0 t + x_0 under t -> t + 1
    G = substitute_levels(F, lambda a: power(parse_poly("t+1"), a))
    assert G == x0 * x1 + x0 * x0
    # killing t entirely
    H = substitute_vars(F, {(0, 1): MPoly.const(2)})
    assert H == x0.scale(2)


def test_psi_reduces_degrees():
    F = MPoly.variable((0, 2)) * MPoly.variable((1, 1))
    p = parse_poly("t^2-1")
    # t^2 == 1 mod p, so (0,2) -> (0,0)
    assert psi_p(F, p) == MPoly.variable((0, 0)) * MPoly.variable((1, 1))
    assert psi_p(F, parse_poly("t^3")) == F


def test_tau_and_shift():
    x0 = MPoly.variable((0, 0))
    x1 = MPoly.variable((0, 1))
    # raising: x t^a -> a x t^(a+1), factor by factor
    assert tau_apply(x0).is_zero()
    assert tau_apply(x1) == MPoly.variable((0, 2))
    F = x1 * x1
    assert tau_apply(F) == (MPoly.variable((0, 2)) * x1).scale(2)
    # the shift down is the level map t^a -> t^(a - 1)
    def shift_down(G):
        return substitute_levels(G, lambda a: UniPoly.monomial(a - 1))

    assert shift_down(x1) == x0
    # tau then shift on a pure level-one factor is the identity
    assert shift_down(tau_apply(x1)) == x1


def test_apply_derivation_is_leibniz():
    x0 = MPoly.variable((0, 0))
    x1 = MPoly.variable((1, 0))
    image = {(0, 0): x1, (1, 0): MPoly.zero()}.__getitem__
    F = x0 * x0 * x1
    assert apply_derivation(F, image) == x1 * x1 * x0.scale(2)


def test_directional_derivative():
    x0 = MPoly.variable((0, 0))
    x1 = MPoly.variable((1, 0))
    F = x0 * x0 + x0 * x1
    D = directional_derivative(F, {(0, 0): Fraction(2), (1, 0): Fraction(-1)})
    assert D == x0.scale(4) + x1.scale(2) - x0


# ---------------------------------------------------------------------------
# Poisson brackets


def test_bracket_oracle_sl2():
    sl2 = builtin_algebra("sl2")
    T = make_quotient(sl2, parse_poly("t"))
    e = MPoly.variable((0, 0))
    h = MPoly.variable((1, 0))
    f = MPoly.variable((2, 0))
    assert poisson_bracket(e, f, T) == h
    assert poisson_bracket(h, e, T) == e.scale(2)
    casimir = (e * f).scale(4) + h * h
    for v in (e, h, f):
        assert poisson_bracket(casimir, v, T).is_zero()
    assert poisson_bracket(casimir, casimir * casimir, T).is_zero()


@given(mpolys(), mpolys())
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetry(a, b):
    sl2 = builtin_algebra("sl2")
    T = make_quotient(sl2, parse_poly("t^2"))
    assert poisson_bracket(a, b, T) == -poisson_bracket(b, a, T)


@given(mpolys(), mpolys(), mpolys())
@settings(max_examples=30, deadline=None)
def test_bracket_leibniz(a, b, c):
    sl2 = builtin_algebra("sl2")
    T = make_quotient(sl2, parse_poly("t^2"))
    lhs = poisson_bracket(a, b * c, T)
    rhs = poisson_bracket(a, b, T) * c + b * poisson_bracket(a, c, T)
    assert lhs == rhs


CURRENT_DEGREE = 3  # t degrees drawn for the current algebra q[t]


def _tables():
    sl2, sl3 = builtin_algebra("sl2"), builtin_algebra("sl3")
    p1, p2 = parse_poly("t^3"), parse_poly("t^3+t")
    a = Fraction(7919, 1009)
    return {
        "quotient": make_quotient(sl2, parse_poly("t^3-t+1")),
        "pencil": pencil_combination(make_quotient(sl2, p1), make_quotient(sl2, p2),
                                     Fraction(5, 2), Fraction(-3, 2)),
        "member": pencil_combination(make_quotient(sl2, p1), make_quotient(sl2, p2),
                                     a, 1 - a),
        "difference": make_difference_bracket(sl2, p1, p2),
        "power": make_direct_power(sl3, 2),
        # sl3[t] below level 2 * CURRENT_DEGREE + 1, above every t degree a
        # bracket of polynomials drawn at levels <= CURRENT_DEGREE reaches
        "current": make_quotient(sl3, UniPoly.monomial(2 * CURRENT_DEGREE + 1)),
    }


TABLES = _tables()


def table_mpolys(var_list):
    mono = st.lists(
        st.tuples(st.sampled_from(var_list), st.integers(1, 2)),
        min_size=0, max_size=3,
    ).map(lambda pairs: tuple(sorted(dict(pairs).items())))
    term = st.tuples(mono, st.fractions(min_value=-6, max_value=6, max_denominator=12))
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: sum((MPoly({m: c}) for m, c in ts if c), MPoly.zero())
    )


@given(st.sampled_from(sorted(TABLES)), st.data())
@settings(max_examples=180, deadline=None)
def test_indexed_bracket_matches_table_walk(kind, data):
    T = TABLES[kind]
    var_list = T.var_list()
    if kind == "current":
        var_list = [(i, a) for i, a in var_list if a <= CURRENT_DEGREE]
    F = data.draw(table_mpolys(var_list))
    G = data.draw(table_mpolys(var_list))
    assert poisson_bracket(F, G, T) == reference_bracket(F, G, T)
    for v in T.var_list():
        x = MPoly.variable(v)
        assert poisson_bracket(F, x, T) == reference_bracket(F, x, T)


@given(st.sampled_from(sorted(TABLES)), st.data())
@settings(max_examples=60, deadline=None)
def test_family_brackets_match_the_oracle(kind, data):
    # each row is the oracle's row and each entry the one-pair bracket, for
    # empty families, zero, constants and an F that is also among the Gs
    T = TABLES[kind]
    var_list = T.var_list()
    if kind == "current":
        var_list = [(i, a) for i, a in var_list if a <= CURRENT_DEGREE]
    polys = st.lists(table_mpolys(var_list), max_size=3)
    Fs, Gs = data.draw(polys), data.draw(polys)
    c = data.draw(st.fractions(min_value=-6, max_value=6, max_denominator=12))
    edges = [MPoly.zero(), MPoly.const(c)]
    cases = [(Fs, Gs), ([], Gs), (Fs, []), (Fs + edges, Gs + edges + Fs)]
    for fs, gs in cases:
        rows = list(poisson_brackets(iter(fs), gs, T))
        assert rows == [[reference_bracket(F, G, T) for G in gs] for F in fs]
        assert all(B == poisson_bracket(F, G, T)
                   for F, row in zip(fs, rows) for G, B in zip(gs, row))


@given(st.sampled_from(sorted(TABLES)), st.data())
@settings(max_examples=80, deadline=None)
def test_pairwise_commute_matches_table_walk(kind, data):
    T = TABLES[kind]
    var_list = T.var_list()
    if kind == "current":
        var_list = [(i, a) for i, a in var_list if a <= CURRENT_DEGREE]
    polys = data.draw(st.lists(table_mpolys(var_list), max_size=3))
    if polys and data.draw(st.booleans()):  # {F, F^2 + c} = 0
        polys = [polys[0], polys[0] * polys[0] + MPoly.const(2)]
    want = all(reference_bracket(F, G, T).is_zero()
               for i, F in enumerate(polys) for G in polys[i + 1:])
    assert pairwise_commute(polys, T) == want


def _commute_by_reference(polys, tables):
    return all(reference_bracket(F, G, T).is_zero()
               for T in tables for i, F in enumerate(polys) for G in polys[i + 1:])


def _central_members(T):
    """Members that bracket to zero with everything under T: constants, and
    under the direct power the Casimir of each copy."""
    out = [MPoly.zero(), MPoly.const(Fraction(-3, 2))]
    if T is TABLES["power"]:
        C = casimir(T.base)
        out += [substitute_levels(C, lambda a, k=k: UniPoly.monomial(k)) for k in range(T.n)]
    return out


@given(st.sampled_from(sorted(TABLES)), st.data())
@settings(max_examples=80, deadline=None)
def test_pairwise_commute_from_the_cheaper_side_matches_the_reference(kind, data):
    # central members, which no pair is contracted against, and a pair that
    # does not commute placed late, in both orders of the family
    T = TABLES[kind]
    var_list = T.var_list()
    if kind == "current":
        var_list = [(i, a) for i, a in var_list if a <= CURRENT_DEGREE]
    polys = data.draw(st.lists(table_mpolys(var_list), max_size=3))
    central = _central_members(T)
    polys += data.draw(st.lists(st.sampled_from(central), max_size=2))
    if data.draw(st.booleans()):
        vs = T.var_list()
        u, (v, _) = data.draw(st.sampled_from(
            [(vs[u], nb[0]) for u, nb in T.scaled_neighbours[1].items() if vs[u] in var_list
             and vs[nb[0][0]] in var_list]))
        polys += [MPoly.variable(u), MPoly.variable(vs[v])]
    polys = data.draw(st.permutations(polys)) if data.draw(st.booleans()) else polys
    want = _commute_by_reference(polys, [T])
    assert pairwise_commute(polys, T) == pairwise_commute(polys[::-1], T) == want
    if polys:
        F = polys[0] * polys[-1]  # any polynomial commutes with the central ones
        assert pairwise_commute([F, *central], T)


@given(st.sampled_from(sorted(TABLES)), st.data())
@settings(max_examples=60, deadline=None)
def test_annihilation_rows_answer_centrality(kind, data):
    # a family yields a row exactly when some {F, x_v} is nonzero; central
    # members alone yield none
    T = TABLES[kind]
    var_list = T.var_list()
    if kind == "current":
        var_list = [(i, a) for i, a in var_list if a <= CURRENT_DEGREE]
    polys = data.draw(st.lists(table_mpolys(var_list), max_size=2))
    polys += data.draw(st.lists(st.sampled_from(_central_members(T)), max_size=2))
    images = []
    for F in polys:
        brackets = {v: reference_bracket(F, MPoly.variable(v), T) for v in T.var_list()}
        want = {v: b for v, b in brackets.items() if not b.is_zero()}
        assert reference_images(F, T) == want
        images.append(want)
    assert any(annihilation_rows(polys, [T])) == any(images)


@given(st.lists(st.sampled_from(sorted(set(TABLES) - {"current", "power"})),
                min_size=2, max_size=2, unique=True),
       st.data())
@settings(max_examples=30, deadline=None)
def test_pairwise_commute_under_several_tables_needs_every_one(kinds, data):
    tables = [TABLES[k] for k in kinds]
    polys = data.draw(st.lists(table_mpolys(tables[0].var_list()), max_size=3))
    want = _commute_by_reference(polys, tables)
    assert pairwise_commute(polys, *tables) == want
    assert want == all(pairwise_commute(polys, T) for T in tables)


def test_pairwise_commute_refuses_an_over_budget_pair_before_contracting(monkeypatch):
    # {e, f} = h is the first pair and does not commute, yet the later pair
    # of powers of one linear form, which would commute, is over the budget:
    # it is refused before e and f are contracted
    e, f = MPoly.variable((0, 0)), MPoly.variable((2, 0))
    L = e + f + MPoly.variable((1, 0))
    T = make_quotient(builtin_algebra("sl2"), parse_poly("t"))
    polys = [e, f, power(L, 6), power(L, 5)]
    assert not pairwise_commute(polys, T)
    assert pairwise_commute(polys[2:], T)

    def unreachable(*args):
        raise AssertionError("contracted before the budget check")

    monkeypatch.setenv("GLAB_BUDGET_TERMS", "100")
    monkeypatch.setattr(psring, "_contract", unreachable)
    with pytest.raises(BudgetError, match="terms exceeds budget 100"):
        pairwise_commute(polys, T)
    # {e^200, f^100} would take a product of degree 299, past the packed
    # field maximum: it is refused before contracting too
    with pytest.raises(BudgetError, match="product of degree 299 exceeds"):
        pairwise_commute([e, f, power(e, 200), power(f, 100)], T)


def test_pairwise_commute_skips_pairs_with_an_empty_side(monkeypatch):
    # a central member has no images, so no pair with it is costed or
    # contracted, whichever side it is on
    sl3 = builtin_algebra("sl3")
    T = make_direct_power(sl3, 2)
    C = casimir(sl3)
    x = MPoly.variable((0, 0))
    contracted, costed = [], []
    contract, side_cost = psring._contract, psring._side_cost

    def counted(*args):
        contracted.append(args)
        return contract(*args)

    def cost(*args):
        costed.append(args)
        return side_cost(*args)

    monkeypatch.setattr(psring, "_contract", counted)
    monkeypatch.setattr(psring, "_side_cost", cost)
    assert pairwise_commute([C, x, C * C], T)
    assert pairwise_commute([x, C], T) and pairwise_commute([C, x], T)
    assert contracted == [] and costed == []
    y = MPoly.variable(T.unflat(T.scaled_neighbours[1][0][0][0]))  # [x, y] != 0
    assert not pairwise_commute([C, x, y], T)
    assert len(contracted) == 1 and len(costed) == 2


# the sl2 ends t^3 / t^3+t of a pencil, and one table alone
ANNIHILATION_TABLES = {
    "ends": (make_quotient(builtin_algebra("sl2"), parse_poly("t^3")),
             make_quotient(builtin_algebra("sl2"), parse_poly("t^3+t"))),
    "single": (TABLES["quotient"],),
}


def _dense_annihilation_kernel(polys, tables):
    """Kernel of the block matrix with one row per variable v and monomial
    m: the coefficients of m in reference_bracket(polys[k], x_v) under each
    table, k running fastest; repeated rows kept."""
    images = [[{v: reference_bracket(F, MPoly.variable(v), T) for v in T.var_list()}
               for F in polys] for T in tables]
    rows = []
    for v in sorted({v for T in tables for v in T.var_list()}):
        col = [img.get(v, MPoly.zero()) for fam in images for img in fam]
        monos = {m for F in col for m in F.terms}
        rows.extend([F.coeff(m) for F in col] for m in monos)
    return reference_nullspace(rows, len(tables) * len(polys))


@given(st.sampled_from(sorted(ANNIHILATION_TABLES)), st.data())
@settings(max_examples=60, deadline=None)
def test_annihilation_rows_kernel_matches_the_dense_reference(kind, data):
    tables = ANNIHILATION_TABLES[kind]
    polys = data.draw(st.lists(table_mpolys(VARS), min_size=1, max_size=2))
    if len(polys) < 3 and data.draw(st.booleans()):  # a repeated or scaled member
        c = data.draw(st.fractions(min_value=-12, max_value=12, max_denominator=12))
        polys.append(polys[0].scale(c) if c else polys[0])
    rows = list(annihilation_rows(polys, tables))
    assert rows == list(reference_annihilation_rows(polys, tables))
    width = len(tables) * len(polys)
    assert len(set(rows)) == len(rows)
    for r in rows:
        assert len(r) == width and math.gcd(*r) == 1
        assert next(x for x in r if x) > 0
    kern = kernel(row_space(rows, width).rows, width)
    assert kern == _dense_annihilation_kernel(polys, tables)


def test_annihilation_rows_skip_repeats():
    T = ANNIHILATION_TABLES["single"][0]
    F = MPoly.variable((0, 0), Fraction(3, 4)) * MPoly.variable((1, 1))
    assert list(annihilation_rows([F], [T])) == [(1,)]
    # every row of F and -5/12 F is a multiple of (12, -5): it is yielded once
    assert list(annihilation_rows([F, F.scale(Fraction(-5, 12))], [T])) == [(12, -5)]
    assert list(annihilation_rows([MPoly.const(3)], [T])) == []


def test_combination_basis_on_edge_cases():
    # polys over different denominators with negative leads, vectors of
    # ints and Fractions, a zero vector and a repeated direction
    x, y, z, w = (MPoly.variable(v) for v in VARS[:4])
    P = x.scale(Fraction(-2, 3)) + (y * z).scale(Fraction(5, 4))
    Q = (z * z).scale(-7) + w.scale(Fraction(1, 6))
    R = y.scale(Fraction(3, 10))
    family = [P, Q, R]
    vectors = [(0, 0, 0), (1, Fraction(-1, 2), 3), (2, -1, 6), (Fraction(1, 3), 0, 0)]
    got = combination_basis(family, vectors)
    assert got == reference_combination_basis(family, vectors)
    assert got == reference_echelon_basis([P, Q.scale(Fraction(-1, 2)) + R.scale(3)])
    assert combination_basis(family, []) == combination_basis([], []) == []
    assert combination_basis(family, [(0, 0, 0)]) == []
    assert combination_basis([x, y], [(5, 0), (0, Fraction(-2, 7))]) == [x, y]
    with pytest.raises(InputError):
        combination_basis(family, [(1, 2)])
    with pytest.raises(InputError):
        combination_basis([x, MPoly.zero()], [(1, 1)])


@st.composite
def disjoint_families(draw):
    """Nonzero polys with disjoint supports: distinct monomials dealt out to
    the polys, each with a nonzero rational coefficient."""
    monos = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 2)), min_size=0, max_size=3)
        .map(lambda pairs: tuple(sorted(dict(pairs).items()))),
        min_size=1, max_size=9, unique=True))
    size = draw(st.integers(1, min(4, len(monos))))
    owner = list(range(size)) + draw(st.lists(
        st.integers(0, size - 1), min_size=len(monos) - size, max_size=len(monos) - size))
    nonzero = coefficients().filter(bool)
    terms = [{} for _ in range(size)]
    for m, k in zip(monos, owner):
        terms[k][m] = draw(nonzero)
    return [MPoly(t) for t in terms]


@given(disjoint_families(), st.data())
@settings(max_examples=120, deadline=None)
def test_combination_basis_matches_the_reference(family, data):
    # rational vectors, rank-deficient ones included: combinations of
    # earlier vectors and zero vectors
    width = len(family)
    vectors = data.draw(st.lists(
        st.lists(coefficients(), min_size=width, max_size=width), max_size=4))
    for _ in range(data.draw(st.integers(0, 2))):
        a, b = data.draw(coefficients()), data.draw(coefficients())
        if vectors:
            u, v = data.draw(st.sampled_from(vectors)), data.draw(st.sampled_from(vectors))
            vectors.append([a * p + b * q for p, q in zip(u, v)])
    got = combination_basis(family, vectors)
    assert got == reference_combination_basis(family, vectors)
    for F in got:
        assert_canonical(F)


def test_every_table_stores_its_neighbour_index():
    # quotient, merged and power tables carry the integer index from
    # construction, both orders of every pair, and the Fraction table is
    # a view derived from it only when read
    sl2 = builtin_algebra("sl2")
    Q = make_quotient(sl2, parse_poly("t^2+1/3"))
    for T in (Q, pencil_combination(Q, Q, 1, Fraction(1, 2)), make_direct_power(sl2, 2)):
        assert "scaled_neighbours" in vars(T) and "table" not in vars(T)
        D, index = T.scaled_neighbours
        back = {u: dict(pairs) for u, pairs in index.items()}
        vs = T.var_list()
        for u, pairs in index.items():
            for v, ent in pairs:
                assert back[v][u] == tuple((w, -c) for w, c in ent)
                if u < v:
                    assert T.table[vs[u], vs[v]] == tuple((vs[w], Fraction(c, D)) for w, c in ent)
        assert len(T.table) == sum(map(len, index.values())) // 2
    assert Q.scaled_neighbours[0] == 3


# ---------------------------------------------------------------------------
# the Leibniz kernel against the Fraction oracle, denominators up to 12


def coefficients():
    return st.fractions(min_value=-6, max_value=6, max_denominator=12)


def variable_images(var_list=VARS):
    """A variable, a constant (zero included) or a quadratic over var_list."""
    linear = st.lists(st.tuples(st.sampled_from(var_list), coefficients()), max_size=3).map(
        MPoly.from_entries)
    return st.one_of(
        st.tuples(st.sampled_from(var_list), coefficients()).map(
            lambda wc: MPoly.variable(wc[0], coef=wc[1])),
        st.just(MPoly.zero()),
        coefficients().map(MPoly.const),
        st.tuples(linear, linear, coefficients()).map(
            lambda abc: reference_mul(abc[0], abc[1]) + MPoly.const(abc[2])),
    )


def derivation_images():
    """x_v -> a variable image for every v in VARS."""
    return st.fixed_dictionaries({v: variable_images() for v in VARS})


def tau_image(v):
    i, a = v
    return MPoly.variable((i, a + 1), coef=a)


def assert_canonical(F):
    # one denominator, positive and coprime to the numerators, none of
    # them zero; zero is (1, {})
    assert F._den > 0
    assert math.gcd(F._den, *F._nums.values()) == 1
    assert all(F._nums.values())
    if F.is_zero():
        assert (F._den, F._nums) == (1, {})


@given(table_mpolys(VARS), table_mpolys(VARS), coefficients(), st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_arithmetic_matches_the_fraction_reference(a, b, c, k):
    total = a + b
    assert total.terms == reference_add(a, b)
    assert (a - b).terms == reference_add(a, MPoly(reference_scale(b, -1)))
    assert (-a).terms == reference_scale(a, -1)
    assert a.scale(c).terms == reference_scale(a, c)
    want = MPoly.const(1)
    for _ in range(k):
        want = reference_mul(want, a)
    assert power(a, k).terms == want.terms
    for m, x in reference_add(a, b).items():
        assert total.coeff(m) == x
    assert total.coeff(((VARS[0], 3),)) == 0  # exponents here stay at most 2
    for F in (a, b, total, a - b, a - a, a.scale(c), power(a, k), a * b):
        assert_canonical(F)
    back = total - b
    assert back == a and hash(back) == hash(a)


def test_zero_and_integer_inputs_are_canonical():
    x = MPoly.variable((0, 0))
    for F in (MPoly.zero(), MPoly.const(0), x.scale(0), x - x, MPoly({}),
              MPoly.variable((0, 0), 0), MPoly.from_entries([((0, 0), 0)])):
        assert_canonical(F)
        assert F == MPoly.zero() and hash(F) == hash(MPoly.zero())
    # 2x + 4y over 1 and x/3 + 2y/3 scaled by 6 are stored alike
    F = MPoly({(((0, 0), 1),): 2, (((1, 0), 1),): Fraction(4)})
    G = MPoly({(((0, 0), 1),): Fraction(1, 3), (((1, 0), 1),): Fraction(2, 3)}).scale(6)
    assert (F._den, F._nums) == (G._den, G._nums) and hash(F) == hash(G)
    assert_canonical(F.scale(Fraction(1, 2)))
    assert F.scale(Fraction(1, 2))._den == 1


@given(table_mpolys(VARS), st.sampled_from(VARS + [(5, 0)]))
@settings(max_examples=80, deadline=None)
def test_diff_matches_reference(F, v):
    assert F.diff(v) == reference_diff(F, v)


@given(table_mpolys(VARS), derivation_images())
@settings(max_examples=120, deadline=None)
def test_apply_derivation_matches_reference(F, images):
    assert apply_derivation(F, images.__getitem__) == reference_derivation(
        F, images.__getitem__)


@given(table_mpolys(VARS), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_tau_matches_reference(F, times):
    want = F
    for _ in range(times):
        want = reference_derivation(want, tau_image)
    assert tau_apply(F, times) == want


@given(table_mpolys(VARS), st.dictionaries(st.sampled_from(VARS), coefficients()))
@settings(max_examples=80, deadline=None)
def test_directional_derivative_matches_reference(F, gamma):
    want = sum((reference_diff(F, v).scale(g) for v, g in gamma.items()), MPoly.zero())
    assert directional_derivative(F, gamma) == want


@given(st.lists(table_mpolys(VARS), max_size=4),
       st.lists(st.integers(-1000, 1000), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_jacobian_matches_reference(polys, coords):
    want = reference_jacobian_at(polys, dict(zip(VARS, map(Fraction, coords))), VARS)
    assert jacobian_rank_at(polys, coords, VARS) == rank(want)


@given(st.lists(table_mpolys(VARS), max_size=4),
       st.lists(st.integers(-1000, 1000), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_cleared_jacobian_is_the_jacobian_cleared_row_by_row(polys, coords):
    # each row is the Fraction row times the lcm of its denominators
    want = reference_jacobian_at(polys, dict(zip(VARS, map(Fraction, coords))), VARS)
    got = cleared_jacobian(polys, VARS)(tuple(coords))
    assert isinstance(got, list) and len(got) == len(polys)
    for i, row in enumerate(got):
        assert all(type(x) is int for x in row) and len(row) == len(VARS)
        ref = want.row(i)
        lcm = math.lcm(*[x.denominator for x in ref])
        assert row == [x * lcm for x in ref]


def test_cleared_jacobian_clears_a_prime_denominator():
    # d(x/PRIME + y) = [1/PRIME, 1] clears to [1, PRIME], which does not
    # vanish mod PRIME; a row that PRIME divides, with no denominator to
    # clear, stays as it is and vanishes
    x, y = MPoly.variable((0, 0)), MPoly.variable((1, 0))
    vs = [(0, 0), (1, 0)]
    F = x.scale(Fraction(1, PRIME)) + y
    assert cleared_jacobian([F], vs)((3, 5)) == [[1, PRIME]]
    assert rank_mod_p(cleared_jacobian([F], vs)((3, 5)), 2) == 1
    assert rank_mod_p(cleared_jacobian([F, y], vs)((3, 5)), 2) == 2
    G = (x + y).scale(PRIME)
    assert cleared_jacobian([G], vs)((3, 5)) == [[PRIME, PRIME]]
    H = (x * y).scale(Fraction(PRIME, 2))
    at = cleared_jacobian([G, H], vs)((PRIME, 2 * PRIME))
    assert at == [[PRIME, PRIME], [2 * PRIME ** 2, PRIME ** 2]]
    assert rank_mod_p(at, 2) == 0 and row_space(at, 2).dim == 2


def test_cleared_jacobian_refuses_a_point_that_misses_a_variable():
    F = MPoly.variable((0, 0)) * MPoly.variable((1, 0))
    with pytest.raises(InputError):
        cleared_jacobian([F], [(0, 0)])


# ---------------------------------------------------------------------------
# products and algebra maps on the integer kernel against reference_mul


@given(st.sampled_from(FAMILIES), st.data())
@settings(max_examples=200, deadline=None)
def test_mul_matches_reference(var_list, data):
    a, b = data.draw(table_mpolys(var_list)), data.draw(table_mpolys(var_list))
    assert a * b == reference_mul(a, b)


@given(st.sampled_from(FAMILIES), st.data())
@settings(max_examples=200, deadline=None)
def test_substitute_vars_matches_reference(var_list, data):
    F = data.draw(table_mpolys(var_list))
    mapping = data.draw(st.dictionaries(
        st.sampled_from(var_list), variable_images(var_list), max_size=len(VARS)))
    # variables left out of mapping are kept as themselves
    assert substitute_vars(F, mapping) == reference_substitute(F, mapping)


PSI_VARS = [(0, 0), (1, 1), (0, 2), (2, 3), (1, 4)]


@given(table_mpolys(PSI_VARS), st.lists(coefficients(), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_psi_matches_reference(F, low):
    p = UniPoly.make(low + [1])
    assert psi_p(F, p) == reference_psi(F, p)


def single_term_images(var_list):
    """A nonzero scalar times a variable of var_list, or a nonzero constant."""
    nonzero = coefficients().filter(bool)
    return st.one_of(
        st.tuples(st.sampled_from(var_list), nonzero).map(
            lambda wc: MPoly.variable(wc[0], coef=wc[1])),
        nonzero.map(MPoly.const),
    )


@given(st.sampled_from(FAMILIES), st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_single_term_substitutions_match_reference(var_list, data, mixed):
    # maps whose images are each one term only move keys and scale
    # numerators; with mixed, multi-term images sit beside them
    F = data.draw(table_mpolys(var_list))
    images = single_term_images(var_list)
    if mixed:
        images = st.one_of(images, variable_images(var_list))
    mapping = data.draw(st.dictionaries(st.sampled_from(var_list), images, max_size=6))
    # two variables sent to one target, a variable F already holds if any
    u, w = data.draw(st.lists(st.sampled_from(var_list), min_size=2, max_size=2, unique=True))
    target = data.draw(st.sampled_from(sorted(F.vars()) or var_list))
    nonzero = coefficients().filter(bool)
    mapping[u] = MPoly.variable(target, coef=data.draw(nonzero))
    mapping[w] = MPoly.variable(target, coef=data.draw(nonzero))
    assert substitute_vars(F, mapping) == reference_substitute(F, mapping)


SHIFT_VARS = [v for v in PSI_VARS if v[1] >= 1]


@given(table_mpolys(SHIFT_VARS), table_mpolys(PSI_VARS))
@settings(max_examples=80, deadline=None)
def test_level_relabels_match_reference(F, G):
    # every image of the shift down and of psi mod t^2 - 1 is one term
    shift = {(i, a): MPoly.variable((i, a - 1)) for i, a in SHIFT_VARS}
    assert substitute_levels(F, lambda a: UniPoly.monomial(a - 1)) == reference_substitute(F, shift)
    p = parse_poly("t^2-1")
    assert psi_p(G, p) == reference_psi(G, p)


def test_single_term_substitutions_keep_the_field_maximum():
    x, y, z, w = (MPoly.variable((i, 0)) for i in range(4))
    # a relabel keeps the degree, a constant lowers it, a monomial raises it
    assert (substitute_vars(power(x, FIELD_MAX), {(0, 0): y.scale(2)})
            == power(y, FIELD_MAX).scale(2 ** FIELD_MAX))
    assert substitute_vars(power(x, 127), {(0, 0): y * z}) == power(y, 127) * power(z, 127)
    with pytest.raises(BudgetError):  # degree 256
        substitute_vars(power(x, 128), {(0, 0): y * z})
    with pytest.raises(BudgetError):  # degree 256, x kept
        substitute_vars(power(x, 254) * y, {(1, 0): z * w})
    with pytest.raises(BudgetError):  # degree 260, each power below the maximum
        substitute_vars(power(x, 200) * power(y, 30), {(0, 0): z, (1, 0): z * w})
    assert substitute_vars(power(x, 254) * y, {(1, 0): MPoly.const(5)}) == power(x, 254).scale(5)
    # x^200 y^50 -> 2^200 (z w u)^50, degree 150, whichever factor comes first
    u = MPoly.variable((4, 0))
    assert substitute_vars(power(x, 200) * power(y, 50),
                           {(0, 0): MPoly.const(2), (1, 0): z * w * u}) == (
        power(z * w * u, 50)).scale(2 ** 200)
    with pytest.raises(BudgetError):  # degree 258 after the constant
        substitute_vars(power(x, 100) * power(y, 86), {(0, 0): MPoly.const(2), (1, 0): z * w * u})


# ---------------------------------------------------------------------------
# packed keys: several machine words, and the field maximum


def test_wide_keys_span_several_words():
    F = MPoly({tuple((v, 1) for v in WIDE_VARS): Fraction(1, 3)})
    assert len(WIDE_VARS) == 72
    assert max(F._nums).bit_length() > 8 * len(WIDE_VARS)
    assert F * F == reference_mul(F, F)


@given(table_mpolys(WIDE_VARS), table_mpolys(WIDE_VARS))
@settings(max_examples=40, deadline=None)
def test_wide_bracket_matches_table_walk(F, G):
    assert poisson_bracket(F, G, WIDE_TABLE) == reference_bracket(F, G, WIDE_TABLE)


def test_packed_field_boundary():
    # FIELD_MAX is the largest total degree, hence the largest exponent, a
    # packed key holds; one more factor is refused, never wrapped
    x, y, f = MPoly.variable((0, 0)), MPoly.variable((1, 0)), MPoly.variable((2, 0))
    assert power(x, FIELD_MAX).terms == {(((0, 0), FIELD_MAX),): 1}
    assert (power(x, 200) * power(y, 55)).terms == {(((0, 0), 200), ((1, 0), 55)): 1}
    assert power(x, 200).diff((0, 0)) == power(x, 199).scale(200)
    with pytest.raises(BudgetError):
        power(x, FIELD_MAX) * x
    with pytest.raises(BudgetError):
        power(x, 200) * power(y, 56)
    with pytest.raises(BudgetError):
        power(x, FIELD_MAX + 1)
    with pytest.raises(BudgetError):  # built past the field, refused on entry
        MPoly({(((0, 0), FIELD_MAX + 1),): Fraction(1)}) * x
    with pytest.raises(BudgetError):  # (x y + y)^200, degree 400
        substitute_vars(power(x, 200), {(0, 0): x * y + y})
    T = make_quotient(builtin_algebra("sl2"), parse_poly("t"))
    assert not poisson_bracket(power(x, 100), power(f, 100), T).is_zero()
    # {x^200, x_v} * d(f^100)/dx_v, degree 299, whether the factors'
    # degrees are taken per bracket or once for every pair
    overflow = "product of degree 299 exceeds the packed field maximum 255"
    with pytest.raises(BudgetError, match=overflow):
        poisson_bracket(power(x, 200), power(f, 100), T)
    with pytest.raises(BudgetError, match=overflow):
        pairwise_commute([power(x, 200), power(f, 100)], T)


def test_substitute_vars_keeps_the_term_budget(monkeypatch):
    xs = MPoly.from_entries(((i, 0), 1) for i in range(3))
    square = MPoly.variable((0, 1)) * MPoly.variable((0, 1))
    pair = MPoly.variable((0, 1)) * MPoly.variable((1, 1))
    mapping = {(0, 1): xs, (1, 1): xs}
    assert substitute_vars(square, mapping) == substitute_vars(pair, mapping) == xs * xs
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "5")
    with pytest.raises(BudgetError):  # the square of an image, 3 x 3 terms
        substitute_vars(square, mapping)
    with pytest.raises(BudgetError):  # the image of a term, 3 x 3 terms
        substitute_vars(pair, mapping)


# ---------------------------------------------------------------------------
# spans, jacobians, serialization


def test_span_utilities():
    x = MPoly.variable((0, 0))
    y = MPoly.variable((1, 0))
    fam = [x, y, x + y]
    assert span_dim(fam) == 2
    assert span_dim([MPoly.zero()]) == span_dim([]) == 0
    assert span_dim([x + y, x - y, MPoly.zero()]) == span_dim(fam + [x + y, x - y]) == 2
    assert span_dim([y.scale(2) - x.scale(2), y - x]) == 1
    assert span_dim([y.scale(2) - x.scale(2), y - x, x]) == 2


@given(st.lists(mpolys(), min_size=1, max_size=4),
       st.lists(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                         min_size=4, max_size=4), max_size=3),
       mpolys())
@settings(max_examples=60, deadline=None)
def test_span_dim_reads_the_span(A, combos, G):
    # what the span comparisons of pencilz rely on: span_dim is the rank of
    # the reference basis, combinations of A, in any order, leave it as it
    # is, and G raises it exactly when G lies outside the span
    base = reference_echelon_basis(A)
    assert span_dim(A) == len(base)
    extra = [sum((F.scale(c) for F, c in zip(A, cs)), MPoly.zero()) for cs in combos]
    assert span_dim(extra + A[::-1]) == span_dim(A + extra) == len(base)
    outside = span_dim(A + [G]) > span_dim(A)
    assert (reference_echelon_basis(A + [G]) != base) == outside


# variables first used in reverse of their sort order, so the order of
# their packed slots is the reverse of mono_sort_key order
REVERSED_VARS = [(900 + i, 7) for i in range(6)]
for _v in reversed(REVERSED_VARS):
    MPoly.variable(_v)


@given(st.lists(st.dictionaries(
    st.lists(st.tuples(st.sampled_from(REVERSED_VARS + VARS[:2]), st.integers(1, 3)),
             max_size=3).map(lambda pairs: tuple(sorted(dict(pairs).items()))),
    st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=4),
    min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_decoded_monomials_keep_tuple_order(dicts):
    polys = [MPoly(d) for d in dicts]
    for d, F in zip(dicts, polys):
        assert F.terms == {m: c for m, c in d.items() if c}
        assert repr(F) == reference_repr(F)
        if not F.is_zero():  # the lead that combination_basis and primitive read
            assert psring._decode(psring._first_key(F._nums)) == reference_monomials([F])[0]
    # the rows hold the reference coefficients, in some column order, over
    # the common denominator, and span as much as the reference basis
    rows = coeff_rows(polys)
    want = [[F.terms.get(m, 0) for m in reference_monomials(polys)] for F in polys]
    scale = math.lcm(*(Fraction(w).denominator for ww in want for w in ww))
    assert sorted(zip(*rows)) == sorted(tuple(w * scale for w in col) for col in zip(*want))
    assert span_dim(polys) == len(reference_echelon_basis(polys))


def test_coeff_rows_alignment():
    x = MPoly.variable((0, 0))
    y = MPoly.variable((1, 0))
    rows = coeff_rows([x + y.scale(2), y])
    assert len(rows) == 2
    # one column per monomial: x holds (1, 0) and y (2, 1), in either order
    assert sorted(zip(*rows)) == [(1, 0), (2, 1)]
    # over one common denominator
    assert coeff_rows([x.scale(Fraction(1, 2)), y.scale(Fraction(1, 3))]) == [[3, 0], [0, 2]]


def test_jacobian_rank():
    x = MPoly.variable((0, 0))
    y = MPoly.variable((1, 0))
    polys = [x * x, x * y, y]
    assert jacobian_rank_at(polys, (2, 3), [(0, 0), (1, 0)]) == 2
    # at the origin only dy/dy survives
    assert jacobian_rank_at(polys, (0, 0), [(0, 0), (1, 0)]) == 1


def test_mono_sort_key_grades_by_degree():
    lo = (((0, 0), 1),)
    hi = (((0, 0), 2),)
    assert mono_sort_key(lo) < mono_sort_key(hi)


def test_budget(monkeypatch):
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "4")
    assert term_budget() == 4
    xs = sum((MPoly.variable((i, 0)) for i in range(3)), MPoly.zero())
    with pytest.raises(BudgetError):
        xs * xs
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "nope")
    with pytest.raises(InputError):
        term_budget()


def test_bracket_kernel_keeps_the_term_budget(monkeypatch):
    # every product of the Leibniz rule is checked against the budget:
    # dF/dx_u * [x_u, x_v], {F, x_v} * dG/dx_v and image(v) * dF/dx_v
    sl2 = builtin_algebra("sl2")
    T = make_quotient(sl2, parse_poly("t^2"))
    L = sum((MPoly.variable(v) for v in T.var_list()), MPoly.zero())
    F = L * L
    G = MPoly.variable((0, 0)) * MPoly.variable((2, 1))
    h = MPoly.variable((1, 0))
    assert not poisson_bracket(F, G, T).is_zero()
    assert not poisson_bracket(h, F, T).is_zero()
    assert any(annihilation_rows([F], [T]))
    assert not tau_apply(F).is_zero()
    assert not apply_derivation(F, MPoly.variable).is_zero()
    assert centralizer_in_span(h, [F, h], T)
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "5")
    with pytest.raises(BudgetError):  # 6 terms in dF/dx_u
        poisson_bracket(F, G, T)
    with pytest.raises(BudgetError):  # {h, x_v} * dF/dx_v, 1 x 6 terms
        poisson_bracket(h, F, T)
    # the family bracket runs the same products
    with pytest.raises(BudgetError):
        list(poisson_brackets([F], [G], T))
    with pytest.raises(BudgetError):
        list(poisson_brackets([h], [F], T))
    with pytest.raises(BudgetError):
        any(annihilation_rows([F], [T]))
    # the derivations run on the same kernel: image(v) * dF/dx_v, 1 x 6 terms
    with pytest.raises(BudgetError):
        tau_apply(F)
    with pytest.raises(BudgetError):
        apply_derivation(F, MPoly.variable)
    with pytest.raises(BudgetError):
        centralizer_in_span(h, [F, h], T)

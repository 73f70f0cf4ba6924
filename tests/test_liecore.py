"""Polynomials, Lie algebra data, quotient brackets, index sampling."""
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from glab import exactla, liecore, suites
from glab.exactla import (
    PRIME, BudgetError, InputError, QMatrix, nullspace, rank, rank_skew, rref,
)
from glab.liecore import (
    BracketTable,
    LieAlgebra,
    UniPoly,
    algebra_from_json,
    algebra_to_json,
    builtin_algebra,
    check_form_invariant,
    check_table_antisymmetry,
    check_table_jacobi,
    crt_idempotents,
    crt_primary,
    index_report,
    make_abelian,
    make_difference_bracket,
    make_direct_power,
    make_direct_sum,
    make_gl,
    make_quotient,
    make_sl,
    make_takiff,
    parse_poly,
    pencil_combination,
    poly_egcd,
    rational_roots,
    _structure_ranks_mod_p,
    _structure_upper,
    structure_matrix_at,
    t_powers_mod,
    wrap_algebra,
)
from glab.psring import MPoly, primitive, substitute_levels, substitute_vars
from glab.invariantlab import _lowered_bracket_tensor, basic_invariants
from oracle import (
    SL2_RESCALED,
    FractionTable,
    matrix_rows,
    pair_bracket,
    power,
    reference_crt_idempotents,
    reference_form_invariant,
    reference_jacobi,
    reference_nullspace,
    reference_pencil,
    reference_quotient,
    reference_rank_mod_p,
    reference_rref,
    reference_sampled_max_rank,
    reference_sc_bracket,
    reference_structure_matrix,
    reference_takiff_sc,
)

small_coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    min_size=0, max_size=5,
)
polys = small_coeffs.map(UniPoly.make)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


# ---------------------------------------------------------------------------
# univariate polynomials


def test_unipoly_basics():
    p = parse_poly("t^3 - 2t + 1")
    assert p.degree == 3
    assert p.coeff(1) == -2
    assert p.eval(2) == 5
    assert str(parse_poly("t^2-t")) == "t^2 - t"
    assert parse_poly("t^3 - 1/2t + 1").coeff(1) == Fraction(-1, 2)
    assert UniPoly.make([0, 0]).is_zero()
    assert UniPoly.t() == parse_poly("t")


def test_parse_poly_errors():
    with pytest.raises(InputError):
        parse_poly("t^-1")
    with pytest.raises(InputError):
        parse_poly("q^2")
    with pytest.raises(InputError):
        parse_poly("")


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_unipoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == UniPoly.zero()


@given(polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_divmod_invariant(a, d):
    q, r = a.divmod_by(d)
    assert a == q * d + r
    assert r.is_zero() or r.degree < d.degree


@given(polys, st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_t_powers_mod_match_division(low, count):
    # p monic of degree 1-6 with rational coefficients below t^deg
    n = low.degree + 2 if not low.is_zero() else 1
    p = low + UniPoly.monomial(n)
    powers = itertools.islice(t_powers_mod(p), 2 * n + count)
    for a, r in enumerate(powers):
        assert r == UniPoly.monomial(a).mod(p)


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(a, b):
    g, u, v = poly_egcd(a, b)
    assert a.divmod_by(g)[1].is_zero()
    assert b.divmod_by(g)[1].is_zero()
    assert u * a + v * b == g


@given(polys, st.fractions(min_value=-5, max_value=5, max_denominator=3))
@settings(max_examples=40, deadline=None)
def test_shift_evaluates(p, c):
    # sum_a p_a x t^a under t -> t + c holds the coefficients of p(t + c)
    r = UniPoly.make([c, 1])
    F = substitute_levels(
        MPoly.from_entries(((0, a), pa) for a, pa in enumerate(p.coeffs)), lambda a: power(r, a)
    )
    shifted = UniPoly.make([F.coeff((((0, k), 1),)) for k in range(len(p.coeffs))])
    for x in (Fraction(0), Fraction(1), Fraction(-2)):
        assert shifted.eval(x) == p.eval(x + c)


def test_rational_roots():
    assert rational_roots(parse_poly("t^2-1")) == (
        (Fraction(-1), 1), (Fraction(1), 1),
    )
    assert rational_roots(parse_poly("t^3-t")) == (
        (Fraction(-1), 1), (Fraction(0), 1), (Fraction(1), 1),
    )
    assert rational_roots(parse_poly("t^2+1")) is None
    assert rational_roots(parse_poly("t^3+t+1")) is None
    # repeated roots carry multiplicities
    assert rational_roots(parse_poly("t^2-2t+1")) == ((Fraction(1), 2),)
    assert rational_roots(UniPoly.monomial(3)) == ((Fraction(0), 3),)
    # a rational but non-integer root
    assert rational_roots(parse_poly("2t-1").monic()) == ((Fraction(1, 2), 1),)


def test_rational_roots_trial_division_keeps_the_term_budget(monkeypatch):
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "10")
    assert rational_roots(parse_poly("t^2-100")) == ((Fraction(-10), 1), (Fraction(10), 1))
    assert rational_roots(parse_poly("t^2-120")) is None  # isqrt(120) = 10
    with pytest.raises(BudgetError):
        rational_roots(parse_poly("t^2-121"))
    with pytest.raises(BudgetError):  # leading coefficient 121 once cleared
        rational_roots(parse_poly("t-1/121"))
    # the root at zero is stripped without trial division
    assert rational_roots(UniPoly.monomial(3)) == ((Fraction(0), 3),)


def test_parse_poly_degree_budget(monkeypatch):
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "10")
    assert parse_poly("t^9 + t^009").degree == 9
    with pytest.raises(BudgetError):
        parse_poly("t^20")
    with pytest.raises(BudgetError):  # more digits than int() accepts
        parse_poly("1+t^" + "9" * 5000)
    # a monomial built from a computed degree keeps the same bound
    assert UniPoly.monomial(9).degree == 9
    with pytest.raises(BudgetError):
        UniPoly.monomial(10)


def test_jacobi_scan_and_takiff_keep_the_term_budget(monkeypatch):
    sl2, sl3 = builtin_algebra("sl2"), builtin_algebra("sl3")
    T = make_quotient(sl3, parse_poly("t^2"))  # 16 variables, 560 triples
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "560")
    assert check_table_jacobi(T) is None
    assert make_difference_bracket(sl3, parse_poly("t^2"), parse_poly("t^2+t")).n == 2
    assert builtin_algebra("takiff:sl2:2").dim == 6
    assert builtin_algebra("takiff:takiff:sl2:2:3").dim == 18
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "559")
    with pytest.raises(BudgetError):
        check_table_jacobi(T)
    with pytest.raises(BudgetError):
        make_difference_bracket(sl3, parse_poly("t^2"), parse_poly("t^2+t"))
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "35")  # takiff:sl2:2 has 6^2 pairs
    with pytest.raises(BudgetError):
        make_takiff(sl2, 2)
    with pytest.raises(BudgetError):  # refused before anything is allocated
        builtin_algebra("takiff:sl2:" + "9" * 30)


def test_quotients_and_abelian_algebras_are_bounded_before_they_are_built(monkeypatch):
    # sl2 mod t^3 and abelian:9 both have 9 variables, 9^2 = 81 bracket pairs
    sl2, t3 = builtin_algebra("sl2"), parse_poly("t^3")
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "81")
    assert make_quotient(sl2, t3).dim_total == 9
    assert make_abelian(9).dim == 9
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "80")

    def unreachable(*args):
        raise AssertionError("t^a mod p was formed before the budget check")

    monkeypatch.setattr(liecore, "t_powers_mod", unreachable)
    for build in (lambda: make_quotient(sl2, t3), lambda: make_abelian(9)):
        with pytest.raises(BudgetError, match="on 9 variables has more than 80 bracket pairs"):
            build()
    # more digits than int() accepts, refused before it reads them
    with pytest.raises(BudgetError, match="count of 5000 digits"):
        builtin_algebra("abelian:" + "9" * 5000)


# ---------------------------------------------------------------------------
# algebras


def test_builtin_algebras():
    sl2 = builtin_algebra("sl2")
    assert sl2.labels == ("e", "h", "f")
    assert check_table_jacobi(wrap_algebra(sl2)) is None
    assert check_form_invariant(sl2)
    sl3 = builtin_algebra("sl3")
    assert sl3.dim == 8
    assert check_table_jacobi(wrap_algebra(sl3)) is None
    ab = builtin_algebra("abelian:3")
    assert ab.dim == 3 and not ab.sc
    tk = builtin_algebra("takiff:sl2:2")
    assert tk.dim == 6
    assert check_table_jacobi(wrap_algebra(tk)) is None
    assert check_form_invariant(tk)
    with pytest.raises(InputError):
        builtin_algebra("so5")


def test_builtin_algebras_are_interned_by_stripped_name():
    assert builtin_algebra("sl2") is builtin_algebra(" sl2 ")
    assert builtin_algebra("takiff:sl2:2") is builtin_algebra("takiff:sl2:2 ")
    assert builtin_algebra("takiff:sl2:2") == make_takiff(make_sl(2), 2)
    assert builtin_algebra("sum:sl2,abelian:1") == make_direct_sum(make_sl(2), make_abelian(1))
    assert builtin_algebra("sum:sl2, abelian:1") == builtin_algebra("sum:sl2,abelian:1")
    assert builtin_algebra("gl2") is not builtin_algebra("sl2")


BRACKET_ALGEBRAS = {
    **{name: builtin_algebra(name) for name in (
        "sl2", "sl3", "sl4", "gl2", "gl3", "abelian:3", "sum:sl2,sl2", "sum:sl2,abelian:1",
        "takiff:sl2:2", "takiff:sl3:2", "takiff:takiff:sl2:2:3")},
    "aff1": LieAlgebra("aff1", ("x", "y"), ((0, 1, ((1, Fraction(1)),)),)),
    "json:sl3": algebra_from_json(algebra_to_json(builtin_algebra("sl3"))),
    "sl2-rescaled": SL2_RESCALED,
}


@pytest.mark.parametrize("name", [n for n, q in BRACKET_ALGEBRAS.items() if q.form is not None])
def test_form_invariance_check_matches_the_reference(name):
    # the stored form, then forms with one entry moved, symmetrically or not
    q = BRACKET_ALGEBRAS[name]
    rng = random.Random(name)
    forms = [q.form]
    for _ in range(6):
        rows = [q.form.row(i) for i in range(q.dim)]
        i, j = rng.randrange(q.dim), rng.randrange(q.dim)
        rows[i][j] += rng.choice((1, -1, Fraction(1, 2)))
        if rng.random() < 0.5:
            rows[j][i] = rows[i][j]
        forms.append(QMatrix.from_rows(rows))
    for form in forms:
        r = LieAlgebra(q.name, q.labels, q.sc, form)
        assert check_form_invariant(r) == reference_form_invariant(r)
    assert check_form_invariant(q)


@pytest.mark.parametrize("name", list(BRACKET_ALGEBRAS))
def test_bracket_matches_the_structure_constants(name):
    q = BRACKET_ALGEBRAS[name]
    for i, j in itertools.product(range(q.dim), repeat=2):
        assert q.bracket(i, j) == reference_sc_bracket(q, i, j)
    # make_quotient and make_direct_power walk the pairs in (i, j) order
    keys = list(q._int_brackets[1])
    assert keys == sorted(keys)


@pytest.mark.parametrize("sc", [
    ((1, 0, ((0, Fraction(1)),)),),
    ((0, 0, ((1, Fraction(1)),)),),
])
def test_structure_constants_need_i_below_j_on_first_use(sc):
    q = LieAlgebra("bad", ("x", "y"), sc)
    with pytest.raises(InputError, match="i < j"):
        q.bracket(0, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", [
    "sl2", "sl3", "gl2", "gl3", "sum:sl2,sl2", "takiff:sl2:2", "abelian:2", "sl2-rescaled",
    "takiff:takiff:sl2:2:3",
])
def test_make_takiff_matches_the_reference_loop(name, k):
    q = SL2_RESCALED if name == "sl2-rescaled" else builtin_algebra(name)
    assert make_takiff(q, k).sc == reference_takiff_sc(q, k)


def test_sl2_structure():
    sl2 = builtin_algebra("sl2")
    e, h, f = 0, 1, 2
    assert dict(sl2.bracket(h, e)) == {e: Fraction(2)}
    assert dict(sl2.bracket(h, f)) == {f: Fraction(-2)}
    assert dict(sl2.bracket(e, f)) == {h: Fraction(1)}
    # trace form of the defining representation
    assert sl2.form.at(e, f) == 1
    assert sl2.form.at(h, h) == 2
    assert sl2.form.at(e, e) == 0


def test_algebra_json_round_trip():
    sl2 = builtin_algebra("sl2")
    q = algebra_from_json(algebra_to_json(sl2))
    assert q.labels == sl2.labels
    assert q.sc == sl2.sc
    # breaking one structure constant must break Jacobi validation
    bad = algebra_to_json(sl2)
    bad["sc"] = [row for row in bad["sc"] if not (row[0] == 0 and row[1] == 2)]
    bad["sc"].append([0, 2, 0, "1"])
    with pytest.raises(InputError, match=r"basis triple \(0, 1, 2\)"):
        algebra_from_json(bad)


@pytest.mark.parametrize("key, value, message", [
    ("dim", "two", "match an integer dim"),
    ("dim", 3.0, "match an integer dim"),
    ("sc", [[0, 1, 1]], "not a list of 4 values"),
    ("sc", [[0, 1.0, 1, "2"]], "nonnegative integer indices"),
    ("sc", [[0, "1", 1, "2"]], "nonnegative integer indices"),
    ("sc", [[0, 1, 1, "two"]], "not a rational literal"),
    ("sc", {"0": 1}, "entries must be a list"),
    ("matrices", [[[0, 1, "1"]]], "list of dim matrices"),
    ("matrices", [[[0, 1]], [], []], "not a list of 3 values"),
    ("matrices", [[[0, -1, "1"]], [], []], "nonnegative integer indices"),
    ("matrices", [[[0, 1, 0.5]], [], []], "not a rational value"),
    ("matrices", [[[0, 1, "1/0"]], [], []], "not a rational literal"),
    ("form", 5, "form must be a list of rows"),
    ("form", [5, 6, 7], "form must be a list of rows"),
    ("basis", ["e", ["h"], "f"], "distinct strings"),
    ("basis", "efh", "distinct strings"),
    ("name", None, "name must be a string"),
    ("form", [[0, 1, 0], [0, 2, 0], [1, 0, 0]], "form must be symmetric"),
    ("form", [[0, 0, 1], [0, 0, 0], [1, 0, 0]], "form is degenerate"),
    ("form", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "form is not invariant under the bracket"),
    ("form", [["1/2", 0, 0], [0, 1, 0], [0, 0, "1/2"]], "form is not invariant under the bracket"),
])
def test_algebra_json_refuses_malformed_input(key, value, message):
    d = dict(algebra_to_json(builtin_algebra("sl2")), **{key: value})
    with pytest.raises(InputError, match=message):
        algebra_from_json(d)


def _permuted(q, perm):
    """q with basis element i renamed perm[i], through algebra_from_json."""
    d = algebra_to_json(q)
    inv = {p: i for i, p in enumerate(perm)}
    d["basis"] = [q.labels[inv[k]] for k in range(q.dim)]
    d["sc"] = [[perm[i], perm[j], perm[k], c] for i, j, k, c in d["sc"]]
    d["form"] = [[d["form"][inv[a]][inv[b]] for b in range(q.dim)] for a in range(q.dim)]
    d["matrices"] = [d["matrices"][inv[k]] for k in range(q.dim)]
    return algebra_from_json(d)


@pytest.mark.parametrize("name, seed", [("sl2", 0), ("sl3", 1), ("gl2", 2)])
def test_invariants_of_a_reordered_basis_are_the_renamed_invariants(name, seed):
    # the matrices are reordered with the basis and the name is kept: the
    # invariants are those of the built-in basis, x_i renamed x_perm[i]
    q = builtin_algebra(name)
    perm = list(range(q.dim))
    random.Random(seed).shuffle(perm)
    assert perm != sorted(perm)
    rename = {(i, 0): MPoly.variable((perm[i], 0)) for i in range(q.dim)}
    want = [primitive(substitute_vars(F, rename)) for F in basic_invariants(q)]
    assert basic_invariants(_permuted(q, perm)) == want


def _generated_dim(q, gens) -> int:
    """Dimension of the ad(q)-module generated by the basis elements gens,
    by bracketing a basis of the span with every x_j until it stops
    growing."""
    span = rref([[int(k == g) for k in range(q.dim)] for g in gens])[0]
    while True:
        brackets = []
        for j in range(q.dim):
            for w in span:
                v = [Fraction(0)] * q.dim
                for k, c in enumerate(w):
                    for m, s in q.bracket(j, k):
                        v[m] += c * s
                brackets.append(v)
        grown = rref(span + brackets)[0]
        if len(grown) == len(span):
            return len(span)
        span = grown


@pytest.mark.parametrize("name, want", [
    ("sl2", (0,)), ("sl3", (0,)), ("sl4", (0,)), ("gl2", (0, 1)), ("gl3", (0, 3)),
    ("abelian:3", (0, 1, 2)), ("sum:sl2,abelian:1", (0, 3)), ("sum:sl2,sl2", (0, 3)),
    ("takiff:sl2:2", (0,)),
])
def test_module_generators_generate_q_greedily(name, want):
    q = builtin_algebra(name)
    assert q.module_generators == want
    assert _generated_dim(q, want) == q.dim
    # greedy in basis order: each generator lies outside what the earlier
    # ones generate
    for k, g in enumerate(want[1:], 1):
        assert _generated_dim(q, want[:k]) < _generated_dim(q, want[:k] + (g,))


def test_module_generators_come_from_the_structure_constants(sl3):
    # a reordered basis, with its name kept, needs one generator all the same
    for seed in range(4):
        perm = list(range(sl3.dim))
        random.Random(seed).shuffle(perm)
        q = _permuted(sl3, perm)
        assert q.sc != sl3.sc and q.name == sl3.name
        assert q.module_generators == (0,)
    # and a name says nothing: sl3's structure constants under another name
    renamed = algebra_from_json(dict(algebra_to_json(sl3), name="abelian:8"))
    assert renamed.module_generators == (0,)


def test_algebra_json_jacobi_scan_is_budgeted(monkeypatch):
    # gl3 has 9 * 8 * 7 / 6 = 84 basis triples and 9^2 = 81 bracket pairs,
    # within the budget; a broken constant would be an InputError, so the
    # BudgetError shows the scan never started
    bad = algebra_to_json(builtin_algebra("gl3"))
    bad["sc"][0][3] = "5"
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "83")
    with pytest.raises(BudgetError, match="more than 83 triples"):
        algebra_from_json(bad)
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "84")
    with pytest.raises(InputError, match="Jacobi identity fails"):
        algebra_from_json(bad)


def test_algebra_hash_is_cached_and_follows_equality():
    a, b = make_sl(4), make_sl(4)  # builtin_algebra would intern them
    assert a is not b and a == b and hash(a) == hash(b)
    q = algebra_from_json(algebra_to_json(a))
    assert q == a and hash(q) == hash(a)
    assert _lowered_bracket_tensor(q) is _lowered_bracket_tensor(a)  # one cache entry for both
    r = algebra_from_json(algebra_to_json(a))
    assert "_hash" not in vars(r)
    h = hash(r)
    assert vars(r)["_hash"] == h
    object.__setattr__(r, "name", "renamed")  # a recomputed hash would move
    assert hash(r) == h


# ---------------------------------------------------------------------------
# quotient tables


def test_quotient_table_sl2_t2():
    sl2 = builtin_algebra("sl2")
    T = make_quotient(sl2, parse_poly("t^2"))
    assert T.dim_total == 6
    # [e t, f t] lands in degree 2 and dies mod t^2
    assert pair_bracket(T, (0, 1), (2, 1)) == ()
    assert dict(pair_bracket(T, (0, 0), (2, 1))) == {(1, 1): Fraction(1)}
    assert check_table_antisymmetry(T)
    assert check_table_jacobi(T) is None


def _indexed(T):
    """T's Fraction table, and its scaled index as an ordered list, so the
    order of the index is compared."""
    D, index = T.scaled_neighbours
    return T.table, D, list(index.items())


def _entries(T):
    """D and every (u, v) -> [x_u, x_v] of T's scaled index, both orders,
    compared independently of the order of the index."""
    D, index = T.scaled_neighbours
    return D, {(u, v): ent for u, nb in index.items() for v, ent in nb}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["sl2", "sl3", "gl2", "abelian:2", "takiff:sl2:2", "sum:sl2,abelian:1"]),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)
@example("sl2", [Fraction(1, 3), Fraction(1, 2)], Fraction(0), Fraction(1), Fraction(1, 7))
def test_integer_quotient_table_matches_the_fraction_reference(qname, low, c0, c1, a):
    # p monic of degree 1-4 with small rational coefficients, so that D > 1
    # occurs; p2 = p + c1 t + c0, monic too, is the second end of a
    # difference bracket unless p2 == p
    q = builtin_algebra(qname)
    p = UniPoly.make(low + [1])
    p2 = p + UniPoly.make([c0, c1 if p.degree > 1 else 0])
    T, R = make_quotient(q, p), reference_quotient(q, p)
    assert _indexed(T) == _indexed(R)
    assert T.n == R.n
    T2, R2 = make_quotient(q, p2), reference_quotient(q, p2)
    assert _indexed(T2) == _indexed(R2)
    assert _entries(pencil_combination(T, T2, a, 1 - a)) == _entries(
        reference_pencil(R, R2, a, 1 - a))
    want = reference_pencil(R, R2, 1, -1)
    if p2 != p and check_table_jacobi(want) is None:
        assert _entries(make_difference_bracket(q, p, p2)) == _entries(want)
    else:  # p2 == p spans no pencil
        with pytest.raises(InputError):
            make_difference_bracket(q, p, p2)


def test_quotient_reduction_wraps():
    sl2 = builtin_algebra("sl2")
    T = make_quotient(sl2, parse_poly("t^2-1"))
    # degree 2 reduces to the constant slot
    assert dict(pair_bracket(T, (0, 1), (2, 1))) == {(1, 0): Fraction(1)}


def test_quotient_input_checks():
    sl2 = builtin_algebra("sl2")
    with pytest.raises(InputError):
        make_quotient(sl2, UniPoly.make([2, 0, 2]))
    with pytest.raises(InputError):
        make_quotient(sl2, UniPoly.one())


def test_flat_unflat_round_trip():
    sl2 = builtin_algebra("sl2")
    T = make_quotient(sl2, parse_poly("t^3"))
    assert T.var_list() == [T.unflat(k) for k in range(T.dim_total)]
    for k, (i, a) in enumerate(T.var_list()):
        assert k == a * sl2.dim + i


def test_the_index_holds_positions_and_decodes_to_the_reference(monkeypatch):
    # every constructor hands BracketTable pairs of positions u < v, and
    # every key, neighbour and entry of the index is a position in 0..N-1
    pairs_seen = []
    init = BracketTable.__init__

    def recording(self, base, n, den, pairs):
        pairs_seen.extend(pairs)
        init(self, base, n, den, pairs)

    monkeypatch.setattr(BracketTable, "__init__", recording)
    q = builtin_algebra("gl2")
    p1, p2 = parse_poly("t^3+1/2*t"), parse_poly("t^3+t+1/3")
    t1, t2 = make_quotient(q, p1), make_quotient(q, p2)
    r1, r2 = reference_quotient(q, p1), reference_quotient(q, p2)
    power = {((i, a), (j, a)): tuple(((k, a), c) for k, c in q.bracket(i, j))
             for a in range(3) for i in range(q.dim) for j in range(i + 1, q.dim)}
    cases = [
        (t1, r1), (t2, r2),
        (pencil_combination(t1, t2, Fraction(2, 3), 5), reference_pencil(r1, r2, Fraction(2, 3), 5)),
        (make_difference_bracket(q, p1, p2), reference_pencil(r1, r2, 1, -1)),
        (make_direct_power(q, 3), FractionTable(q, 3, power)),
        (wrap_algebra(builtin_algebra("takiff:sl2:2")), None),
    ]
    assert pairs_seen and all(type(u) is int and type(v) is int and u < v
                              for u, v in pairs_seen)
    for T, R in cases:
        D, index = T.scaled_neighbours
        N = T.dim_total
        positions = list(index)
        positions += [v for nb in index.values() for v, _ in nb]
        positions += [w for nb in index.values() for _, ent in nb for w, _ in ent]
        assert all(type(k) is int and 0 <= k < N for k in positions)
        assert all(type(c) is int for nb in index.values() for _, ent in nb for _, c in ent)
        if R is not None:
            assert T.table == R.table
            assert _entries(T) == _entries(R)


def test_direct_power_blocks():
    sl2 = builtin_algebra("sl2")
    T = make_direct_power(sl2, 2)
    assert dict(pair_bracket(T, (0, 0), (2, 0))) == {(1, 0): Fraction(1)}
    assert pair_bracket(T, (0, 0), (2, 1)) == ()
    assert check_table_jacobi(T) is None


def test_pencil_combination_line_matches_quotient():
    sl2 = builtin_algebra("sl2")
    p1, p2 = parse_poly("t^2"), parse_poly("t^2+t")
    t1, t2 = make_quotient(sl2, p1), make_quotient(sl2, p2)
    for a in (Fraction(2), Fraction(-1), Fraction(1, 2)):
        combo = pencil_combination(t1, t2, a, 1 - a)
        fresh = make_quotient(sl2, p1.scale(a) + p2.scale(1 - a))
        assert combo == fresh
    off_line = pencil_combination(t1, t2, 1, 1)
    assert check_table_jacobi(off_line) is None


def test_difference_bracket():
    sl2 = builtin_algebra("sl2")
    T = make_difference_bracket(sl2, parse_poly("t^2"), parse_poly("t^2+t"))
    assert check_table_antisymmetry(T)
    assert check_table_jacobi(T) is None
    with pytest.raises(InputError):
        make_difference_bracket(sl2, parse_poly("t^2"), parse_poly("t^2+t^2"))
    with pytest.raises(InputError):
        make_difference_bracket(sl2, parse_poly("t^3"), parse_poly("t^2"))
    with pytest.raises(InputError, match="differ"):  # the zero bracket
        make_difference_bracket(sl2, parse_poly("t^2"), parse_poly("t^2"))
    with pytest.raises(InputError, match="monic"):
        make_difference_bracket(sl2, parse_poly("t^2"), parse_poly("2t^2"))


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["sl2", "gl2", "takiff:sl2:2", "sum:sl2,abelian:1"]),
    st.lists(small_fractions, min_size=1, max_size=3),
    st.lists(small_fractions, min_size=3, max_size=3),
    st.one_of(st.just(Fraction(0)), small_fractions),
    st.one_of(st.just(Fraction(0)), small_fractions),
)
@example("sl2", [Fraction(1, 3), Fraction(1, 2)], [Fraction(0)] * 3, Fraction(1, 2), Fraction(1, 2))
@example("gl2", [Fraction(1, 2)], [Fraction(1, 3)] * 3, Fraction(0), Fraction(3))
@example("gl2", [Fraction(1, 2)], [Fraction(1, 3)] * 3, Fraction(3), Fraction(0))
def test_pencil_combination_matches_the_fraction_merge(qname, low1, low2, a, b):
    # ends: quotients by two monic moduli of one degree with small rational
    # coefficients, so that D > 1 occurs; a or b may be 0
    q = builtin_algebra(qname)
    t1 = make_quotient(q, UniPoly.make(low1 + [1]))
    t2 = make_quotient(q, UniPoly.make(low2[:len(low1)] + [1]))
    got = pencil_combination(t1, t2, a, b)
    assert _entries(got) == _entries(reference_pencil(t1, t2, a, b))
    assert check_table_antisymmetry(got)


def test_pencil_combination_cancels_to_the_canonical_denominator():
    T = make_quotient(builtin_algebra("sl2"), parse_poly("t^2+1/3*t+1/2"))
    assert T.scaled_neighbours[0] == 6
    half = Fraction(1, 2)
    assert _entries(pencil_combination(T, T, half, half)) == _entries(T)
    assert _entries(pencil_combination(T, T, 1, -1)) == (1, {})


def test_antisymmetry_reads_both_orders_of_the_index():
    def table():
        return make_quotient(builtin_algebra("sl2"), parse_poly("t^2"))

    assert check_table_antisymmetry(table())
    # one order of one entry changed
    T = table()
    D, index = T.scaled_neighbours
    u = next(iter(index))
    (v, ((w, c), *rest)), *others = index[u]
    T.scaled_neighbours = (D, {**index, u: ((v, ((w, c + 1), *rest)), *others)})
    assert not check_table_antisymmetry(T)
    # an added [x_u, x_u]
    T = table()
    D, index = T.scaled_neighbours
    T.scaled_neighbours = (D, {**index, u: index[u] + ((u, ((w, 1),)),)})
    assert not check_table_antisymmetry(T)


# ---------------------------------------------------------------------------
# Chinese remainder data


def test_crt_idempotents_identities():
    p = parse_poly("t^3-t")
    roots = (Fraction(-1), Fraction(0), Fraction(1))
    idems = crt_idempotents(p, roots)
    total = UniPoly.zero()
    for i, r in enumerate(idems):
        assert (r * r - r).mod(p).is_zero()
        assert r.eval(roots[i]) == 1
        total = total + r
    assert (total - UniPoly.one()).mod(p).is_zero()
    for i in range(3):
        for j in range(3):
            if i != j:
                assert (idems[i] * idems[j]).mod(p).is_zero()


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5),
                min_size=1, max_size=5, unique=True))
@example([Fraction(0), Fraction(1, 2)])
@settings(max_examples=40, deadline=None)
def test_crt_idempotents_match_the_lagrange_reference(roots):
    p = UniPoly.from_roots(roots)
    assert crt_idempotents(p, roots) == reference_crt_idempotents(p, roots)


def test_crt_idempotents_refuse_repeated_or_foreign_roots():
    with pytest.raises(InputError):
        crt_idempotents(UniPoly.from_roots([1, 1]), [1, 1])
    with pytest.raises(InputError):
        crt_idempotents(parse_poly("t^2-1"), [1, 2])


def test_crt_primary_repeated_roots():
    # (t-1)^2 (t+2): the repeated root carries a nilpotent part
    p = UniPoly.from_roots([1, 1, -2])
    comps = crt_primary(p, ((Fraction(1), 2), (Fraction(-2), 1)))
    total = UniPoly.zero()
    for c in comps:
        assert (c.r0 * c.r0 - c.r0).mod(p).is_zero()
        assert c.r1 == ((UniPoly.t() - UniPoly.make([c.root])) * c.r0).mod(p)
        total = total + c.r0
    assert (total - UniPoly.one()).mod(p).is_zero()
    c1 = comps[0]
    assert c1.mult == 2
    assert not c1.r1.is_zero()
    assert (c1.r1 * c1.r1).mod(p).is_zero()
    c2 = comps[1]
    assert c2.mult == 1
    assert c2.r1.mod(p).is_zero()


# ---------------------------------------------------------------------------
# sampled index


def test_index_oracles():
    sl2 = builtin_algebra("sl2")
    assert index_report(sl2).index == 1
    assert index_report(builtin_algebra("sl3")).index == 2
    assert index_report(builtin_algebra("abelian:3")).index == 3
    assert index_report(make_quotient(sl2, parse_poly("t^3"))).index == 3
    assert index_report(make_quotient(sl2, parse_poly("t^2-1"))).index == 2


def test_index_difference_brackets():
    sl2 = builtin_algebra("sl2")
    T2 = make_difference_bracket(sl2, parse_poly("t^2"), parse_poly("t^2+t"))
    assert index_report(T2).index == 4
    T3 = make_difference_bracket(sl2, parse_poly("t^3"), parse_poly("t^3+t"))
    assert index_report(T3).index == 5


def test_index_report_fields():
    sl2 = builtin_algebra("sl2")
    rep = index_report(sl2, seed=7)
    assert rep.dim == 3
    assert rep.rank == 2
    assert rep.index == 1
    assert rep.seed == 7
    assert rep.rounds >= 1
    assert len(rep.witness) == 3
    # same seed, same witness
    rep2 = index_report(sl2, seed=7)
    assert rep2.witness == rep.witness


def _member(qname, p1, p2, a):
    q = builtin_algebra(qname)
    t1, t2 = make_quotient(q, parse_poly(p1)), make_quotient(q, parse_poly(p2))
    return pencil_combination(t1, t2, a, 1 - a)


ORACLE_TABLES = {
    "sl2 t^2": lambda: make_quotient(builtin_algebra("sl2"), parse_poly("t^2")),
    "sl3 t^3-t": lambda: make_quotient(builtin_algebra("sl3"), parse_poly("t^3-t")),
    "sl4 t^2+1": lambda: make_quotient(builtin_algebra("sl4"), parse_poly("t^2+1")),
    "sl4 t^2 - t^2+t": lambda: make_difference_bracket(
        builtin_algebra("sl4"), parse_poly("t^2"), parse_poly("t^2+t")),
    "sl3 t^4 - t^4+1": lambda: make_difference_bracket(
        builtin_algebra("sl3"), parse_poly("t^4"), parse_poly("t^4+1")),
    "abelian:3": lambda: wrap_algebra(builtin_algebra("abelian:3")),
    "takiff:sl2:2": lambda: wrap_algebra(builtin_algebra("takiff:sl2:2")),
    "sl3 member a=7919/1009": lambda: _member("sl3", "t^2", "t^2+t", Fraction(7919, 1009)),
    # PRIME divides D: rows that vanish mod PRIME need not once cleared
    "sl3 member a=1/PRIME": lambda: _member("sl3", "t^2", "t^2+t", Fraction(1, PRIME)),
}


@pytest.mark.parametrize("case", list(ORACLE_TABLES))
def test_index_report_matches_the_exact_sampling_oracle(case):
    # ranks taken mod p steer the sampling exactly as exact ranks did
    T = ORACLE_TABLES[case]()
    vs = T.var_list()

    def matrix(point):
        return reference_structure_matrix(T, dict(zip(vs, point)))

    for seed in range(12):
        rep = index_report(T, seed=seed)
        got = (rep.rank, rep.witness, rep.bound, rep.rounds)
        assert got == reference_sampled_max_rank(matrix, T.dim_total, seed=seed)
    if case == "abelian:3":
        assert rep.rank == 0


@pytest.mark.parametrize("case", list(ORACLE_TABLES))
def test_packed_sample_ranks_match_rank_mod_p_of_the_structure_matrix(case):
    T = ORACLE_TABLES[case]()
    vs = T.var_list()
    rank_at = _structure_ranks_mod_p(T)
    rng = random.Random(case)
    points = [tuple(rng.randint(-bound, bound) for _ in vs)
              for bound in (1000, 1000, PRIME, 2**70)]
    # every coordinate a multiple of PRIME, so every row vanishes mod PRIME
    points.append(tuple(PRIME * rng.randint(-3, 3) for _ in vs))
    points.append(tuple(PRIME * rng.randint(-3, 3) + (k == 0) for k in range(len(vs))))
    got = []
    for pt in points:
        got.append(rank_at(pt))
        assert got[-1] == reference_rank_mod_p(structure_matrix_at(T, dict(zip(vs, pt))))
    if case == "sl3 member a=1/PRIME":
        # PRIME divides D: at the point of multiples of PRIME every row of
        # D * M vanishes mod PRIME, yet the rows cleared to integers do not
        assert T.scaled_neighbours[0] % PRIME == 0 and got[-2] > 0


def _counted_structure_matrices(monkeypatch):
    calls = []

    def counted(T, point):
        calls.append(point)
        return _structure_upper(T, point)

    monkeypatch.setattr(liecore, "_structure_upper", counted)
    return calls


def test_index_report_builds_the_structure_matrix_only_at_the_witness(monkeypatch):
    T = make_quotient(builtin_algebra("gl4"), parse_poly("t^4-t"))
    calls = _counted_structure_matrices(monkeypatch)
    rep = index_report(T, seed=0)
    assert calls == [rep.witness]
    assert all(type(x) is int for x in calls[0])
    assert rep.index == 16


def test_index_report_builds_no_structure_matrix_at_full_rank(monkeypatch):
    # the 2-dimensional Frobenius algebra [x, y] = y has index 0
    aff = LieAlgebra("aff1", ("x", "y"), ((0, 1, ((1, Fraction(1)),)),))
    calls = _counted_structure_matrices(monkeypatch)
    for T in (wrap_algebra(aff), make_quotient(aff, parse_poly("t^2+1"))):
        assert index_report(T, seed=0).index == 0
    assert calls == []


def _refuse(*args):
    raise AssertionError("index_report reached the general exact rank or a QMatrix")


@pytest.mark.parametrize("case", list(ORACLE_TABLES))
def test_index_report_ranks_the_witness_without_bareiss_or_qmatrix(case, monkeypatch):
    T = ORACLE_TABLES[case]()
    want = [index_report(T, seed=seed) for seed in range(3)]
    # liecore holds no binding of its own, so every call would go through here
    assert not hasattr(liecore, "rank")
    monkeypatch.setattr(exactla, "rank", _refuse)
    monkeypatch.setattr(liecore, "structure_matrix_at", _refuse)
    monkeypatch.setattr(QMatrix, "__post_init__", _refuse)
    assert [index_report(T, seed=seed) for seed in range(3)] == want


WITNESS_TABLES = {
    # the six index_report calls of the elimination benchmark workload
    "sl4 t^3+t+1": lambda: make_quotient(builtin_algebra("sl4"), parse_poly("t^3+t+1")),
    "sl5 t^2-t": lambda: make_quotient(builtin_algebra("sl5"), parse_poly("t^2-t")),
    "gl4 t^4-t": lambda: make_quotient(builtin_algebra("gl4"), parse_poly("t^4-t")),
    "sl3 t^6-t": lambda: make_quotient(builtin_algebra("sl3"), parse_poly("t^6-t")),
    "sl4 t^2 - t^2+t": ORACLE_TABLES["sl4 t^2 - t^2+t"],
    "sl3 t^4 - t^4+1": ORACLE_TABLES["sl3 t^4 - t^4+1"],
    "sl3 member a=1/PRIME": ORACLE_TABLES["sl3 member a=1/PRIME"],
}


@pytest.mark.parametrize("case", list(WITNESS_TABLES))
def test_witness_rank_skew_matches_bareiss(case):
    T = WITNESS_TABLES[case]()
    vs = T.var_list()
    rep = index_report(T, seed=0)
    upper = _structure_upper(T, tuple(map(int, rep.witness)))
    assert all(type(x) is int for row in upper for x in row)
    m = structure_matrix_at(T, dict(zip(vs, rep.witness)))
    assert rank_skew(upper) == rank(m) == rep.rank
    # D * L > 1: a rational point, scaled by L to integers, over D * L
    rng = random.Random(case)
    point = {w: Fraction(rng.randint(-50, 50), rng.randint(1, 7)) for w in vs}
    L = math.lcm(*(x.denominator for x in point.values()))
    D = T.scaled_neighbours[0]
    assert D * L > 1
    scaled = [int(point[w] * L) for w in vs]
    assert rank_skew(_structure_upper(T, scaled)) == rank(structure_matrix_at(T, point))
    if case == "sl3 member a=1/PRIME":
        assert D % PRIME == 0
        assert rank_skew(upper) == len(reference_rref(matrix_rows(m))[1])


def _refuse_bareiss(*args):
    raise AssertionError("a structure matrix kernel reached Bareiss elimination")


@pytest.mark.parametrize("case", list(ORACLE_TABLES))
def test_structure_kernels_are_pfaffian_and_match_the_reference(case, monkeypatch):
    T = ORACLE_TABLES[case]()
    vs = T.var_list()
    rep = index_report(T, seed=0)
    # the witness, and a rational point (D * L > 1)
    rng = random.Random(case)
    point = {w: Fraction(rng.randint(-50, 50), rng.randint(1, 7)) for w in vs}
    assert T.scaled_neighbours[0] * math.lcm(*(x.denominator for x in point.values())) > 1
    mats = [structure_matrix_at(T, dict(zip(vs, rep.witness))), structure_matrix_at(T, point)]
    wants = [reference_nullspace(matrix_rows(m), m.cols) for m in mats]
    assert len(wants[0]) == rep.index
    monkeypatch.setattr(exactla, "_echelon", _refuse_bareiss)
    for m, want in zip(mats, wants):
        assert repr(nullspace(m)) == repr(want)


@pytest.mark.parametrize("case", list(ORACLE_TABLES))
def test_structure_matrix_matches_the_fraction_reference(case):
    T = ORACLE_TABLES[case]()
    D = T.scaled_neighbours[0]
    assert (D > 1) == case.startswith("sl3 member")
    vs = T.var_list()
    rng = random.Random(case)
    for _ in range(3):
        ints = dict(zip(vs, (rng.randint(-1000, 1000) for _ in vs)))
        got = structure_matrix_at(T, ints)
        assert got == reference_structure_matrix(T, ints)
        if D == 1:
            assert all(type(x) is int for x in got.entries)
        points = [
            {w: Fraction(x) for w, x in ints.items()},
            # some variables left out, mixed denominators
            {w: Fraction(rng.randint(-50, 50), rng.randint(1, 7)) for w in vs[::2]},
        ]
        for point in points:
            assert structure_matrix_at(T, point) == reference_structure_matrix(T, point)


@pytest.mark.parametrize("name", [
    "sl2", "sl3", "sl4", "gl2", "gl3", "sum:sl2,gl2", "abelian:3", "takiff:sl2:2",
    "sl4 t^2 - t^2+t", "sl3 t^4 - t^4+1",
    # every table the jacobi suite scans, and the index-laws differences
    *(f"{qa} {p}" for qa in suites.DEFAULTS["jacobi"]["algebras"]
      for p in suites.DEFAULTS["jacobi"]["moduli"]),
    *(f"{qa} {p1} - {p2}" for qa, p1, p2 in suites.DEFAULTS["index-laws"]["difference_cases"]),
])
def test_jacobi_scan_passes_with_the_reference(name):
    if name in ORACLE_TABLES:
        T = ORACLE_TABLES[name]()
    elif " - " in name:
        qa, p1, _, p2 = name.split()
        T = make_difference_bracket(builtin_algebra(qa), parse_poly(p1), parse_poly(p2))
    elif " " in name:
        T = _jacobi_quotient(name)
    else:
        T = wrap_algebra(builtin_algebra(name))
    assert check_table_jacobi(T) is None
    assert reference_jacobi(T) is None


def _planted(order, N, spare):
    """A table on N variables of an abelian algebra with only
    [x_a, x_b] = x_c and [x_c, x_d] = x_e, (a, b, d) = order and
    (c, e) = spare: Jacobi fails exactly on the triples {a, b, d}."""
    a, b, d = order
    c, e = spare
    table = {}
    for (x, y), w in (((a, b), c), ((c, d), e)):
        sign = 1 if x < y else -1
        table[(min(x, y), 0), (max(x, y), 0)] = (((w, 0), Fraction(sign)),)
    return FractionTable(make_abelian(N), 1, table)


@pytest.mark.parametrize("triple, spare", [
    ((0, 1, 2), (7, 8)),  # the first triple
    ((2, 4, 6), (3, 8)),  # a middle one
    ((6, 7, 8), (0, 1)),  # the last one
])
def test_jacobi_scan_finds_a_planted_violation(triple, spare):
    N = 9
    for order in itertools.permutations(triple):
        T = _planted(order, N, spare)
        want = tuple(T.unflat(k) for k in sorted(triple))
        assert reference_jacobi(T) == want
        assert check_table_jacobi(T) == want


@functools.cache
def _jacobi_quotient(case):
    qname, ptxt = case.split()
    return make_quotient(builtin_algebra(qname), parse_poly(ptxt))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["sl3 t^2", "sl3 t^3-t", "sl4 t^2+1"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
)
def test_jacobi_scan_finds_the_reference_first_triple(case, i, j, delta):
    # one stored coefficient moved by delta (to zero, possibly)
    T = _jacobi_quotient(case)
    table = dict(T.table)
    key = sorted(table)[i % len(table)]
    ent = list(table[key])
    w, c = ent[j % len(ent)]
    ent[j % len(ent)] = (w, c + delta)
    table[key] = tuple(ent)
    bad = FractionTable(T.base, T.n, table)
    assert check_table_jacobi(bad) == reference_jacobi(bad)


def test_wrap_algebra_matches_quotient_by_t():
    sl2 = builtin_algebra("sl2")
    assert wrap_algebra(sl2) == make_quotient(sl2, parse_poly("t"))


def test_matrix_algebras_keep_their_structure_constants():
    # sha256 taken when the brackets were dense n x n matrix products
    algebras = [make_sl(n) for n in range(2, 6)] + [make_gl(n) for n in range(2, 6)]
    text = repr([(q.sc, q.form.entries) for q in algebras])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9a5a7c217966370c4e9e39ecf73be1b40c9955e0b781e0295a7588c0f4601f26"
    )


@pytest.mark.parametrize("name, digest", [
    # sha256 taken when _char_invariants rebuilt the basis matrices itself
    ("sl2", "70d5e2c431f39fd4739592ad7dd88858b0d71514be55d7d20bfd19cd0fe06812"),
    ("sl3", "aea250009b77707b39adc6ba446ac09cecdb09b4fb78d217424db12a3e5ca404"),
    ("sl4", "853a49fb5a75ea0b50538eec870bc95b0db9a2d033e60374edbff49593cdc065"),
    ("sl5", "2624b63fe2d3489ac6aa968aef0fa163857bfc2a057be32cd3a4ad2e3df19a7b"),
    ("gl2", "b659b398891a5bbc41246b31a131e75b2cb663b333ec24ea2dc4649a028fabff"),
    ("gl3", "523217c22d2d344b0d42b9b239d8da077477e630d464760d88e08e17d5231347"),
    ("gl4", "23bba740f3fb4179607cd776c416ff26676ac71853c63b29e92e3a55765436a0"),
])
def test_char_invariants_read_the_builtin_basis(name, digest):
    text = repr(basic_invariants(builtin_algebra(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest

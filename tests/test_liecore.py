"""Polynomials, Lie algebra data, quotient brackets, index sampling."""
import functools
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glab.exactla import BudgetError, InputError
from glab.liecore import (
    BracketTable,
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
    make_difference_bracket,
    make_direct_power,
    make_gl,
    make_quotient,
    make_sl,
    make_takiff,
    parse_poly,
    pencil_combination,
    poly_egcd,
    rational_roots,
    structure_matrix_at,
    wrap_algebra,
)
from glab.invariantlab import _slot_gram, basic_invariants
from oracle import reference_jacobi, reference_sampled_max_rank, reference_structure_matrix

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
    for x in (Fraction(0), Fraction(1), Fraction(-2)):
        assert p.shift(c).eval(x) == p.eval(x + c)


def test_pow():
    t = UniPoly.t()
    assert t ** 3 == UniPoly.monomial(3)
    assert (t + UniPoly.one()) ** 2 == parse_poly("t^2+2t+1")
    with pytest.raises(InputError):
        t ** -1


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


def test_algebra_json_jacobi_scan_is_budgeted(monkeypatch):
    # sl3 has 8 * 7 * 6 / 6 = 56 basis triples; a broken constant would be
    # an InputError, so the BudgetError shows the scan never started
    bad = algebra_to_json(builtin_algebra("sl3"))
    bad["sc"][0][3] = "5"
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "55")
    with pytest.raises(BudgetError, match="more than 55 triples"):
        algebra_from_json(bad)
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "56")
    with pytest.raises(InputError, match="Jacobi identity fails"):
        algebra_from_json(bad)


def test_algebra_hash_is_cached_and_follows_equality():
    a, b = builtin_algebra("sl4"), builtin_algebra("sl4")
    assert a is not b and a == b and hash(a) == hash(b)
    q = algebra_from_json(algebra_to_json(a))
    assert q == a and hash(q) == hash(a)
    assert _slot_gram(q, 1) is _slot_gram(a, 1)  # one cache entry for both
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
    assert T.pair_bracket((0, 1), (2, 1)) == ()
    assert dict(T.pair_bracket((0, 0), (2, 1))) == {(1, 1): Fraction(1)}
    assert check_table_antisymmetry(T)
    assert check_table_jacobi(T) is None


def test_quotient_reduction_wraps():
    sl2 = builtin_algebra("sl2")
    T = make_quotient(sl2, parse_poly("t^2-1"))
    # degree 2 reduces to the constant slot
    assert dict(T.pair_bracket((0, 1), (2, 1))) == {(1, 0): Fraction(1)}


def test_quotient_input_checks():
    sl2 = builtin_algebra("sl2")
    with pytest.raises(InputError):
        make_quotient(sl2, UniPoly.make([2, 0, 2]))
    with pytest.raises(InputError):
        make_quotient(sl2, UniPoly.one())


def test_flat_unflat_round_trip():
    sl2 = builtin_algebra("sl2")
    T = make_quotient(sl2, parse_poly("t^3"))
    for k in range(T.dim_total):
        assert T.flat(T.unflat(k)) == k
    assert T.var_label((0, 2)) == "e.t2"


def test_direct_power_blocks():
    sl2 = builtin_algebra("sl2")
    T = make_direct_power(sl2, 2)
    assert dict(T.pair_bracket((0, 0), (2, 0))) == {(1, 0): Fraction(1)}
    assert T.pair_bracket((0, 0), (2, 1)) == ()
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
    assert off_line.p is None
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
])
def test_jacobi_scan_passes_with_the_reference(name):
    T = (ORACLE_TABLES[name]() if name in ORACLE_TABLES
         else wrap_algebra(builtin_algebra(name)))
    assert check_table_jacobi(T) is None
    assert reference_jacobi(T) is None


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
    bad = BracketTable(T.base, T.n, table, p=T.p)
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

"""Exact linear algebra over the rationals."""
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glab.exactla import (
    PRIME,
    InputError,
    QMatrix,
    RowSpace,
    det,
    mat_inv,
    mat_mul,
    nullspace,
    rank,
    rank_mod_p,
    rat,
    rat_str,
    row_space,
    rref,
    solve,
)
from glab.liecore import (
    builtin_algebra,
    index_report,
    make_quotient,
    parse_poly,
    sampled_max_rank,
    structure_matrix_at,
)
from oracle import reference_kron, reference_nullspace, reference_rref

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


def matrices(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r, max_size=r,
            )
        )
    ).map(QMatrix.from_rows)


@st.composite
def awkward_rows(draw, max_side=6):
    """Rows with mixed denominators, tall or wide, plus zero, repeated and
    rescaled rows inserted anywhere."""
    nr = draw(st.integers(1, max_side))
    nc = draw(st.integers(1, max_side))
    entry = st.one_of(st.just(Fraction(0)), rationals)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "repeat", "rescale")))
        src = draw(st.sampled_from(rows))
        if kind == "zero":
            extra = [Fraction(0)] * nc
        elif kind == "repeat":
            extra = list(src)
        else:
            extra = [draw(rationals) * x for x in src]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(-2) == Fraction(-2)
    assert rat_str(Fraction(5)) == "5"
    assert rat_str(Fraction(-1, 3)) == "-1/3"
    with pytest.raises(InputError):
        rat("x")


def test_matrix_basics():
    m = QMatrix.from_rows([[1, 2], [3, 4]])
    assert m.at(1, 0) == 3
    assert m.transpose().at(0, 1) == 3
    assert QMatrix.identity(3).at(2, 2) == 1
    assert QMatrix.zero(2, 3).rows == 2
    with pytest.raises(InputError):
        QMatrix.from_rows([[1], [2, 3]])


def _det_cofactor(m):
    if m.rows == 1:
        return m.at(0, 0)
    total = Fraction(0)
    for j in range(m.cols):
        sub = QMatrix.from_rows([
            [m.at(i, k) for k in range(m.cols) if k != j]
            for i in range(1, m.rows)
        ])
        sign = -1 if j % 2 else 1
        total += sign * m.at(0, j) * _det_cofactor(sub)
    return total


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )
))
@settings(max_examples=60, deadline=None)
def test_det_matches_cofactor_expansion(rows):
    m = QMatrix.from_rows(rows)
    assert det(m) == _det_cofactor(m)


def test_det_requires_square():
    with pytest.raises(InputError):
        det(QMatrix.from_rows([[1, 2]]))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(m):
    assert rank(m) + len(nullspace(m)) == m.cols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_annihilates(m):
    for vec in nullspace(m):
        for i in range(m.rows):
            assert sum(m.at(i, j) * vec[j] for j in range(m.cols)) == 0


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_rref_idempotent(m):
    rows1, piv1 = rref(m.row_lists())
    rows2, piv2 = rref(rows1)
    assert rows1 == rows2
    assert piv1 == piv2


def test_solve_consistent_and_inconsistent():
    m = QMatrix.from_rows([[1, 1], [1, -1]])
    sol = solve(m, [2, 0])
    assert sol == (Fraction(1), Fraction(1))
    m2 = QMatrix.from_rows([[1, 1], [2, 2]])
    assert solve(m2, [1, 3]) is None
    # underdetermined: free variables pinned to zero
    m3 = QMatrix.from_rows([[1, 1]])
    sol3 = solve(m3, [5])
    assert sol3 is not None
    assert sum(sol3) == 5


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_rowspace_dim_equals_rank(m):
    rs = RowSpace(m.cols)
    for row in m.row_lists():
        rs.add(row)
    assert rs.dim == rank(m)


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_row_space_kernel_equals_nullspace(m):
    assert row_space(m.row_lists(), m.cols).kernel() == nullspace(m)


def test_rowspace_contains():
    rs = RowSpace(3)
    rs.add([1, 0, 1])
    rs.add([0, 1, 1])
    assert rs.contains([1, 1, 2])
    assert not rs.contains([1, 1, 0])
    assert rs.add([1, 1, 2]) is False
    assert rs.dim == 2


def test_mat_mul_and_inv():
    a = QMatrix.from_rows([[2, 1], [1, 1]])
    inv = mat_inv(a)
    assert mat_mul(a, inv) == QMatrix.identity(2)
    with pytest.raises(InputError):
        mat_inv(QMatrix.from_rows([[1, 1], [2, 2]]))


def test_kron_block_structure():
    a = QMatrix.from_rows([[1, 2], [3, 4]])
    b = QMatrix.from_rows([[0, 5], [6, 7]])
    k = reference_kron(a, b)
    assert k.rows == 4 and k.cols == 4
    for i, j, p, q in itertools.product(range(2), repeat=4):
        assert k.at(2 * i + p, 2 * j + q) == a.at(i, j) * b.at(p, q)


@given(matrices(3), matrices(3))
@settings(max_examples=30, deadline=None)
def test_kron_rank_multiplicative(a, b):
    assert rank(reference_kron(a, b)) == rank(a) * rank(b)


@given(awkward_rows())
@settings(max_examples=120, deadline=None)
def test_elimination_matches_fraction_oracle(rows):
    m = QMatrix.from_rows(rows)
    want_rows, want_pivots = reference_rref(rows)
    assert rref(rows) == (want_rows, want_pivots)
    assert rank(m) == len(want_pivots)
    assert nullspace(m) == reference_nullspace(rows, m.cols)
    if m.is_square() and m.rows <= 5:
        assert det(m) == _det_cofactor(m)


@given(awkward_rows(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_and_inverse_match_fraction_oracle(rows, data):
    m = QMatrix.from_rows(rows)
    b = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    red, pivots = reference_rref([r + [x] for r, x in zip(rows, b)])
    if m.cols in pivots:
        assert solve(m, b) is None
    else:
        want = [Fraction(0)] * m.cols
        for r, pc in zip(red, pivots):
            want[pc] = r[m.cols]
        assert solve(m, b) == tuple(want)
    if m.is_square():
        n = m.rows
        eye = QMatrix.identity(n).row_lists()
        red, pivots = reference_rref([r + e for r, e in zip(rows, eye)])
        if pivots[:n] == list(range(n)):
            assert mat_inv(m) == QMatrix.from_rows([r[n:] for r in red])
        else:
            with pytest.raises(InputError):
                mat_inv(m)


@given(awkward_rows())
@settings(max_examples=120, deadline=None)
def test_rowspace_matches_fraction_oracle(rows):
    width = len(rows[0])
    rs = RowSpace(width)
    for k, row in enumerate(rows):
        grows = len(reference_rref(rows[: k + 1])[1]) > rs.dim
        assert rs.add(row) is grows
    want = reference_rref(rows)[0]
    assert rs.basis() == [tuple(r) for r in want]
    assert rs.kernel() == reference_nullspace(rows, width)
    assert all(rs.contains(row) for row in rows)


@given(awkward_rows())
@settings(max_examples=60, deadline=None)
def test_row_space_stops_reading_at_full_rank(rows):
    width = len(rows[0])
    full = len(reference_rref(rows)[1]) == width
    read = []

    def stream():
        for row in rows:
            read.append(row)
            yield row
        if full:  # a spanning family never gets here
            raise AssertionError("row_space read past full rank")

    rs = row_space(stream(), width)
    assert rs.basis() == [tuple(r) for r in reference_rref(rows)[0]]
    assert rs.kernel() == reference_nullspace(rows, width)
    if full:
        assert len(reference_rref(read)[1]) == width
        assert len(reference_rref(read[:-1])[1]) < width


def test_elimination_agrees_with_sympy():
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    T = make_quotient(builtin_algebra("gl4"), parse_poly("t^4-t"))
    point = dict(zip(T.var_list(), index_report(T, seed=0).witness))
    rng = random.Random(0)
    mats = [
        QMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        QMatrix.from_rows([[2, -1, 0, 3], [0, 0, 0, 0], [5, 1, 1, -2], [2, -1, 0, 3]]),
        QMatrix.from_rows([[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]),
        QMatrix.from_rows([[rng.randint(-3, 3) for _ in range(9)] for _ in range(5)]),
        structure_matrix_at(T, point),  # the 64 x 64 stabilizer matrix
    ]
    assert mats[-1].rows == mats[-1].cols == 64
    for m in mats:
        dm = DomainMatrix(
            [[QQ(x.numerator, x.denominator) for x in m.row(i)] for i in range(m.rows)],
            (m.rows, m.cols), QQ,
        )
        assert rank(m) == dm.rank()
        kernel, _ = dm.nullspace().rref()
        assert nullspace(m) == [tuple(Fraction(int(x.numerator), int(x.denominator))
                                      for x in r) for r in kernel.to_list()]
        if m.is_square():
            d = dm.det()
            assert det(m) == Fraction(int(d.numerator), int(d.denominator))


@st.composite
def mod_p_matrices(draw):
    """Tall or wide matrices with entries a + b * PRIME, integral or over
    denominators PRIME may divide: a row can vanish mod PRIME, a minor can
    be a multiple of it, and clearing a row can bring it back."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dens = draw(st.sampled_from(((1,), (1, 2, 3, PRIME, 2 * PRIME))))
    entry = st.builds(lambda a, b, d: Fraction(a + b * PRIME, d),
                      st.integers(-3, 3), st.integers(-2, 2), st.sampled_from(dens))
    return QMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                                           min_size=nr, max_size=nr)))


@settings(max_examples=150, deadline=None)
@given(mod_p_matrices())
def test_rank_mod_p_is_a_lower_bound_equal_to_sympy_over_gf_p(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    r = rank_mod_p(m)
    assert r <= rank(m)
    K = sympy.GF(PRIME)
    cleared = []
    for i in range(m.rows):
        row = m.row(i)
        lcm = math.lcm(*[x.denominator for x in row])
        cleared.append([K(int(x * lcm)) for x in row])
    assert r == DomainMatrix(cleared, (m.rows, m.cols), K).rank()


def test_rank_mod_p_falls_short_where_prime_divides_the_minors():
    assert rank_mod_p(QMatrix.from_rows([[1, 1], [1, 1 + PRIME]])) == 1
    assert rank(QMatrix.from_rows([[1, 1], [1, 1 + PRIME]])) == 2
    # clearing the row's denominators keeps the rank
    assert rank_mod_p(QMatrix.from_rows([[Fraction(1, PRIME), 1]])) == 1
    assert rank_mod_p(QMatrix.from_rows([[PRIME, 0], [0, PRIME * PRIME]])) == 0


@settings(max_examples=40, deadline=None)
@given(matrices(max_side=5))
def test_sampled_max_rank_is_exact_at_the_witness(a):
    # every sample is p * A, so every mod-p rank is 0 and only the exact
    # rank of the witness's matrix can report rank(A)
    pa = QMatrix(a.rows, a.cols, tuple(PRIME * x for x in a.entries))
    points = []

    def matrix_at(point):
        points.append(point)
        return pa

    assert rank_mod_p(pa) == 0
    r, witness, bound, rounds = sampled_max_rank(matrix_at, 3, seed=5)
    assert r == rank(a)
    assert witness == tuple(Fraction(x) for x in points[0])
    assert (bound, rounds, len(points)) == (1000, 1, 8)


@pytest.mark.parametrize("qname, ptxt, digest", [
    # sha256 taken when the kernel was re-reduced by a second elimination
    ("sl4", "t^3+t+1", "2f567794c689bc22575a05aa0bc06a6e48119779ad9ef5618196f028cb1bee36"),
    ("sl5", "t^2-t", "2bac78a269889579c139d2d4c933cb38193ea4a09eec939762628e82e1f6a2d9"),
    ("gl4", "t^4-t", "e8e56faa0ac598336bf81b0ed17eedde40d1b6e5576f92603ebb0c382a89d7a8"),
    ("sl3", "t^6-t", "c81fe0f88c04df595dd133f378560cef03cbada6c316c4aab987cff39e00aa2e"),
])
def test_stabilizer_kernels_are_pinned(qname, ptxt, digest):
    T = make_quotient(builtin_algebra(qname), parse_poly(ptxt))
    point = dict(zip(T.var_list(), index_report(T, seed=0).witness))
    text = repr(nullspace(structure_matrix_at(T, point)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_kernel_edge_cases_match_the_reference():
    def eye(n):
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]

    cases = [
        QMatrix.zero(3, 4),  # the identity rows, in order
        QMatrix.from_rows([[1, 2], [3, 4], [5, 6]]),  # full column rank
        QMatrix(2, 0, ()),  # zero width
        QMatrix(0, 3, ()),  # no rows
        QMatrix.from_rows([[0, 1, 2, 0], [0, 2, 4, 0]]),  # zero first and last column
        QMatrix.from_rows([[0, 0, 3], [0, 0, -1]]),
    ]
    for m in cases:
        assert repr(nullspace(m)) == repr(reference_nullspace(m.row_lists(), m.cols))
    assert nullspace(cases[0]) == eye(4)
    assert nullspace(cases[1]) == nullspace(cases[2]) == []
    assert nullspace(cases[3]) == eye(3)
    assert RowSpace(3).kernel() == eye(3) == reference_nullspace([], 3)
    rs = RowSpace(4)
    for r in cases[4].row_lists():
        rs.add(r)
    before = rs.basis()
    assert rs.kernel() == rs.kernel() == nullspace(cases[4])
    assert rs.basis() == before  # kernel() leaves the accepted rows as they were

"""Exact linear algebra over the rationals."""
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from glab import exactla
from glab.exactla import (
    PRIME,
    InputError,
    QMatrix,
    RowSpace,
    det,
    int_matrix,
    mat_inv,
    nullspace,
    packed_width,
    rank,
    rank_mod_p,
    rank_packed_mod_p,
    rank_skew,
    rat,
    rat_str,
    row_space,
    rref,
)
from glab.liecore import (
    _SAMPLES,
    builtin_algebra,
    index_report,
    make_quotient,
    parse_poly,
    sampled_max_rank,
    structure_matrix_at,
)
from oracle import (
    cleared_rows,
    matrix_rows,
    reference_kron,
    reference_mat_mul,
    reference_nullspace,
    reference_rank_mod_p,
    reference_rref,
    reference_sample_loop,
)

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
    assert [m.row(i) for i in range(m.rows)] == [[1, 2], [3, 4]]
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


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_int_matrix_clears_over_the_least_denominator(m):
    d, rows = int_matrix(m)
    assert [[Fraction(x, d) for x in r] for r in rows] == matrix_rows(m)
    assert d == math.lcm(*(Fraction(x).denominator for x in m.entries))


def test_det_requires_square():
    with pytest.raises(InputError):
        det(QMatrix.from_rows([[1, 2]]))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_transpose_invariant(m):
    transposed = QMatrix.from_rows([list(col) for col in zip(*matrix_rows(m))])
    assert rank(m) == rank(transposed)


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
    rows1, piv1 = rref(matrix_rows(m))
    rows2, piv2 = rref(rows1)
    assert rows1 == rows2
    assert piv1 == piv2


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_rowspace_dim_equals_rank(m):
    rs = RowSpace(m.cols)
    for row in matrix_rows(m):
        rs.add(row)
    assert rs.dim == rank(m)


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_row_space_kernel_equals_nullspace(m):
    assert row_space(matrix_rows(m), m.cols).kernel() == nullspace(m)


def test_rowspace_contains():
    rs = RowSpace(3)
    rs.add([1, 0, 1])
    rs.add([0, 1, 1])
    assert rs.add([1, 1, 2]) is False  # in the span: nothing is added
    assert rs.dim == 2
    assert rs.add([1, 1, 0]) is True
    assert rs.dim == 3


def test_mat_mul_and_inv():
    a = QMatrix.from_rows([[2, 1], [1, 1]])
    inv = mat_inv(a)
    assert reference_mat_mul(a, inv) == QMatrix.from_rows([[1, 0], [0, 1]])
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


@given(awkward_rows())
@settings(max_examples=80, deadline=None)
def test_inverse_matches_fraction_oracle(rows):
    m = QMatrix.from_rows(rows)
    if m.is_square():
        n = m.rows
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        red, pivots = reference_rref([r + e for r, e in zip(rows, eye)])
        if pivots[:n] == list(range(n)):
            assert mat_inv(m) == QMatrix.from_rows([r[n:] for r in red])
        else:
            with pytest.raises(InputError):
                mat_inv(m)


def _reduced_basis(rs):
    """rs.reduced() as Fraction rows, after checking its form: d > 0 and
    every pivot entry equal to d."""
    rows, d = rs.reduced()
    assert d > 0
    assert all(next(x for x in r if x) == d for r in rows)
    return [tuple(Fraction(x, d) for x in r) for r in rows]


@given(awkward_rows())
@settings(max_examples=120, deadline=None)
def test_rowspace_matches_fraction_oracle(rows):
    width = len(rows[0])
    rs = RowSpace(width)
    for k, row in enumerate(rows):
        grows = len(reference_rref(rows[: k + 1])[1]) > rs.dim
        assert rs.add(row) is grows
    want = reference_rref(rows)[0]
    assert _reduced_basis(rs) == [tuple(r) for r in want]
    assert rs.kernel() == reference_nullspace(rows, width)
    assert not any(rs.add(row) for row in rows)


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
    assert _reduced_basis(rs) == [tuple(r) for r in reference_rref(rows)[0]]
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
def planted_skew(draw):
    """(A, k): an integer skew-symmetric n x n matrix, n in 0..16, the sum
    of k terms c * (u v^T - v u^T), so of rank at most 2k; some indices
    are left out of every u and v (zero rows and columns), and c or the
    vector entries reach 2^70."""
    n = draw(st.integers(0, 16))
    k = draw(st.integers(0, n // 2))
    live = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    big = draw(st.sampled_from((9, 2**35, 2**70)))
    coord = st.integers(-big, big)
    A = [[0] * n for _ in range(n)]
    for _ in range(k):
        u = [draw(coord) if on else 0 for on in live]
        v = [draw(coord) if on and draw(st.booleans()) else 0 for on in live]
        c = draw(st.sampled_from((1, -1, 3, 2**70)))
        for i in range(n):
            for j in range(n):
                A[i][j] += c * (u[i] * v[j] - u[j] * v[i])
    return A, k


def _upper(A):
    return [A[i][i + 1:] for i in range(len(A))]


@settings(max_examples=150, deadline=None)
@given(planted_skew())
def test_rank_skew_matches_bareiss_and_the_fraction_reference(case):
    A, k = case
    r = rank_skew(_upper(A))
    assert r == rank(QMatrix.from_rows(A)) if A else r == 0
    assert r == len(reference_rref(A)[1])
    assert r <= 2 * k
    assert r % 2 == 0


def test_rank_skew_edge_cases():
    assert rank_skew([]) == 0
    assert rank_skew([[]]) == 0
    assert rank_skew([[0], []]) == 0
    assert rank_skew([[5], []]) == 2
    # a zero row met first (index 3), pivots found past it
    assert rank_skew([[1, 2, 0], [3, 0], [0], []]) == 2
    # a zero row met last (index 0)
    assert rank_skew([[0, 0, 0], [1, 0], [2], []]) == 2
    # rows 0 and 3 are nonzero only at each other: the pivot is the first
    # entry of row 3 and the last of row 0
    assert rank_skew([[0, 0, 7], [1, 0], [0], []]) == 4
    upper = [[1, 2, 3], [4, 5], [6], []]
    before = [list(r) for r in upper]
    assert rank_skew(upper) == 4
    assert upper == before
    with pytest.raises(InputError):
        rank_skew([[1, 2], [3]])
    with pytest.raises(InputError):
        rank_skew([[1], [2]])


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


def _sympy_rank_mod_p(m):
    """sympy's rank over GF(PRIME) of m with each row cleared to integers."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = sympy.GF(PRIME)
    cleared = []
    for i in range(m.rows):
        row = m.row(i)
        lcm = math.lcm(*[x.denominator for x in row])
        cleared.append([K(int(x * lcm) % PRIME) for x in row])
    return DomainMatrix(cleared, (m.rows, m.cols), K).rank()


@settings(max_examples=150, deadline=None)
@given(mod_p_matrices())
def test_rank_mod_p_is_a_lower_bound_equal_to_sympy_over_gf_p(m):
    # rank_mod_p ranks integer rows; the rows of m cleared to integers
    # keep its rank over Q, and the references clear them the same way
    r = rank_mod_p(cleared_rows(m), m.cols)
    assert r <= rank(m)
    assert r == reference_rank_mod_p(m)
    assert r == _sympy_rank_mod_p(m)


def _packed_boundary_cases(n):
    """Matrices of width n that push the packed fields of rank_mod_p:
    widest residues, entries at and far past PRIME, negatives, and rows
    that vanish mod PRIME only."""
    p = PRIME
    rng = random.Random(n)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    tall = min(n, 12) + 2

    def randrows(k, lo, hi):
        return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(k)]

    a = randrows(tall, -9, 9)
    b = randrows(n, -9, 9)
    k = max(tall // 3, 1)  # below tall and n: rank k
    low = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(tall)]
    vanish = randrows(tall, -p, p)
    for i in range(0, tall, 3):
        vanish[i] = [p * rng.randint(-5, 5) for _ in range(n)]
    vanish[1] = [p * (2 * j + 1) for j in range(n)]  # nonzero, 0 mod p
    return {
        "every residue p - 1": [[p - 1] * n for _ in range(n)],
        # residue p - 1 off the diagonal, p - 2 on it: -(J + I), det (-1)^n (n + 1)
        "full rank, residues p - 1 and p - 2": [[p - 1 - e for e in r] for r in eye],
        "full rank, random residues": randrows(n, 0, p - 1),
        "entries at and past PRIME": [[p * rng.randint(1, 9) + x for x in r] for r in eye]
        + randrows(3, p, 2**40),
        "negative entries": randrows(tall, -(p - 1), -1),
        "entries of +-2^70": [[rng.choice((-1, 1)) * 2**70 + rng.randint(-3, 3)
                               for _ in range(n)] for _ in range(tall)],
        "rank-deficient products": low,
        "rows that vanish mod p": vanish,
    }


@pytest.mark.parametrize("n", (1, 2, 3, 31, 32, 63, 64, 65, 127, 128))
def test_packed_rank_mod_p_at_field_boundaries(n):
    cases = _packed_boundary_cases(n)
    for name, rows in cases.items():
        want = reference_rank_mod_p(QMatrix.from_rows(rows))
        assert rank_mod_p(rows, n) == want, name
        assert rank_mod_p([r[::-1] for r in rows], n) == want, name
    assert rank_mod_p(cases["full rank, residues p - 1 and p - 2"], n) == n


@pytest.mark.parametrize("n", (1, 2, 3, 31, 32, 63, 64, 65, 127, 128))
def test_packed_rank_takes_unreduced_fields_up_to_ncols_prime_squared(n):
    # a sampled structure row is a sum of up to n products of residues, so
    # its fields reach n * PRIME^2 unreduced: lift every residue to the
    # largest field value below that bound with the same residue
    width = packed_width(n)
    top = n * PRIME * PRIME - 1
    for name, rows in _packed_boundary_cases(n).items():
        packed = [sum((e + PRIME * ((top - e) // PRIME)) << (width * c)
                      for c, e in enumerate(x % PRIME for x in r)) for r in rows]
        assert rank_packed_mod_p(packed, n) == reference_rank_mod_p(QMatrix.from_rows(rows)), name


@pytest.mark.parametrize("n", (1, 2, 3, 31, 32, 63, 64, 65, 127, 128))
def test_packed_rank_mod_p_at_field_boundaries_agrees_with_sympy(n):
    for name, rows in _packed_boundary_cases(n).items():
        if n > 65 and name == "full rank, random residues":
            continue  # sympy takes seconds on it; the reference test covers it
        assert rank_mod_p(rows, n) == _sympy_rank_mod_p(QMatrix.from_rows(rows)), name


@pytest.mark.parametrize("qname, ptxt", [
    ("sl4", "t^3+t+1"), ("sl5", "t^2-t"), ("gl4", "t^4-t"), ("sl3", "t^6-t"),
])
def test_rank_mod_p_of_the_stabilizer_samples_matches_the_reference(qname, ptxt):
    # the first batch pair sampled_max_rank draws for index_report at seed 0
    T = make_quotient(builtin_algebra(qname), parse_poly(ptxt))
    vs = T.var_list()
    rng = random.Random(0)
    for _ in range(8):
        point = dict(zip(vs, (rng.randint(-1000, 1000) for _ in vs)))
        m = structure_matrix_at(T, point)
        assert rank_mod_p(cleared_rows(m), m.cols) == reference_rank_mod_p(m)


def test_rank_mod_p_falls_short_where_prime_divides_the_minors():
    assert rank_mod_p([[1, 1], [1, 1 + PRIME]], 2) == 1
    assert row_space([[1, 1], [1, 1 + PRIME]], 2).dim == 2
    # a row that PRIME divides vanishes; it is not cleared back
    assert rank_mod_p([[PRIME, 0], [0, PRIME * PRIME]], 2) == 0
    # the row [1/PRIME, 1] cleared to integers is [1, PRIME]: it does not
    # vanish (clearing with a PRIME denominator is tested on
    # psring.cleared_jacobian and liecore._structure_ranks_mod_p)
    assert rank_mod_p([[1, PRIME]], 2) == 1


def test_rank_mod_p_refuses_rows_of_another_width():
    with pytest.raises(InputError):
        rank_mod_p([[1, 2], [3]], 2)
    with pytest.raises(InputError):
        rank_mod_p([[1, 2, 3]], 2)


@settings(max_examples=40, deadline=None)
@given(matrices(max_side=5))
def test_sampled_max_rank_is_exact_at_the_witness(a):
    # every sample is p * A cleared to integers, so every mod-p rank is 0
    # and only the exact rank of the witness's rows, read off their
    # RowSpace as pencilz.trdeg_estimate reads it, can report rank(A)
    pa = [[PRIME * x for x in r] for r in cleared_rows(a)]
    points, exact_points = [], []

    def rank_at(point):
        points.append(point)
        return rank_mod_p(pa, a.cols)

    def exact_rank_at(point):
        exact_points.append(point)
        return row_space(pa, a.cols).dim

    assert rank_mod_p(pa, a.cols) == 0
    r, witness, bound, rounds = sampled_max_rank(rank_at, 3, min(a.rows, a.cols),
                                                 exact_rank_at, seed=5)
    assert r == rank(a)
    assert witness == tuple(Fraction(x) for x in points[0])
    assert exact_points == points[:1]
    assert (bound, rounds, len(points)) == (1000, 1, 8)


def test_sampled_max_rank_reports_the_last_bound_it_sampled():
    # the second batch of every round ranks higher than the first, so all
    # five rounds disagree; the bound doubles between rounds, not after
    points, exact_points = [], []

    def rank_at(point):
        points.append(point)
        return (len(points) - 1) // 4 % 2

    def exact_rank_at(point):
        exact_points.append(point)
        return 1

    r, witness, bound, rounds = sampled_max_rank(rank_at, 2, 2, exact_rank_at, seed=3)
    assert (len(points), rounds, bound, r) == (40, 5, 16000, 1)
    assert max(abs(x) for x in points[-1]) <= 16000
    assert witness == tuple(Fraction(x) for x in points[4])
    assert exact_points == [points[4]]


class _RecordingRandom(random.Random):
    """random.Random that logs every randint it returns."""

    def __init__(self, seed, log):
        super().__init__(seed)
        self.log = log

    def randint(self, a, b):
        x = super().randint(a, b)
        self.log.append(x)
        return x


def _run_on_ranks(sampler, ranks, nvars, full, seed):
    """sampler run on stub ranks: the sample drawn k-th has rank ranks[k].
    Returns (result, coordinates drawn, indices of the samples ranked)."""
    draws, ranked = [], []

    def rank_at(point):
        k = len(draws) // nvars - 1  # the sample just drawn
        assert point == tuple(draws[-nvars:])
        ranked.append(k)
        return ranks[k]

    def exact_rank_at(point):
        return sum(point) % (full + 1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random, "Random", lambda s: _RecordingRandom(s, draws))
        result = sampler(rank_at, nvars, full, exact_rank_at, seed=seed)
    return result, draws, ranked


@st.composite
def _stub_ranks(draw):
    full = draw(st.integers(1, 4))
    # 5 rounds of two batches of 4 samples at most; full rank, when drawn,
    # may sit at any position of either batch
    ranks = draw(st.lists(st.integers(0, full), min_size=40, max_size=40))
    return full, ranks


@settings(max_examples=200, deadline=None)
@given(_stub_ranks(), st.integers(1, 3), st.integers(0, 2**16))
@example((2, [0, 2, 1, 2] + [1, 0, 0, 0] + [0] * 32), 1, 0)  # rounds disagree
@example((3, [1, 1, 1, 3] + [3, 0, 0, 0] + [0] * 32), 2, 1)  # full at both ends
def test_sampled_max_rank_skips_the_samples_after_full_rank(stub, nvars, seed):
    # the oracle ranks every sample; sampled_max_rank returns what it
    # returns and draws the same points, but ranks no sample after one of
    # its batch has reached full rank
    full, ranks = stub
    got, draws, ranked = _run_on_ranks(sampled_max_rank, ranks, nvars, full, seed)
    want, oracle_draws, oracle_ranked = _run_on_ranks(
        reference_sample_loop, ranks, nvars, full, seed)
    assert got == want
    assert draws == oracle_draws
    samples = len(draws) // nvars
    assert oracle_ranked == list(range(samples))
    assert ranked == [k for k in range(samples)
                      if full not in ranks[k - k % _SAMPLES:k]]


PINNED_STABILIZER_KERNELS = [
    # sha256 of repr(nullspace(...)) of the structure matrix at the seed-0
    # witness: the canonical basis, the same bytes from any correct kernel
    # routine; these skew matrices take the Pfaffian one
    ("sl4", "t^3+t+1", "2f567794c689bc22575a05aa0bc06a6e48119779ad9ef5618196f028cb1bee36"),
    ("sl5", "t^2-t", "2bac78a269889579c139d2d4c933cb38193ea4a09eec939762628e82e1f6a2d9"),
    ("gl4", "t^4-t", "e8e56faa0ac598336bf81b0ed17eedde40d1b6e5576f92603ebb0c382a89d7a8"),
    ("sl3", "t^6-t", "c81fe0f88c04df595dd133f378560cef03cbada6c316c4aab987cff39e00aa2e"),
]


@pytest.mark.parametrize("qname, ptxt, digest", PINNED_STABILIZER_KERNELS)
def test_stabilizer_kernels_are_pinned(qname, ptxt, digest):
    T = make_quotient(builtin_algebra(qname), parse_poly(ptxt))
    point = dict(zip(T.var_list(), index_report(T, seed=0).witness))
    text = repr(nullspace(structure_matrix_at(T, point)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _refuse_bareiss(*args):
    raise AssertionError("a skew-symmetric kernel reached Bareiss elimination")


@pytest.mark.parametrize("qname, ptxt, digest", PINNED_STABILIZER_KERNELS)
def test_stabilizer_kernels_take_no_bareiss_step(qname, ptxt, digest, monkeypatch):
    T = make_quotient(builtin_algebra(qname), parse_poly(ptxt))
    point = dict(zip(T.var_list(), index_report(T, seed=0).witness))
    m = structure_matrix_at(T, point)
    monkeypatch.setattr(exactla, "_echelon", _refuse_bareiss)
    text = repr(nullspace(m))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _skew_copies(A):
    """A, A scaled by 7/12 (entries over 1, 2, 3, 4, 6 or 12) and D A D,
    D diagonal over 2, 3, 5 and 12: skew-symmetric, with mixed denominators
    that only a common one clears without breaking the symmetry."""
    n = len(A)
    D = [Fraction(i + 1, (2, 3, 5, 12)[i % 4]) for i in range(n)]
    return [A, [[Fraction(7, 12) * x for x in row] for row in A],
            [[D[i] * x * D[j] for j, x in enumerate(row)] for i, row in enumerate(A)]]


@settings(max_examples=120, deadline=None)
@given(planted_skew())
def test_skew_nullspace_is_pfaffian_and_matches_the_reference(case):
    corank = len(case[0]) - rank_skew(_upper(case[0]))
    for A in _skew_copies(case[0]):
        want = reference_nullspace(A, len(A))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactla, "_echelon", _refuse_bareiss)
            got = nullspace(QMatrix.from_rows(A))
        assert repr(got) == repr(want)
        assert len(got) == corank


@settings(max_examples=60, deadline=None)
@given(planted_skew(), st.data())
def test_near_skew_nullspace_matches_the_reference_through_bareiss(case, data):
    A = [row[:] for row in case[0]]
    n = len(A)
    assume(n > 0)
    delta = data.draw(st.sampled_from((1, -1, 2**70)))
    i = data.draw(st.integers(0, n - 1))
    if i and data.draw(st.booleans()):
        A[i][data.draw(st.integers(0, i - 1))] += delta  # one lower entry
    else:
        A[i][i] = delta  # one nonzero diagonal entry
    calls = []
    echelon = exactla._echelon

    def counted(*args):
        calls.append(args)
        return echelon(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_echelon", counted)
        got = nullspace(QMatrix.from_rows(A))
    assert repr(got) == repr(reference_nullspace(A, n))
    assert len(calls) == 1


def test_kernel_edge_cases_match_the_reference():
    def eye(n):
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]

    cases = [
        QMatrix.from_rows([[0] * 4] * 3),  # the identity rows, in order
        QMatrix.from_rows([[1, 2], [3, 4], [5, 6]]),  # full column rank
        QMatrix(2, 0, ()),  # zero width
        QMatrix(0, 3, ()),  # no rows
        QMatrix.from_rows([[0, 1, 2, 0], [0, 2, 4, 0]]),  # zero first and last column
        QMatrix.from_rows([[0, 0, 3], [0, 0, -1]]),
    ]
    for m in cases:
        assert repr(nullspace(m)) == repr(reference_nullspace(matrix_rows(m), m.cols))
    assert nullspace(cases[0]) == eye(4)
    assert nullspace(cases[1]) == nullspace(cases[2]) == []
    assert nullspace(cases[3]) == eye(3)
    assert RowSpace(3).kernel() == eye(3) == reference_nullspace([], 3)
    rs = RowSpace(4)
    for r in matrix_rows(cases[4]):
        rs.add(r)
    before = rs.reduced()
    assert rs.kernel() == rs.kernel() == nullspace(cases[4])
    assert rs.reduced() == before  # kernel() leaves the accepted rows as they were


@st.composite
def rank_deficient_products(draw):
    """A B with A of size m x k and B of size k x n, k < n <= 12, entries
    up to 2^40 in size, the product's columns permuted: a kernel of
    dimension at least n - k, its pivots anywhere."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    k = draw(st.integers(0, n - 1))
    entry = st.integers(-2**40, 2**40)
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    perm = draw(st.permutations(range(n)))
    return [[sum(x * b[t][j] for t, x in enumerate(row)) for j in perm] for row in a]


@settings(max_examples=60, deadline=None)
@given(rank_deficient_products())
def test_kernels_of_rank_deficient_products_match_the_reference(rows):
    width = len(rows[0])
    want = reference_nullspace(rows, width)
    assert nullspace(QMatrix.from_rows(rows)) == want
    assert row_space(rows, width).kernel() == want

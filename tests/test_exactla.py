"""Exact linear algebra over the rationals."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glab.exactla import (
    InputError,
    QMatrix,
    RowSpace,
    det,
    kron,
    mat_inv,
    mat_mul,
    nullspace,
    rank,
    rat,
    rat_str,
    row_space,
    rref,
    solve,
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
    k = kron(a, b)
    assert k.rows == 4 and k.cols == 4
    for i, j, p, q in itertools.product(range(2), repeat=4):
        assert k.at(2 * i + p, 2 * j + q) == a.at(i, j) * b.at(p, q)


@given(matrices(3), matrices(3))
@settings(max_examples=30, deadline=None)
def test_kron_rank_multiplicative(a, b):
    assert rank(kron(a, b)) == rank(a) * rank(b)

"""Exact linear algebra over the rationals.

Rank and determinant work on integer matrices through fraction-free
(Bareiss) elimination, which keeps intermediate entries bounded and never
leaves the integers.  Rational input is cleared to integers row by row
first.  Nullspace and solve run over ``fractions.Fraction``; kernel bases
are themselves put in reduced row echelon form so that the answer is a
canonical basis, reproducible byte for byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


class InputError(ValueError):
    """A value or matrix shape violates the documented contract."""


def rat(x) -> Fraction:
    """Coerce int, string ("3", "-2/7") or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational literal: {x!r}") from exc
    raise InputError(f"not a rational value: {x!r}")


def rat_str(q) -> str:
    """Render a rational as "num" or "num/den" with positive denominator."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class QMatrix:
    """Immutable rational matrix, entries stored row major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InputError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise InputError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InputError("ragged rows")
        else:
            width = 0
        flat = tuple(rat(x) for r in rows for x in r)
        return cls(len(rows), width, flat)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        ent = tuple(
            Fraction(1) if i == j else Fraction(0) for i in range(n) for j in range(n)
        )
        return cls(n, n, ent)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, tuple(Fraction(0) for _ in range(rows * cols)))

    def at(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise InputError(f"index ({i},{j}) out of range")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def row_lists(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "QMatrix":
        ent = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return QMatrix(self.cols, self.rows, ent)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __str__(self) -> str:
        return "\n".join(
            "[" + ", ".join(rat_str(x) for x in self.row(i)) + "]"
            for i in range(self.rows)
        )


def _int_rows(m: QMatrix) -> list:
    """Clear denominators row by row; row scaling preserves rank."""
    out = []
    for i in range(m.rows):
        r = m.row(i)
        lcm = 1
        for x in r:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        out.append([int(x * lcm) for x in r])
    return out


def rank(m: QMatrix) -> int:
    """Matrix rank by fraction-free elimination on integers."""
    rows = _int_rows(m)
    nr, nc = m.rows, m.cols
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nr):
            fac = rows[i][c]
            lead = rows[r][c]
            for j in range(c + 1, nc):
                rows[i][j] = (rows[i][j] * lead - fac * rows[r][j]) // prev
            rows[i][c] = 0
        prev = rows[r][c]
        r += 1
    return r


def det(m: QMatrix) -> Fraction:
    """Determinant via Bareiss; exact division keeps every step integral."""
    if not m.is_square():
        raise InputError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    rows = []
    scale = Fraction(1)
    for i in range(n):
        r = m.row(i)
        lcm = 1
        for x in r:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        scale *= lcm
        rows.append([int(x * lcm) for x in r])
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        for i in range(c + 1, n):
            fac = rows[i][c]
            lead = rows[c][c]
            for j in range(c + 1, n):
                rows[i][j] = (rows[i][j] * lead - fac * rows[c][j]) // prev
            rows[i][c] = 0
        prev = rows[c][c]
    return Fraction(sign * rows[n - 1][n - 1]) / scale


def rref(rows: list) -> tuple:
    """In-place reduced row echelon form over Fraction.

    Returns (rows, pivot_columns); zero rows are dropped.
    """
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    nc = len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                fac = rows[i][c]
                rows[i] = [a - fac * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(m: QMatrix) -> list:
    """Canonical kernel basis of m as row vectors.

    The usual free-variable vectors are re-reduced so the result is the
    reduced row echelon basis of the kernel (leading entries equal 1).
    """
    rows, pivots = rref(m.row_lists())
    return _kernel_of_rref(rows, pivots, m.cols)


def _kernel_of_rref(rows: list, pivots: list, nc: int) -> list:
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, pc in zip(rows, pivots):
            v[pc] = -r[f]
        basis.append(v)
    reduced, _ = rref(basis)
    return [tuple(v) for v in reduced]


def solve(m: QMatrix, b: Sequence) -> tuple | None:
    """One solution of m x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    b = [rat(x) for x in b]
    if len(b) != m.rows:
        raise InputError("right hand side has wrong length")
    aug = [m.row(i) + [b[i]] for i in range(m.rows)]
    rows, pivots = rref(aug)
    nc = m.cols
    for r, pc in zip(rows, pivots):
        if pc == nc:
            return None
    x = [Fraction(0)] * nc
    for r, pc in zip(rows, pivots):
        x[pc] = r[nc]
    return tuple(x)


class RowSpace:
    """Incrementally maintained row space with exact reduction.

    add() reduces the vector against the rows seen so far and reports
    whether it enlarged the span.  basis() returns the canonical reduced
    row echelon basis of everything accepted.
    """

    def __init__(self, width: int):
        self.width = width
        self._rows = []  # kept in echelon form, pivot -> row
        self._pivots = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, vec: Sequence) -> list:
        v = [Fraction(x) for x in vec]
        if len(v) != self.width:
            raise InputError("vector width mismatch")
        for row, pc in zip(self._rows, self._pivots):
            if v[pc] != 0:
                fac = v[pc]
                v = [a - fac * b for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def add(self, vec: Sequence) -> bool:
        v = self.reduce(vec)
        pc = next((c for c in range(self.width) if v[c] != 0), None)
        if pc is None:
            return False
        lead = v[pc]
        v = [x / lead for x in v]
        # keep existing rows reduced against the newcomer
        for i, row in enumerate(self._rows):
            if row[pc] != 0:
                fac = row[pc]
                self._rows[i] = [a - fac * b for a, b in zip(row, v)]
        at = next(
            (k for k, q in enumerate(self._pivots) if q > pc), len(self._pivots)
        )
        self._rows.insert(at, v)
        self._pivots.insert(at, pc)
        return True

    def basis(self) -> list:
        return [tuple(r) for r in self._rows]

    def kernel(self) -> list:
        """Canonical kernel basis of the accepted rows, as nullspace gives it.

        The kernel depends only on the row space, so this equals nullspace
        of any matrix whose rows were added here.
        """
        return _kernel_of_rref(self._rows, self._pivots, self.width)


def row_space(rows: Iterable, width: int) -> RowSpace:
    """RowSpace of the rows, reduced one at a time as they arrive.

    The matrix is never held.  Reading stops once the rows span all of
    Q^width, so row_space(rows, width).kernel() equals
    nullspace(QMatrix.from_rows(rows)).
    """
    rs = RowSpace(width)
    for r in rows:
        if any(r) and rs.add(r) and rs.dim == width:
            break
    return rs


def kron(a: QMatrix, b: QMatrix) -> QMatrix:
    """Kronecker product, used to assemble block pairing matrices."""
    ent = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                for l in range(b.cols):
                    ent.append(a.at(i, j) * b.at(k, l))
    return QMatrix(a.rows * b.rows, a.cols * b.cols, tuple(ent))


def mat_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.cols != b.rows:
        raise InputError("shape mismatch in product")
    ent = []
    brows = b.row_lists()
    for i in range(a.rows):
        ra = a.row(i)
        for j in range(b.cols):
            ent.append(sum((ra[k] * brows[k][j] for k in range(a.cols)), Fraction(0)))
    return QMatrix(a.rows, b.cols, tuple(ent))


def mat_inv(m: QMatrix) -> QMatrix:
    """Inverse of a square matrix; InputError when singular."""
    if not m.is_square():
        raise InputError("inverse needs a square matrix")
    n = m.rows
    aug = [m.row(i) + QMatrix.identity(n).row(i) for i in range(n)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    ent = tuple(rows[i][n + j] for i in range(n) for j in range(n))
    return QMatrix(n, n, ent)

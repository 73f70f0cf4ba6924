"""Exact linear algebra over the rationals.

All exact elimination goes through one fraction-free (Bareiss) routine on
integer rows, ``_echelon``: rational input is cleared to integers row by
row, every division in it is exact, and no ``fractions.Fraction`` is made
until the answer is read out.  Rank and determinant use its echelon form;
rref, nullspace, solve, mat_inv and RowSpace use its reduced form.  A
kernel takes one elimination, of the rows with their columns reversed,
which yields its reduced row echelon basis directly: a canonical basis,
reproducible byte for byte.

``rank_mod_p`` is the one routine that does not stay exact: it ranks the
integer rows over GF(PRIME), which can only under-count, so a sampled rank
can be steered by it and certified by one exact ``rank`` at the end.

The term budget (GLAB_BUDGET_TERMS) is read here, at the bottom of the
package, so every layer that allocates by an input size can refuse it.
"""
from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

_ZERO = Fraction(0)


class InputError(ValueError):
    """A value or matrix shape violates the documented contract."""


DEFAULT_BUDGET = 2_000_000


class BudgetError(RuntimeError):
    """An operation would exceed the configured term budget."""


def term_budget() -> int:
    """The term budget: GLAB_BUDGET_TERMS, else DEFAULT_BUDGET."""
    raw = os.environ.get("GLAB_BUDGET_TERMS")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        val = int(raw)
    except ValueError as exc:
        raise InputError(f"GLAB_BUDGET_TERMS must be an integer: {raw!r}") from exc
    if val <= 0:
        raise InputError("GLAB_BUDGET_TERMS must be positive")
    return val


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
    """Immutable rational matrix, entries (int or Fraction) stored row major."""

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


def _int_row(r) -> tuple:
    """(r times the lcm of its denominators, that lcm); r holds int or Fraction."""
    lcm = math.lcm(*[x.denominator for x in r])
    if lcm == 1:
        return [x.numerator for x in r], 1
    return [x.numerator * (lcm // x.denominator) for x in r], lcm


def _int_rows(m: QMatrix) -> list:
    """Rows of m cleared to integers; row scaling keeps rank and kernel."""
    return [_int_row(m.row(i))[0] for i in range(m.rows)]


def _rationals(rows: list, d: int) -> list:
    """Integer rows divided by d, as lists of Fraction."""
    return [[Fraction(x, d) if x else _ZERO for x in r] for r in rows]


def _echelon(rows: list, ncols: int, full: bool) -> tuple:
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    At each pivot the other rows become (x * lead - fac * y) // prev, with
    lead the new pivot entry and prev the one before.  Every entry stays a
    minor of the input, so each division is exact; rows with fac == 0 are
    scaled by lead / prev for the same reason.  Only the rows below the
    pivot are updated unless full is set, which also clears the entries
    above it: then every pivot entry ends equal to d and rows / d is the
    reduced row echelon form.

    Returns (nonzero rows, pivot columns, d, sign of the row swaps).  For a
    square matrix of full rank, sign * d is its determinant.
    """
    nr = len(rows)
    pivots = []
    prev = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        lead = prow[c]
        for i in range(0 if full else r + 1, nr):
            if i == r:
                continue
            fac = rows[i][c]
            if fac:
                rows[i] = [(x * lead - fac * y) // prev for x, y in zip(rows[i], prow)]
            elif lead != prev:
                rows[i] = [x * lead // prev for x in rows[i]]
        pivots.append(c)
        prev = lead
    return rows[: len(pivots)], pivots, prev, sign


def rank(m: QMatrix) -> int:
    """Matrix rank by fraction-free elimination on integers."""
    return len(_echelon(_int_rows(m), m.cols, False)[1])


PRIME = 2**31 - 1


def rank_mod_p(m: QMatrix) -> int:
    """Rank over GF(PRIME) of m with each row cleared to integers.

    A minor that vanishes over the integers vanishes mod PRIME, and row
    scaling keeps the rank over Q, so the result is never above rank(m).
    It is below it only when PRIME divides every nonzero minor of size
    rank(m) of the cleared rows.  Reduction is lazy: a step reduces only
    the pivot row and the column it clears, so the other entries grow
    unreduced by less than PRIME^2 per step.  Each row keeps only the
    columns not yet cleared.
    """
    p = PRIME
    rows = [[x % p for x in r] for r in _int_rows(m)]
    found = 0
    for _ in range(m.cols):
        if not rows:
            break
        col = [r[0] % p for r in rows]
        piv = next((i for i, f in enumerate(col) if f), None)
        if piv is None:
            rows = [r[1:] for r in rows]
            continue
        inv = pow(col.pop(piv), -1, p)
        ptail = [x * inv % p for x in rows.pop(piv)[1:]]
        rows = [[x - f * y for x, y in zip(r[1:], ptail)] if f else r[1:]
                for r, f in zip(rows, col)]
        found += 1
    return found


def det(m: QMatrix) -> Fraction:
    """Determinant via Bareiss; exact division keeps every step integral."""
    if not m.is_square():
        raise InputError("determinant needs a square matrix")
    cleared = [_int_row(m.row(i)) for i in range(m.rows)]
    _, pivots, d, sign = _echelon([r for r, _ in cleared], m.cols, False)
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(sign * d, math.prod(lcm for _, lcm in cleared))


def rref(rows: list) -> tuple:
    """Reduced row echelon form of rows of int or Fraction.

    Returns (rows as lists of Fraction, pivot_columns); zero rows are dropped.
    """
    if not rows:
        return [], []
    ints, pivots, d, _ = _echelon([_int_row(r)[0] for r in rows], len(rows[0]), True)
    return _rationals(ints, d), pivots


def nullspace(m: QMatrix) -> list:
    """Canonical kernel basis of m as row vectors: its reduced row echelon
    form (leading entries equal 1), from one elimination (see _kernel)."""
    return _kernel(_int_rows(m), m.cols)


def _kernel(int_rows: list, ncols: int) -> list:
    """Kernel basis, in reduced row echelon form, of the integer rows.

    The rows are reduced with their columns reversed, so each pivot is the
    rightmost entry it can be.  The free column f then gives the vector with
    1 at f and minus each row's entry in column f, over d, at that row's
    pivot: it is 0 at every other free column and nonzero only right of f,
    so in ascending f these vectors already are the kernel's reduced row
    echelon form.
    """
    rows, pivots, d, _ = _echelon([r[::-1] for r in int_rows], ncols, True)
    pivots = [ncols - 1 - c for c in pivots]
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [_ZERO] * ncols
        v[f] = Fraction(1)
        for row, pc in zip(rows, pivots):
            x = row[ncols - 1 - f]
            if x:
                v[pc] = Fraction(-x, d)
        basis.append(tuple(v))
    return basis


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
    if pivots and pivots[-1] == nc:  # pivots ascend; nc is the last column
        return None
    x = [Fraction(0)] * nc
    for r, pc in zip(rows, pivots):
        x[pc] = r[nc]
    return tuple(x)


class RowSpace:
    """Incrementally maintained row space with exact reduction.

    Accepted rows are kept as primitive integer rows in echelon form, in
    pivot order.  add() reduces the vector against them and reports whether
    it enlarged the span.  basis() returns the canonical reduced row
    echelon basis of everything accepted.
    """

    def __init__(self, width: int):
        self.width = width
        self._rows = []
        self._pivots = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Sequence) -> list:
        v = _int_row(vec)[0]
        if len(v) != self.width:
            raise InputError("vector width mismatch")
        for row, pc in zip(self._rows, self._pivots):
            x = v[pc]
            if x:
                g = math.gcd(row[pc], x)
                a, b = row[pc] // g, x // g
                v = [a * y - b * z for y, z in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec: Sequence) -> bool:
        v = self._reduce(vec)
        pc = next((c for c, x in enumerate(v) if x), None)
        if pc is None:
            return False
        g = math.gcd(*v)
        at = bisect.bisect(self._pivots, pc)
        self._rows.insert(at, [x // g for x in v])
        self._pivots.insert(at, pc)
        return True

    def basis(self) -> list:
        rows, _, d, _ = _echelon(list(self._rows), self.width, True)
        return [tuple(r) for r in _rationals(rows, d)]

    def kernel(self) -> list:
        """Canonical kernel basis of the accepted rows, as nullspace gives it,
        from one elimination of the rows with their columns reversed.

        The kernel depends only on the row space, so this equals nullspace
        of any matrix whose rows were added here.
        """
        return _kernel(self._rows, self.width)


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
    aug = [m.row(i) + [int(i == j) for j in range(n)] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    ent = tuple(rows[i][n + j] for i in range(n) for j in range(n))
    return QMatrix(n, n, ent)

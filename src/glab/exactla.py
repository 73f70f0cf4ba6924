"""Exact linear algebra over the rationals.

Exact elimination stays on integers, every division in it exact, and no
``fractions.Fraction`` is made until the answer is read out.  ``RowSpace``
is the one general exact rank: it reduces each new row against the
primitive integer rows it holds, one gcd-scaled multiply-add per pivot; it
ranks spans, span dimensions and the witnesses of sampled Jacobians.

``_echelon`` is Bareiss elimination of integer rows, rational input
cleared to integers row by row.  Determinants and kernels use its echelon
form; rref, mat_inv and RowSpace.reduced use its reduced form.  A kernel
takes one forward elimination, of the rows with their columns reversed,
and a fraction-free back-substitution per free column, which yields its
reduced row echelon basis: a canonical basis, reproducible byte for byte.

``_pfaffian`` is Pfaffian elimination of a skew-symmetric integer matrix
from its strict upper triangle, as the structure matrices of Lie brackets
are.  It pivots on pairs of indices: every entry it holds is a Pfaffian of
a principal submatrix, and a Pfaffian is a square root of the determinant,
so the numbers have about half the bits of Bareiss minors, and only half
the matrix is updated.  ``rank_skew`` counts its pivots, and ``nullspace``
of a skew-symmetric matrix reads the same canonical kernel basis off its
steps, one back-substitution per free index; every other kernel is
Bareiss's.

``rank_packed_mod_p`` is the one routine that does not stay exact: it ranks
integer rows over GF(PRIME), which can only under-count, so a sampled rank
can be steered by it and certified by one exact rank at the end.  Each
row is one int of wide bit fields, one per column, so that a row operation
is one bigint multiply-add.  ``rank_mod_p`` packs integer rows into it, as
psring.cleared_jacobian and pencilz's Jacobian of Z form them; a caller
that can form its rows packed, as the sampled structure matrices of
liecore are formed from per-coordinate packed rows, feeds them to it
directly.

The term budget (GLAB_BUDGET_TERMS) is read here, at the bottom of the
package, so every layer that allocates by an input size can refuse it.
"""
from __future__ import annotations

import bisect
import math
import operator
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


def as_int(x):
    """x as an int when it equals one (an int, or a float or Fraction of
    integral value), else None; a caller refuses 1.7, "1" or nan rather
    than truncating them."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == x else None


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

    def at(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise InputError(f"index ({i},{j}) out of range")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def is_square(self) -> bool:
        return self.rows == self.cols


def _int_row(r) -> tuple:
    """(r times the lcm of its denominators, that lcm); r holds int or Fraction."""
    lcm = math.lcm(*[x.denominator for x in r])
    if lcm == 1:
        return [x.numerator for x in r], 1
    return [x.numerator * (lcm // x.denominator) for x in r], lcm


def int_matrix(m: QMatrix) -> tuple:
    """(d, rows): m as integer row tuples over d, the lcm of all its
    denominators."""
    flat, d = _int_row(m.entries)
    c = m.cols
    return d, tuple(tuple(flat[i * c : (i + 1) * c]) for i in range(m.rows))


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
    """Matrix rank by Bareiss elimination; the program ranks by RowSpace."""
    return len(_echelon(_int_rows(m), m.cols, False)[1])


def _pfaffian(upper: Sequence) -> tuple:
    """Fraction-free Pfaffian elimination (Knuth, "Overlapping Pfaffians",
    1996) of the integer skew-symmetric n x n matrix A given by its strict
    upper triangle: upper[i] lists A[i][j] for j = i+1 .. n-1.

    The indices are met in descending order.  At each step a is the largest
    active index.  If its row is zero, a is dropped as free.  Otherwise a
    is paired with b, the largest active index with A'[a][b] != 0, and
    lead = A'[a][b].  With f = A'[a][.] and g = A'[b][.] over the other
    active indices, every other entry becomes
        (lead * A'[x][y] - f[x] * g[y] + g[x] * f[y]) // prev,
    prev the lead of the step before: lead times the skew Schur complement
    of the pivot pair.  After k steps each entry is, up to sign, the
    Pfaffian of the principal submatrix on the 2k pivot indices and x, y,
    so every division is exact, and the last lead is +-Pf of A on all the
    pivot indices.  upper is not changed.

    Returns (steps, frees, d), each index given by its position in the
    order met, p for index n - 1 - p: steps lists (a, b, lead, rest, f, g),
    rest the ascending positions of the active indices that f and g range
    over; frees lists the free indices; d is the last lead, 1 if there is
    no step.  A has rank 2 * len(steps).
    """
    n = len(upper)
    # rows[p] lists A[i][j] for j = i-1 .. 0, i = n - 1 - p: each row over
    # the positions after its own
    rows = [[-upper[j][i - j - 1] for j in range(i - 1, -1, -1)]
            for i in range(n - 1, -1, -1)]
    idx = list(range(n))
    steps, frees = [], []
    prev = 1
    while rows:
        top = rows.pop(0)
        j = next((j for j, x in enumerate(top) if x), None)
        if j is None:
            frees.append(idx[0])
            idx = idx[1:]
            continue
        # pivot pair (a, b) at positions (idx[0], idx[j + 1]); rows[i] is now
        # the row of idx[i + 1], so b's row is rows[j], and b's column lies
        # at j - i - 1 in each row above it
        lead = top[j]
        rest = idx[1:j + 1] + idx[j + 2:]
        above, below = rows[:j], rows[j + 1:]
        f = top[:j] + top[j + 1:]
        g = [-r[j - i - 1] for i, r in enumerate(above)] + rows[j]
        out = []
        for i, r in enumerate(above + below):
            if i < j:
                r = r[:j - i - 1] + r[j - i:]
            fx, gx = f[i], g[i]
            if fx or gx:
                out.append([(lead * a - fx * gy + gx * fy) // prev
                            for a, fy, gy in zip(r, f[i + 1:], g[i + 1:])])
            elif lead == prev:
                out.append(r)
            else:
                out.append([lead * a // prev for a in r])
        steps.append((idx[0], idx[j + 1], lead, rest, f, g))
        rows, idx, prev = out, rest, lead
    return steps, frees, prev


def rank_skew(upper: Sequence) -> int:
    """Rank of an integer skew-symmetric n x n matrix A, given by its strict
    upper triangle: upper[i] lists A[i][j] for j = i+1 .. n-1.

    Twice the number of pivot pairs of its fraction-free Pfaffian
    elimination (_pfaffian).  upper is not changed.
    """
    n = len(upper)
    if any(len(r) != n - 1 - i for i, r in enumerate(upper)):
        raise InputError("rank_skew needs the strict upper triangle of a square matrix")
    return 2 * len(_pfaffian(upper)[0])


PRIME = 2**31 - 1
_PBITS = PRIME.bit_length()
# rank_mod_p folds a field mod PRIME by x -> (x >> 31) + (x & PRIME)
assert PRIME == 2**_PBITS - 1, "rank_mod_p needs a Mersenne PRIME"


def _fold_count(width: int) -> int:
    """Folds x -> (x >> b) + (x & PRIME), b = PRIME's bit length, that take
    any x below 2^width below 2^(b + 1)."""
    folds = 0
    while width > _PBITS + 1:
        width = max(width - _PBITS, _PBITS) + 1
        folds += 1
    return folds


def packed_width(ncols: int) -> int:
    """Bits per field of a packed GF(PRIME) row of ncols columns: room for
    the ncols steps of rank_packed_mod_p on fields below ncols * PRIME^2."""
    return 2 * _PBITS + ncols.bit_length() + 2


def pack_mod_p(entries: Iterable, width: int) -> int:
    """One packed row: x mod PRIME in the field of column c, at bits
    [width*c, width*(c+1)), for each (c, x) in entries."""
    return sum([(x % PRIME) << (width * c) for c, x in entries if x])


def rank_packed_mod_p(rows: list, ncols: int) -> int:
    """Rank over GF(PRIME) of packed rows, each an int of W-bit fields,
    W = packed_width(ncols), column c at bits [W*c, W*(c+1)), with every
    field nonnegative and below ncols * PRIME^2.

    A row operation is one bigint multiply-add rather than a loop over
    entries.  Every step drops the lowest field of each row, so the field
    read is always the column being cleared.  The pivot row's fields are
    folded below 2^(b+1), b = 31, all at once with masks (PRIME = 2^b - 1,
    so x = (x >> b) + (x & PRIME) mod PRIME); each other row R becomes
    (R >> W) + g * P, g = -f / lead mod PRIME for its entry f in the cleared
    column.  Fields are never reduced again, but each step adds less than
    2^(2b+1) to them and they stay nonnegative, so after all ncols steps
    they are below 3 * ncols * 2^(2b) < 2^W, and no field carries into the
    next.
    """
    p = PRIME
    width = packed_width(ncols)
    field = (1 << width) - 1
    units = sum(1 << s for s in range(0, width * ncols, width))
    low, high = units * p, units * ((1 << (width - _PBITS)) - 1)
    folds = _fold_count(width)
    rows = [r for r in rows if r]
    found = 0
    for _ in range(ncols):
        if not rows:
            break
        for i, r in enumerate(rows):
            lead = (r & field) % p
            if lead:
                break
        else:
            rows = [r >> width for r in rows]
            continue
        prow = rows.pop(i) >> width
        for _ in range(folds):
            prow = ((prow >> _PBITS) & high) + (prow & low)
        neg_inv = p - pow(lead, -1, p)
        out = []
        for r in rows:
            f = (r & field) % p
            r >>= width
            if f:
                r += f * neg_inv % p * prow
            if r:
                out.append(r)
        rows = out
        found += 1
    return found


def rank_mod_p(rows: Sequence, ncols: int) -> int:
    """Rank over GF(PRIME) of integer rows, each of ncols entries.

    A minor that vanishes over the integers vanishes mod PRIME, so the
    result is never above the rank over Q, and below it only when PRIME
    divides every nonzero minor of that size.  Rational rows are cleared to
    integers first, as psring.cleared_jacobian clears them.  Each row is
    packed mod PRIME (pack_mod_p) and ranked by rank_packed_mod_p.
    """
    if any(len(r) != ncols for r in rows):
        raise InputError(f"rank_mod_p needs rows of {ncols} entries")
    width = packed_width(ncols)
    return rank_packed_mod_p([pack_mod_p(enumerate(r), width) for r in rows], ncols)


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
    form (leading entries equal 1), from one forward elimination and a
    back-substitution per free column.

    A skew-symmetric m (square, zero diagonal, m[i][j] == -m[j][i]) is
    cleared to integers over the lcm of all its denominators, which keeps
    the skew symmetry that clearing row by row would break, and its kernel
    is read off its Pfaffian elimination (see _skew_kernel).  Every other
    matrix is cleared row by row and eliminated by Bareiss (see _kernel).
    """
    if m.is_square():
        _, rows = int_matrix(m)
        if all(list(r) == [-x for x in c] for r, c in zip(rows, zip(*rows))):
            return _skew_kernel(rows)
    return _kernel(_int_rows(m), m.cols)


def _skew_kernel(rows: Sequence) -> list:
    """Kernel basis, in reduced row echelon form, of the skew-symmetric
    integer matrix A with these rows.

    _pfaffian meets A's indices in descending order and pairs each a with
    b, the largest active index with A'[a][b] != 0.  Let S be the pivot
    indices and d the last lead, +-Pf(A_SS).  Each free index phi gives the
    kernel vector X with d at phi, 0 at every other free index and, walking
    the steps in reverse, from rows a and b of each step,
        X_b = -sum_y f[y] * X_y // lead,  X_a = sum_y g[y] * X_y // lead.
    X_S = -d * A_SS^-1 A_S,phi, and Pf(A_SS) * A_SS^-1 is integral, so
    every division is exact.

    The pivot rule makes X / d the reduced row echelon basis.  For an
    active c between b and a, A'[a][c] = 0, so b's row never enters c's
    Schur row, which stays A's row c plus multiples of rows of larger
    indices.  The Schur row of a free phi is zero: A's row phi is a
    combination of rows of larger indices, hence, A being skew, column phi
    one of the columns right of it, so phi is a pivot of the kernel's
    reduced row echelon form.  There are as many free indices as such
    pivots, so they are exactly these pivots, and X / d, 1 at phi and 0 at
    the other pivots, is that form's row of phi, zero left of phi.  That is
    checked on every vector: a basis in echelon form whose pivot columns
    hold a unit matrix is the unique reduced one, so the check certifies it.
    """
    n = len(rows)
    steps, frees, d = _pfaffian([r[i + 1:] for i, r in enumerate(rows)])
    basis = []
    for phi in reversed(frees):
        # X by position, position p is index n - 1 - p
        x = [0] * n
        x[phi] = d
        for a, b, lead, rest, f, g in reversed(steps):
            xs = [x[y] for y in rest]
            x[b] = -sum(map(operator.mul, f, xs)) // lead
            x[a] = sum(map(operator.mul, g, xs)) // lead
        if any(x[phi + 1:]):
            raise AssertionError("skew kernel vector is not zero left of its free index")
        basis.append(tuple(Fraction(v, d) if v else _ZERO for v in reversed(x)))
    return basis


def _kernel(int_rows: list, ncols: int) -> list:
    """Kernel basis, in reduced row echelon form, of the integer rows.

    The rows are brought to echelon form U, without clearing above the
    pivots, with their columns reversed, so each pivot is the rightmost
    entry it can be.  Each free column f then gives the kernel vector X
    with d at f, 0 at every other free column and, by back-substitution
    from the last row up,
        X_i = -(d * U[i][f] + sum_{j > i} U[i][p_j] * X_j) // U[i][p_i]
    at the pivot p_i of row i.  d, the last pivot entry, is up to sign the
    determinant of the input rows behind U in the pivot columns, so X is
    integral by Cramer's rule; U X = 0 has the same solutions, so every
    division is exact.  X is nonzero only at f and right of it, so in
    ascending f the vectors X / d already are the kernel's reduced row
    echelon form, which is unique.
    """
    rows, pivots, d, _ = _echelon([r[::-1] for r in int_rows], ncols, False)
    basis = []
    for f in sorted(set(range(ncols)) - {ncols - 1 - c for c in pivots}):
        fr = ncols - 1 - f
        v = [_ZERO] * ncols
        v[f] = Fraction(1)
        top = bisect.bisect(pivots, fr)  # rows i >= top have X_i = 0
        xs = [0] * top
        for i in range(top - 1, -1, -1):
            row = rows[i]
            acc = d * row[fr] + sum([row[pivots[j]] * xs[j] for j in range(i + 1, top)])
            xs[i] = -acc // row[pivots[i]]
            if xs[i]:
                v[ncols - 1 - pivots[i]] = Fraction(xs[i], d)
        basis.append(tuple(v))
    return basis


class RowSpace:
    """Incrementally maintained row space with exact reduction.

    Accepted rows are kept as primitive integer rows in echelon form, in
    pivot order.  add() reduces the vector against them and reports whether
    it enlarged the span.  reduced() returns the canonical reduced row
    echelon basis of everything accepted, as integer rows over one
    denominator.
    """

    def __init__(self, width: int):
        self.width = width
        self._rows = []
        self._pivots = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple:
        """The accepted rows as kept: primitive integer rows in echelon
        form, in pivot order, spanning what reduced() spans."""
        return tuple(self._rows)

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

    def reduced(self) -> tuple:
        """(rows, d): new integer row tuples, in pivot order, and d > 0
        such that rows / d is the canonical reduced row echelon basis of
        everything accepted; every pivot entry equals d."""
        rows, _, d, _ = _echelon(list(self._rows), self.width, True)
        if d < 0:
            return [tuple(-x for x in r) for r in rows], -d
        return [tuple(r) for r in rows], d

    def kernel(self) -> list:
        """Canonical kernel basis of the accepted rows, as nullspace gives it,
        from one forward elimination of the rows with their columns reversed
        and a back-substitution per free column (see _kernel).

        The kernel depends only on the row space, so this equals nullspace
        of any matrix whose rows were added here.
        """
        return _kernel(self._rows, self.width)


def row_space(rows: Iterable, width: int) -> RowSpace:
    """RowSpace of the rows, reduced one at a time as they arrive.

    The matrix is never held.  Reading stops once the rows span all of
    Q^width.  A kernel depends only on the row space and its reduced row
    echelon basis is unique, so row_space(rows, width).kernel() equals
    nullspace(QMatrix.from_rows(rows)) byte for byte.
    """
    rs = RowSpace(width)
    for r in rows:
        if any(r) and rs.add(r) and rs.dim == width:
            break
    return rs


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

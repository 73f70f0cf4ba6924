"""Lie algebras with exact structure constants and their current-algebra quotients.

The basic objects are a finite dimensional Lie algebra with a chosen basis
(structure constants over Fraction, optionally an invariant symmetric form)
and bracket tables on bases of the form x_i * t^a.  Quotients by a monic
polynomial p give the truncated current algebras; differences and linear
combinations of two such brackets are built on top of the same table
representation.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .exactla import (
    BudgetError,
    InputError,
    QMatrix,
    rank,
    rank_mod_p,
    rat,
    rat_str,
    term_budget,
)


# ---------------------------------------------------------------------------
# univariate polynomials over Q


@dataclass(frozen=True)
class UniPoly:
    """Polynomial in t over the rationals; coeffs low degree first."""

    coeffs: tuple

    @classmethod
    def make(cls, coeffs: Iterable) -> "UniPoly":
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls.make([1])

    @classmethod
    def t(cls) -> "UniPoly":
        return cls.make([0, 1])

    @classmethod
    def monomial(cls, k: int, coef=1) -> "UniPoly":
        if k < 0:
            raise InputError("negative degree")
        return cls.make([0] * k + [coef])

    @classmethod
    def from_roots(cls, roots: Iterable) -> "UniPoly":
        """Monic product of (t - a)^m for (a, m) pairs or plain roots."""
        p = cls.one()
        for item in roots:
            if isinstance(item, tuple):
                a, m = item
            else:
                a, m = item, 1
            a = rat(a)
            for _ in range(int(m)):
                p = p * cls.make([-a, 1])
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if self.is_zero():
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.lc() == 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.make(
            [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.make(
            [self.coeff(k) - other.coeff(k) for k in range(n)]
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly.make([-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly.make(out)

    def scale(self, c) -> "UniPoly":
        c = rat(c)
        return UniPoly.make([c * a for a in self.coeffs])

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise InputError("negative power")
        out = UniPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def divmod_by(self, other: "UniPoly") -> tuple:
        if other.is_zero():
            raise InputError("division by zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.lc()
        quo = [Fraction(0)] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            fac = rem[-1] / lead
            quo[k] = fac
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= fac * b
            rem.pop()
        return UniPoly.make(quo), UniPoly.make(rem)

    def mod(self, other: "UniPoly") -> "UniPoly":
        return self.divmod_by(other)[1]

    def eval(self, x) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly.make(
            [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    def shift(self, c) -> "UniPoly":
        """Substitution t -> t + c."""
        c = rat(c)
        acc = UniPoly.zero()
        lin = UniPoly.make([c, 1])
        for a in reversed(self.coeffs):
            acc = acc * lin + UniPoly.make([a])
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.lc())

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            if k == 0:
                body = rat_str(abs(c))
            else:
                tpow = "t" if k == 1 else f"t^{k}"
                body = tpow if abs(c) == 1 else f"{rat_str(abs(c))}*{tpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def poly_egcd(a: UniPoly, b: UniPoly) -> tuple:
    """(g, u, v) with u*a + v*b = g and g monic (or zero)."""
    r0, r1 = a, b
    u0, u1 = UniPoly.one(), UniPoly.zero()
    v0, v1 = UniPoly.zero(), UniPoly.one()
    while not r1.is_zero():
        q, r = r0.divmod_by(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead = r0.lc()
    return r0.monic(), u0.scale(1 / lead), v0.scale(1 / lead)


def rational_roots(p: UniPoly):
    """Full rational factorization of monic p, or None.

    Returns a tuple of (root, multiplicity) pairs sorted by root when p
    splits completely over Q, otherwise None.  Candidates come from trial
    division of the constant and leading coefficients, so BudgetError is
    raised first when the square root of either exceeds the term budget.
    """
    if p.is_zero() or not p.is_monic():
        raise InputError("need a monic polynomial")
    budget = term_budget()
    found = {}
    work = p
    # strip the root at zero first
    while work.degree > 0 and work.coeff(0) == 0:
        found[Fraction(0)] = found.get(Fraction(0), 0) + 1
        work = work.divmod_by(UniPoly.t())[0]
    while work.degree > 0:
        den = 1
        for c in work.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        ints = [int(c * den) for c in work.coeffs]
        a0, an = abs(ints[0]), abs(ints[-1])
        if math.isqrt(max(a0, an)) > budget:
            raise BudgetError(
                f"root search by trial division of a {max(a0, an).bit_length()}-bit "
                f"coefficient exceeds budget {budget}"
            )
        root = None
        for num in sorted(_divisors(a0)):
            for dv in sorted(_divisors(an)):
                for cand in (Fraction(num, dv), Fraction(-num, dv)):
                    if work.eval(cand) == 0:
                        root = cand
                        break
                if root is not None:
                    break
            if root is not None:
                break
        if root is None:
            return None
        found[root] = found.get(root, 0) + 1
        work = work.divmod_by(UniPoly.make([-root, 1]))[0]
    return tuple(sorted(found.items()))


def _divisors(n: int) -> list:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


_TERM_RE = re.compile(
    r"^(?P<coef>\d+(?:/\d+)?)?(?P<star>\*)?(?P<t>t(?:\^(?P<pow>\d+))?)?$"
)


def _exponent(digits: str, budget: int) -> int:
    """The exponent k written as digits; BudgetError when the k + 1
    coefficients of t^k would exceed the term budget.  The length test
    comes first, so a huge digit string is refused before int() reads it."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(budget)) or int(digits) >= budget:
        shown = digits if len(digits) <= 12 else digits[:12] + "..."
        raise BudgetError(f"t^{shown} needs more than {budget} coefficients")
    return int(digits)


def parse_poly(text: str) -> UniPoly:
    """Parse strings like "t^3 - t + 1" or "2*t^2+1/2"."""
    s = text.replace("**", "^").replace(" ", "")
    if not s:
        raise InputError("empty polynomial string")
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise InputError(f"cannot parse polynomial: {text!r}")
    budget = term_budget()
    p = UniPoly.zero()
    for term in terms:
        sign = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign = -1
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("t") is None):
            raise InputError(f"cannot parse term {term!r} in {text!r}")
        coef = rat(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("t"):
            k = _exponent(m.group("pow") or "1", budget)
        else:
            k = 0
        p = p + UniPoly.monomial(k, sign * coef)
    return p


# ---------------------------------------------------------------------------
# Lie algebras


@dataclass(frozen=True)
class LieAlgebra:
    """Finite dimensional Lie algebra with fixed basis.

    sc holds entries (i, j, ((k, coef), ...)) for i < j only; brackets with
    i > j follow by antisymmetry and [x, x] = 0.  form, when present, is the
    Gram matrix of an invariant nondegenerate symmetric bilinear form.
    """

    name: str
    labels: tuple
    sc: tuple
    form: QMatrix | None = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """Hash of every field, computed once per instance: algebras key
        the lru caches of invariantlab, and hashing all of sc and form on
        every lookup costs more than many of the cached calls."""
        return hash((self.name, self.labels, self.sc, self.form))

    @cached_property
    def _sc_map(self) -> dict:
        out = {}
        for i, j, entries in self.sc:
            if not (0 <= i < j < self.dim):
                raise InputError("structure constants must use i < j")
            out[(i, j)] = tuple(entries)
        return out

    def bracket(self, i: int, j: int) -> tuple:
        """[x_i, x_j] as ((k, coef), ...)."""
        if i == j:
            return ()
        if i < j:
            return self._sc_map.get((i, j), ())
        return tuple((k, -c) for k, c in self._sc_map.get((j, i), ()))

    @cached_property
    def form_inverse(self) -> QMatrix:
        from .exactla import mat_inv

        if self.form is None:
            raise InputError(f"{self.name} carries no bilinear form")
        return mat_inv(self.form)


def check_form_invariant(q: LieAlgebra) -> bool:
    """Whether the stored form satisfies ([x,y],z) = (x,[y,z])."""
    if q.form is None:
        raise InputError(f"{q.name} carries no bilinear form")
    n = q.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum(
                    (c * q.form.at(m, k) for m, c in q.bracket(i, j)),
                    Fraction(0),
                )
                rhs = sum(
                    (c * q.form.at(i, m) for m, c in q.bracket(j, k)),
                    Fraction(0),
                )
                if lhs != rhs:
                    return False
    return True


def _mat_comm(a, b, n):
    """ab - ba as a dense n x n matrix, from the nonzero entries of a and b."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for i, k, c in x:
            for k2, j, c2 in y:
                if k == k2:
                    out[i][j] += sign * c * c2
    return out


def _mat_trace_prod(a, b):
    """tr(ab) from the nonzero entries of a and b."""
    return sum(
        (c * c2 for i, k, c in a for k2, i2, c2 in b if k == k2 and i == i2),
        Fraction(0),
    )


def _matrix_basis(kind: str, n: int) -> tuple:
    """(labels, matrices) of the built-in basis of sl_n or gl_n.

    sl_n: upper E_ij, then H_a = E_aa - E_{a+1,a+1}, then lower E_ij, with
    the classical labels (e, h, f) for n = 2.  gl_n: upper E_ij, diagonal
    E_ii, then lower E_ij.  A matrix is the tuple of its nonzero entries
    (i, j, c).
    """
    one = Fraction(1)
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lower = [(j, i) for (i, j) in upper]
    if kind == "sl":
        diag = [((a, a, one), (a + 1, a + 1, -one)) for a in range(n - 1)]
        diag_labels = [f"h{a + 1}" for a in range(n - 1)]
    else:
        diag = [((i, i, one),) for i in range(n)]
        diag_labels = [f"e{i + 1}{i + 1}" for i in range(n)]
    mats = [((i, j, one),) for (i, j) in upper] + diag + [((i, j, one),) for (i, j) in lower]
    labels = (
        [f"e{i + 1}{j + 1}" for (i, j) in upper]
        + diag_labels
        + [f"e{i + 1}{j + 1}" for (i, j) in lower]
    )
    if kind == "sl" and n == 2:
        labels = ["e", "h", "f"]
    return tuple(labels), tuple(mats)


def _coords(mats, m) -> list:
    """Coefficients of the dense matrix m in the _matrix_basis mats.

    A one-entry basis matrix E_ij reads m[i][j]; the sl_n diagonal H_a
    takes m_11 + ... + m_aa, which is exact on traceless m.
    """
    cs = []
    acc = Fraction(0)
    for ent in mats:
        i, j, _ = ent[0]
        if len(ent) == 1:
            cs.append(m[i][j])
        else:
            acc += m[i][i]
            cs.append(acc)
    return cs


def _algebra_from_matrices(name, kind, n):
    """Assemble structure constants from commutators of the basis matrices.

    The basis matrices have few nonzero entries, so products run over those.
    """
    labels, mats = _matrix_basis(kind, n)
    dim = len(mats)
    sc = []
    for i in range(dim):
        for j in range(i + 1, dim):
            cs = _coords(mats, _mat_comm(mats[i], mats[j], n))
            entries = tuple((k, c) for k, c in enumerate(cs) if c != 0)
            if entries:
                sc.append((i, j, entries))
    gram = QMatrix.from_rows(
        [[_mat_trace_prod(mats[i], mats[j]) for j in range(dim)] for i in range(dim)]
    )
    return LieAlgebra(name, labels, tuple(sc), gram)


def make_sl(n: int) -> LieAlgebra:
    """sl_n in the _matrix_basis order; for n = 2 the labels are (e, h, f)."""
    if n < 2:
        raise InputError("sl_n needs n >= 2")
    return _algebra_from_matrices(f"sl{n}", "sl", n)


def make_gl(n: int) -> LieAlgebra:
    """gl_n with basis: upper E_ij, diagonal E_ii, then lower E_ij."""
    if n < 1:
        raise InputError("gl_n needs n >= 1")
    return _algebra_from_matrices(f"gl{n}", "gl", n)


def make_abelian(k: int) -> LieAlgebra:
    if k < 1:
        raise InputError("need at least one generator")
    return LieAlgebra(
        f"abelian:{k}", tuple(f"a{i + 1}" for i in range(k)), (), None
    )


def make_direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    labels = tuple(f"{l}_1" for l in a.labels) + tuple(f"{l}_2" for l in b.labels)
    sc = list(a.sc)
    off = a.dim
    for i, j, entries in b.sc:
        sc.append((i + off, j + off, tuple((k + off, c) for k, c in entries)))
    form = None
    if a.form is not None and b.form is not None:
        rows = []
        for i in range(a.dim):
            rows.append(a.form.row(i) + [Fraction(0)] * b.dim)
        for i in range(b.dim):
            rows.append([Fraction(0)] * a.dim + b.form.row(i))
        form = QMatrix.from_rows(rows)
    return LieAlgebra(f"sum:{a.name},{b.name}", labels, tuple(sc), form)


def make_takiff(q: LieAlgebra, k: int) -> LieAlgebra:
    """q[t]/(t^k) flattened to a plain Lie algebra; towers are allowed.

    BudgetError, before anything is built, when its dim^2 bracket pairs
    exceed the term budget.
    """
    if k < 1:
        raise InputError("truncation order must be positive")
    budget = term_budget()
    if (q.dim * k) ** 2 > budget:
        raise BudgetError(f"takiff of dimension {q.dim} * {k} has more than "
                          f"{budget} bracket pairs")
    labels = tuple(
        f"{lab}.t{a}" for a in range(k) for lab in q.labels
    )
    dim = q.dim
    sc = []
    for a in range(k):
        for b in range(a, k):
            if a + b >= k:
                continue
            for i in range(dim):
                lo = i + 1 if a == b else 0
                for j in range(lo, dim):
                    u = a * dim + i
                    v = b * dim + j
                    if u >= v:
                        continue
                    entries = tuple(
                        ((a + b) * dim + m, c) for m, c in q.bracket(i, j)
                    )
                    if entries:
                        sc.append((u, v, entries))
    form = None
    if q.form is not None:
        rows = []
        for a in range(k):
            for i in range(dim):
                row = []
                for b in range(k):
                    for j in range(dim):
                        row.append(
                            q.form.at(i, j) if a + b == k - 1 else Fraction(0)
                        )
                rows.append(row)
        form = QMatrix.from_rows(rows)
    return LieAlgebra(f"takiff:{q.name}:{k}", labels, tuple(sorted(sc)), form)


def builtin_algebra(name: str) -> LieAlgebra:
    """Resolve names like sl3, abelian:4, takiff:sl2:2, sum:sl2,sl2."""
    name = name.strip()
    if re.fullmatch(r"(sl|gl)[2-9]", name):
        kind, n = name[:2], int(name[2:])
        return make_sl(n) if kind == "sl" else make_gl(n)
    if name.startswith("abelian:"):
        return make_abelian(int(name.split(":", 1)[1]))
    if name.startswith("takiff:"):
        _, rest = name.split(":", 1)
        base, k = rest.rsplit(":", 1)
        return make_takiff(builtin_algebra(base), int(k))
    if name.startswith("sum:"):
        parts = name[4:].split(",")
        if len(parts) != 2:
            raise InputError("sum:<a>,<b> takes exactly two names")
        return make_direct_sum(builtin_algebra(parts[0]), builtin_algebra(parts[1]))
    raise InputError(f"unknown algebra name {name!r}")


def algebra_to_json(q: LieAlgebra) -> dict:
    sc = []
    for i, j, entries in q.sc:
        for k, c in entries:
            sc.append([i, j, k, rat_str(c)])
    d = {
        "name": q.name,
        "dim": q.dim,
        "basis": list(q.labels),
        "sc": sc,
        "form": None,
    }
    if q.form is not None:
        d["form"] = [
            [rat_str(q.form.at(i, j)) for j in range(q.dim)] for i in range(q.dim)
        ]
    return d


def algebra_from_json(d: dict) -> LieAlgebra:
    try:
        labels = tuple(d["basis"])
        dim = int(d["dim"])
    except (KeyError, TypeError) as exc:
        raise InputError("algebra json needs 'dim' and 'basis'") from exc
    if len(labels) != dim or len(set(labels)) != dim:
        raise InputError("basis labels must be distinct and match dim")
    acc = {}
    for row in d.get("sc", []):
        i, j, k, c = row
        i, j, k = int(i), int(j), int(k)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise InputError("structure constant index out of range")
        if i == j:
            raise InputError("[x, x] entries must be omitted")
        c = rat(c)
        if i > j:
            i, j, c = j, i, -c
        key = (i, j, k)
        acc[key] = acc.get(key, Fraction(0)) + c
    by_pair = {}
    for (i, j, k), c in acc.items():
        if c != 0:
            by_pair.setdefault((i, j), []).append((k, c))
    sc = tuple(
        (i, j, tuple(sorted(entries))) for (i, j), entries in sorted(by_pair.items())
    )
    form = None
    if d.get("form") is not None:
        form = QMatrix.from_rows(d["form"])
        if form.rows != dim or form.cols != dim:
            raise InputError("form shape must be dim x dim")
    q = LieAlgebra(str(d.get("name", "custom")), labels, sc, form)
    bad = check_table_jacobi(wrap_algebra(q))
    if bad is not None:
        raise InputError(
            f"Jacobi identity fails on basis triple {tuple(i for i, _ in bad)}"
        )
    return q


# ---------------------------------------------------------------------------
# bracket tables on x_i * t^a


Var = tuple  # (base index, t degree)


class BracketTable:
    """Sparse bracket on variables (i, a) representing x_i * t^a.

    table maps (u, v) with flat(u) < flat(v) to ((w, coef), ...); all other
    pairs follow by antisymmetry.  p records the modulus when the table is a
    genuine quotient bracket.
    """

    def __init__(self, base: LieAlgebra, n: int, table: dict, p=None,
                 kind: str = "quotient"):
        self.base = base
        self.n = n
        self.p = p
        self.kind = kind
        canon = {}
        for (u, v), entries in table.items():
            ent = tuple(
                sorted((w, c) for w, c in entries if c != 0)
            )
            if ent:
                canon[(u, v)] = ent
        self.table = canon

    @property
    def dim_total(self) -> int:
        return self.base.dim * self.n

    def flat(self, u: Var) -> int:
        i, a = u
        return a * self.base.dim + i

    def unflat(self, k: int) -> Var:
        return (k % self.base.dim, k // self.base.dim)

    def var_list(self) -> list:
        return [self.unflat(k) for k in range(self.dim_total)]

    @cached_property
    def neighbours(self) -> dict:
        """u -> ((v, [x_u, x_v]), ...) over the nonzero pairs, both orders.

        Built on first use, through scaled_neighbours, so tables that are
        only merged into pencils do not pay for it.
        """
        out = {}
        for (u, v), ent in self.table.items():
            out.setdefault(u, []).append((v, ent))
            out.setdefault(v, []).append((u, tuple((w, -c) for w, c in ent)))
        return {u: tuple(pairs) for u, pairs in out.items()}

    @cached_property
    def scaled_neighbours(self) -> tuple:
        """(D, u -> ((v, ((w, D * c), ...)), ...)): the neighbour index over
        one common denominator.

        D is the lcm of the entry denominators, so every scaled entry is an
        integer and [x_u, x_v] = sum_w (D * c) / D * x_w.  Built on first
        use and read by poisson_bracket, structure_matrix_at and
        check_table_jacobi, so one integer index serves all three.
        """
        den = 1
        for ent in self.table.values():
            for _, c in ent:
                den = math.lcm(den, c.denominator)
        return den, {
            u: tuple(
                (v, tuple((w, c.numerator * (den // c.denominator)) for w, c in ent))
                for v, ent in pairs
            )
            for u, pairs in self.neighbours.items()
        }

    def pair_bracket(self, u: Var, v: Var) -> tuple:
        if u == v:
            return ()
        if self.flat(u) < self.flat(v):
            return self.table.get((u, v), ())
        ent = self.table.get((v, u), ())
        return tuple((w, -c) for w, c in ent)

    def var_label(self, u: Var) -> str:
        i, a = u
        return self.base.labels[i] if self.n == 1 else f"{self.base.labels[i]}.t{a}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BracketTable)
            and self.base.labels == other.base.labels
            and self.n == other.n
            and self.table == other.table
        )

    def __repr__(self) -> str:
        return (
            f"BracketTable({self.base.name}, n={self.n}, kind={self.kind}, "
            f"{len(self.table)} pairs)"
        )


def make_quotient(q: LieAlgebra, p: UniPoly) -> BracketTable:
    """Bracket of q[t]/(p) on the basis x_i * t^a, 0 <= a < deg p."""
    if p.is_zero() or not p.is_monic() or p.degree < 1:
        raise InputError("modulus must be monic of degree >= 1")
    n = p.degree
    dim = q.dim
    rems = []
    cur = UniPoly.one()
    for _ in range(2 * n - 1):
        rems.append(cur.mod(p))
        cur = cur * UniPoly.t()
    table = {}
    for a in range(n):
        for b in range(a, n):
            rem = rems[a + b]
            if rem.is_zero():
                continue
            for i in range(dim):
                lo = i + 1 if a == b else 0
                for j in range(lo, dim):
                    base_ent = q.bracket(i, j)
                    if not base_ent:
                        continue
                    u, v = (i, a), (j, b)
                    acc = {}
                    for k, c in base_ent:
                        for deg, coef in enumerate(rem.coeffs):
                            if coef:
                                acc[(k, deg)] = acc.get((k, deg), 0) + c * coef
                    table[(u, v)] = tuple(acc.items())
    return BracketTable(q, n, table, p=p, kind="quotient")


def wrap_algebra(q: LieAlgebra) -> BracketTable:
    """q itself viewed as the n = 1 quotient by t."""
    return make_quotient(q, UniPoly.t())


def make_direct_power(q: LieAlgebra, n: int) -> BracketTable:
    """n commuting copies of q; variable (i, a) lives in copy a."""
    if n < 1:
        raise InputError("need at least one copy")
    dim = q.dim
    table = {}
    for a in range(n):
        for i in range(dim):
            for j in range(i + 1, dim):
                ent = q.bracket(i, j)
                if ent:
                    table[((i, a), (j, a))] = tuple(((k, a), c) for k, c in ent)
    return BracketTable(q, n, table, p=None, kind="power")


def _table_merge(t1: dict, t2: dict, c1: Fraction, c2: Fraction) -> dict:
    """c1 * t1 + c2 * t2, pair by pair; BracketTable drops the zeros."""
    out = {}
    for key in set(t1) | set(t2):
        acc = out[key] = {}
        for ent, c in ((t1.get(key, ()), c1), (t2.get(key, ()), c2)):
            for w, cf in ent:
                acc[w] = acc.get(w, Fraction(0)) + c * cf
    return {key: tuple(acc.items()) for key, acc in out.items()}


def make_difference_bracket(q: LieAlgebra, p1: UniPoly, p2: UniPoly) -> BracketTable:
    """Difference of the two quotient brackets on the same variables.

    Requires deg(p1 - p2) <= 1; the result is checked to satisfy Jacobi
    directly.
    """
    if p1.degree != p2.degree:
        raise InputError("both moduli must have the same degree")
    if (p1 - p2).degree > 1:
        raise InputError("difference bracket needs deg(p1 - p2) <= 1")
    t1 = make_quotient(q, p1)
    t2 = make_quotient(q, p2)
    merged = _table_merge(t1.table, t2.table, Fraction(1), Fraction(-1))
    T = BracketTable(q, p1.degree, merged, p=None, kind="difference")
    bad = check_table_jacobi(T)
    if bad is not None:
        raise InputError(f"difference bracket breaks Jacobi at {bad}")
    return T


def pencil_combination(t1: BracketTable, t2: BracketTable, a, b) -> BracketTable:
    """a * [.,.]_1 + b * [.,.]_2 on shared variables."""
    a, b = rat(a), rat(b)
    if t1.base.labels != t2.base.labels or t1.n != t2.n:
        raise InputError("tables must share base and truncation order")
    merged = _table_merge(t1.table, t2.table, a, b)
    p = None
    if a + b == 1 and t1.p is not None and t2.p is not None:
        p = t1.p.scale(a) + t2.p.scale(b)
    return BracketTable(t1.base, t1.n, merged, p=p, kind="pencil")


def check_table_antisymmetry(T: BracketTable) -> bool:
    """Structural by storage; re-checks pair_bracket on both orders."""
    for (u, v) in T.table:
        lhs = dict(T.pair_bracket(u, v))
        rhs = dict(T.pair_bracket(v, u))
        for w in set(lhs) | set(rhs):
            if lhs.get(w, Fraction(0)) + rhs.get(w, Fraction(0)) != 0:
                return False
    return True


def check_table_jacobi(T: BracketTable):
    """First flat triple (u, v, w) violating Jacobi, else None.

    BudgetError, before the scan, when the N(N-1)(N-2)/6 triples of the
    N variables exceed the term budget.  Brackets are read on integers from
    T.scaled_neighbours, which scales each cyclic term by D^2.
    """
    vs = T.var_list()
    N = len(vs)
    budget = term_budget()
    if N * (N - 1) * (N - 2) // 6 > budget:
        raise BudgetError(f"Jacobi scan of {N} variables has more than {budget} triples")
    br = {u: dict(T.scaled_neighbours[1].get(u, ())) for u in vs}
    for iu, u in enumerate(vs):
        for iv, v in enumerate(vs[iu + 1:], iu + 1):
            for w in vs[iv + 1:]:
                acc = {}
                for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
                    for m, c in br[x].get(y, ()):
                        for r, c2 in br[m].get(z, ()):
                            acc[r] = acc.get(r, 0) + c * c2
                if any(acc.values()):
                    return (u, v, w)
    return None


# ---------------------------------------------------------------------------
# Chinese remainder data


@dataclass(frozen=True)
class PrimaryComponent:
    """Idempotent r0 and nilpotent seed r1 = (t - root) * r0 mod p."""

    root: Fraction
    mult: int
    r0: UniPoly
    r1: UniPoly


def crt_idempotents(p: UniPoly, roots: Sequence) -> tuple:
    """Orthogonal idempotents for distinct roots (all multiplicities 1)."""
    roots = [rat(a) for a in roots]
    if len(set(roots)) != len(roots):
        raise InputError("roots must be distinct")
    if UniPoly.from_roots(roots) != p:
        raise InputError("roots do not factor p")
    out = []
    for a in roots:
        num = UniPoly.one()
        den = Fraction(1)
        for b in roots:
            if b != a:
                num = num * UniPoly.make([-b, 1])
                den *= a - b
        out.append(num.scale(1 / den).mod(p))
    return tuple(out)


def crt_primary(p: UniPoly, root_data: Sequence) -> tuple:
    """Primary idempotents and nilpotent seeds for a fully split modulus.

    root_data is a sequence of (root, multiplicity) pairs whose product of
    (t - root)^mult must equal p.  For each component, r0 is the idempotent
    and r1 = (t - root) * r0, which vanishes on components with mult = 1.
    """
    pairs = [(rat(a), int(m)) for a, m in root_data]
    roots = [a for a, _ in pairs]
    if len(set(roots)) != len(roots):
        raise InputError("roots must be distinct")
    if any(m < 1 for _, m in pairs):
        raise InputError("multiplicities must be positive")
    if UniPoly.from_roots(pairs) != p:
        raise InputError("root data does not factor p")
    out = []
    for a, m in pairs:
        big = UniPoly.from_roots([(a, m)])
        rest = p.divmod_by(big)[0]
        g, u, v = poly_egcd(big, rest)
        if g.degree != 0:
            raise InputError("components are not coprime")
        # u*big + v*rest = 1, so v*rest is 1 on this component, 0 elsewhere
        r0 = (v * rest).mod(p)
        r1 = (UniPoly.make([-a, 1]) * r0).mod(p)
        out.append(PrimaryComponent(a, m, r0, r1))
    return tuple(out)


# ---------------------------------------------------------------------------
# index by sampled ranks


@dataclass(frozen=True)
class IndexReport:
    dim: int
    rank: int
    index: int
    bound: int
    rounds: int
    seed: int
    witness: tuple


def structure_matrix_at(T: BracketTable, point: dict) -> QMatrix:
    """Matrix of the bracket paired against a point of the dual space.

    Entry (u, v) is the point evaluated on [x_u, x_v], summed on integers
    from T.scaled_neighbours and the point times its lcm denominator L: an
    int when D * L == 1, as at every sampled point, else over D * L.
    """
    D, index = T.scaled_neighbours
    L = math.lcm(*(x.denominator for x in point.values()))
    pt = {w: x.numerator * (L // x.denominator) for w, x in point.items()}
    pos = {v: k for k, v in enumerate(T.var_list())}
    N, den = len(pos), D * L
    ent = [0] * (N * N)
    for u, pairs in index.items():
        for v, scaled in pairs:
            val = sum(c * pt.get(w, 0) for w, c in scaled)
            ent[pos[u] * N + pos[v]] = val if den == 1 else Fraction(val, den)
    return QMatrix(N, N, tuple(ent))


def sampled_max_rank(matrix_at, nvars: int, seed: int = 0, samples: int = 4,
                     bound: int = 1000):
    """Generic rank of matrix_at(point), sampled at random integer points.

    matrix_at takes a tuple of nvars ints and returns a QMatrix.  Two
    batches of samples points, coordinates drawn from [-bound, bound], are
    ranked; on disagreement the bound doubles and both batches rerun, up to
    five rounds in all.  Returns (rank, witness, bound, rounds), the witness
    a tuple of Fraction.

    Samples are ranked over GF(exactla.PRIME), which never over-counts.
    The witness is the first sample of highest rank mod p, and the returned
    rank is its exact rank (not recomputed when the rank mod p is already
    min(rows, cols)), so it is never above the generic rank r.  A sample
    falls short of r with probability at most deg/(2*bound + 1), deg the
    degree in the point of a nonzero r x r minor (Schwartz-Zippel holds
    over GF(p) as over Q); the one other cause is a PRIME dividing every
    generic r x r minor, a property of the input.  Witness, bound and
    rounds are those exact ranks would give unless, at some sample, PRIME
    divides every minor the size of its rank.
    """
    rng = random.Random(seed)
    best = (-1, None, None)
    for rounds in range(1, 6):
        batch_ranks = []
        for _ in range(2):
            best_in_batch = (-1, None, None)
            for _ in range(samples):
                pt = tuple(rng.randint(-bound, bound) for _ in range(nvars))
                m = matrix_at(pt)
                r = rank_mod_p(m)
                if r > best_in_batch[0]:
                    best_in_batch = (r, pt, m)
            batch_ranks.append(best_in_batch)
        b1, b2 = batch_ranks
        top = max(b1, b2, key=lambda x: x[0])
        if top[0] > best[0]:
            best = top
        if b1[0] == b2[0]:
            break
        bound *= 2
    r, pt, m = best
    if r < min(m.rows, m.cols):
        r = rank(m)
    return r, tuple(Fraction(x) for x in pt), bound, rounds


def index_report(T, seed: int = 0, samples: int = 4, bound: int = 1000) -> IndexReport:
    """Index of the bracket as corank of the sampled structure matrix.

    The samples are ranked over GF(exactla.PRIME) and the reported rank is
    exact at the witness (see sampled_max_rank), so it is never above the
    generic rank r.  The structure matrix is linear in the point, so a
    sample falls short of r with probability at most r/(2*bound + 1); the
    one other cause is a PRIME dividing every generic r x r minor, which is
    a property of the table.
    """
    if isinstance(T, LieAlgebra):
        T = wrap_algebra(T)
    vs = T.var_list()

    def matrix(flat_point):
        return structure_matrix_at(T, dict(zip(vs, flat_point)))

    r, witness, used_bound, rounds = sampled_max_rank(
        matrix, T.dim_total, seed=seed, samples=samples, bound=bound
    )
    return IndexReport(
        dim=T.dim_total,
        rank=r,
        index=T.dim_total - r,
        bound=used_bound,
        rounds=rounds,
        seed=seed,
        witness=witness,
    )


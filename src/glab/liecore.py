"""Lie algebras with exact structure constants and their current-algebra quotients.

The basic objects are a finite dimensional Lie algebra with a chosen basis
(structure constants over Fraction, optionally an invariant symmetric form)
and bracket tables on bases of the form x_i * t^a.  A table stores one
integer neighbour index, keyed by the positions a * dim + i of its basis,
over a canonical common denominator, and every
constructor builds it on integers: quotients by a monic polynomial p (the
truncated current algebras), direct powers, and linear combinations of two
tables, the difference bracket among them.
"""
from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .exactla import (
    BudgetError,
    PRIME,
    InputError,
    QMatrix,
    RowSpace,
    mat_inv,
    pack_mod_p,
    packed_width,
    rank_packed_mod_p,
    rank_skew,
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
        if k >= (budget := term_budget()):
            raise BudgetError(f"t^{k} needs more than {budget} coefficients")
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


def t_powers_mod(p: UniPoly):
    """t^0 mod p, t^1 mod p, ... for p monic of degree n >= 1, without end.

    Each power comes from the one before with no division: t * r has
    degree at most n, and subtracting its t^n coefficient times p leaves
    t^(a+1) mod p.
    """
    n = p.degree
    low = p.coeffs[:n]
    cur = [Fraction(1)] + [Fraction(0)] * (n - 1)
    while True:
        yield UniPoly.make(cur)
        top = cur[-1]
        if top:
            cur = [-top * low[0]] + [c - top * b for c, b in zip(cur, low[1:])]
        else:
            cur = [top] + cur[:-1]


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
    matrices, when present, holds one matrix per basis element as its entries
    (i, j, c), for the characteristic invariants.  name is for messages.
    """

    name: str
    labels: tuple
    sc: tuple
    form: QMatrix | None = None
    matrices: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """Hash of every field, computed once per instance: algebras key
        the lru caches of invariantlab, and hashing all of sc, form and
        matrices on every lookup costs more than many of the cached calls."""
        return hash((self.name, self.labels, self.sc, self.form, self.matrices))

    @cached_property
    def _int_brackets(self) -> tuple:
        """(D, {(i, j): ((k, n), ...)}): every nonzero [x_i, x_j], i != j,
        keyed in (i, j) order, with coefficients n / D on integers, D the
        lcm of the sc denominators; entries merged by k, in ascending k.
        Read once from sc, whose pairs must have i < j."""
        den = math.lcm(*(c.denominator for _, _, ent in self.sc for _, c in ent))
        out = {}
        for i, j, entries in self.sc:
            if not (0 <= i < j < self.dim):
                raise InputError("structure constants must use i < j")
            acc = {}
            for k, c in entries:
                acc[k] = acc.get(k, 0) + c
            ent = tuple((k, c.numerator * (den // c.denominator))
                        for k, c in sorted(acc.items()) if c)
            out[i, j], out[j, i] = ent, tuple((k, -n) for k, n in ent)
        return den, {key: ent for key, ent in sorted(out.items()) if ent}

    def bracket(self, i: int, j: int) -> tuple:
        """[x_i, x_j] as ((k, coef), ...)."""
        den, brackets = self._int_brackets
        return tuple((k, Fraction(n, den)) for k, n in brackets.get((i, j), ()))

    @cached_property
    def module_generators(self) -> tuple:
        """Indices of basis elements that generate q as an ad(q)-module.

        Chosen greedily in basis order: x_i is taken when it lies outside
        the submodule generated by the earlier choices, and that submodule
        is then closed exactly under every ad(x_j), from the structure
        constants alone.  A simple algebra needs one generator, an abelian
        one every basis element.
        """
        brackets = self._int_brackets[1]
        span = RowSpace(self.dim)
        gens = []
        for i in range(self.dim):
            unit = [int(k == i) for k in range(self.dim)]
            if not span.add(unit):
                continue
            gens.append(i)
            todo = [unit]
            while todo and span.dim < self.dim:
                w = todo.pop()
                for j in range(self.dim):
                    v = [0] * self.dim
                    for k, c in enumerate(w):
                        if c:
                            for m, s in brackets.get((j, k), ()):
                                v[m] += c * s
                    if any(v) and span.add(v):
                        todo.append(v)
        return tuple(gens)

    @cached_property
    def form_inverse(self) -> QMatrix:
        if self.form is None:
            raise InputError(f"{self.name} carries no bilinear form")
        return mat_inv(self.form)


def check_form_invariant(q: LieAlgebra) -> bool:
    """Whether the stored form satisfies ([x,y],z) = (x,[y,z]): each
    nonzero [x_i, x_j] = sum_m c x_m adds c g_mk to ([x_i, x_j], x_k) and
    takes g_km c from (x_k, [x_i, x_j]), and no sum may be left over."""
    if q.form is None:
        raise InputError(f"{q.name} carries no bilinear form")
    acc = {}
    for (i, j), ent in q._int_brackets[1].items():
        for m, c in ent:
            for k in range(q.dim):
                acc[i, j, k] = acc.get((i, j, k), 0) + c * q.form.at(m, k)
                acc[k, i, j] = acc.get((k, i, j), 0) - q.form.at(k, m) * c
    return not any(acc.values())


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
    return LieAlgebra(name, labels, tuple(sc), gram, mats)


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


def _check_pairs(what: str, n: int) -> None:
    """BudgetError when the n^2 bracket pairs of n variables exceed the
    term budget: the bound on every algebra or table built from a name."""
    budget = term_budget()
    if n * n > budget:
        raise BudgetError(f"{what} on {n} variables has more than {budget} bracket pairs")


def make_abelian(k: int) -> LieAlgebra:
    """The abelian algebra on k generators; BudgetError, before any label
    is made, when its k^2 bracket pairs exceed the term budget."""
    if k < 1:
        raise InputError("need at least one generator")
    _check_pairs(f"abelian:{k}", k)
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
    exceed the term budget.  The structure constants are the pairs of the
    quotient table by t^k (make_quotient), read as they are stored: x_i t^a
    is labelled by its position a * dim + i.
    """
    if k < 1:
        raise InputError("truncation order must be positive")
    _check_pairs(f"takiff:{q.name}:{k}", q.dim * k)
    T = make_quotient(q, UniPoly.monomial(k))
    D, index = T.scaled_neighbours
    dim = q.dim
    labels = tuple(f"{lab}.t{a}" for a in range(k) for lab in q.labels)
    sc = tuple(sorted((u, v, tuple((w, Fraction(c, D)) for w, c in ent))
                      for u, nb in index.items() for v, ent in nb if u < v))
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
    return LieAlgebra(f"takiff:{q.name}:{k}", labels, sc, form)


def builtin_algebra(name: str) -> LieAlgebra:
    """Resolve names like sl3, abelian:4, takiff:sl2:2, sum:sl2,sl2.

    Interned: one algebra per name, stripped, for the life of the process,
    so the caches keyed by algebra (invariantlab's, the form pairings) hit
    by identity rather than by comparing structure constants.  A name
    already built is returned without rebuilding, so the term budget, which
    bounds the building, is checked only the first time.
    """
    return _builtin_algebra(name.strip())


@lru_cache(maxsize=None)
def _builtin_algebra(name: str) -> LieAlgebra:
    if re.fullmatch(r"(sl|gl)[2-9]", name):
        kind, n = name[:2], int(name[2:])
        return make_sl(n) if kind == "sl" else make_gl(n)
    if name.startswith("abelian:"):
        return make_abelian(_name_count(name, name[8:]))
    if name.startswith("takiff:"):
        base, sep, k = name[7:].rpartition(":")
        if not sep:
            raise InputError(f"{name!r} is not of the form takiff:<algebra>:<order>")
        return make_takiff(builtin_algebra(base), _name_count(name, k))
    if name.startswith("sum:"):
        parts = name[4:].split(",")
        if len(parts) != 2:
            raise InputError("sum:<a>,<b> takes exactly two names")
        return make_direct_sum(builtin_algebra(parts[0]), builtin_algebra(parts[1]))
    raise InputError(f"unknown algebra name {name!r}")


def _name_count(name: str, digits: str) -> int:
    """The count that a built-in name ends in; InputError unless it is
    written in ASCII digits.  A count longer than the term budget exceeds
    it, and so does its square: BudgetError before int() reads it."""
    if not (digits.isascii() and digits.isdigit()):
        raise InputError(f"{name!r} must end in a count, not {digits!r}")
    digits = digits.lstrip("0") or "0"
    budget = term_budget()
    if len(digits) > len(str(budget)):
        raise BudgetError(f"a count of {len(digits)} digits exceeds budget {budget}")
    return int(digits)


def algebra_to_json(q: LieAlgebra) -> dict:
    return {
        "name": q.name,
        "dim": q.dim,
        "basis": list(q.labels),
        "sc": [[i, j, k, rat_str(c)] for i, j, entries in q.sc for k, c in entries],
        "form": None if q.form is None else [
            [rat_str(q.form.at(i, j)) for j in range(q.dim)] for i in range(q.dim)],
        "matrices": None if q.matrices is None else [
            [[i, j, rat_str(c)] for i, j, c in m] for m in q.matrices],
    }


def _json_rows(rows, width: int, what: str) -> tuple:
    """rows as tuples of width - 1 JSON integers >= 0 and a rational."""
    if not isinstance(rows, (list, tuple)):
        raise InputError(f"{what} entries must be a list")
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise InputError(f"{what} entry {row!r} is not a list of {width} values")
        *idx, c = row
        if not all(type(x) is int and x >= 0 for x in idx):
            raise InputError(f"{what} entry {row!r} needs nonnegative integer indices")
        out.append((*idx, rat(c)))
    return tuple(out)


def algebra_from_json(d: dict) -> LieAlgebra:
    """Inverse of algebra_to_json, Jacobi checked, and the form, when given,
    checked symmetric, nondegenerate and invariant as LieAlgebra requires;
    InputError if malformed."""
    try:
        labels = tuple(d["basis"])
        dim = d["dim"]
    except (KeyError, TypeError) as exc:
        raise InputError("algebra json needs 'dim' and 'basis'") from exc
    if (type(dim) is not int or not isinstance(d["basis"], (list, tuple))
            or not all(isinstance(x, str) for x in labels)
            or len(labels) != dim or len(set(labels)) != dim):
        raise InputError("basis labels must be distinct strings and match an integer dim")
    name = d.get("name", "custom")
    if not isinstance(name, str):
        raise InputError("algebra name must be a string")
    acc = {}
    for i, j, k, c in _json_rows(d.get("sc", []), 4, "structure constant"):
        if not (i < dim and j < dim and k < dim):
            raise InputError("structure constant index out of range")
        if i == j:
            raise InputError("[x, x] entries must be omitted")
        if i > j:
            i, j, c = j, i, -c
        acc[i, j, k] = acc.get((i, j, k), 0) + c
    by_pair = {}
    for (i, j, k), c in sorted(acc.items()):
        if c:
            by_pair.setdefault((i, j), []).append((k, c))
    sc = tuple((i, j, tuple(entries)) for (i, j), entries in by_pair.items())
    form = None
    if d.get("form") is not None:
        rows = d["form"]
        if not (isinstance(rows, (list, tuple))
                and all(isinstance(r, (list, tuple)) for r in rows)):
            raise InputError("form must be a list of rows")
        form = QMatrix.from_rows(rows)
        if form.rows != dim or form.cols != dim:
            raise InputError("form shape must be dim x dim")
        if any(form.at(i, j) != form.at(j, i) for i in range(dim) for j in range(i)):
            raise InputError("form must be symmetric")
    matrices = d.get("matrices")
    if matrices is not None:
        if not isinstance(matrices, (list, tuple)) or len(matrices) != dim:
            raise InputError("matrices must be a list of dim matrices")
        matrices = tuple(_json_rows(m, 3, "matrix") for m in matrices)
    q = LieAlgebra(name, labels, sc, form, matrices)
    bad = check_table_jacobi(wrap_algebra(q))
    if bad is not None:
        raise InputError(
            f"Jacobi identity fails on basis triple {tuple(i for i, _ in bad)}"
        )
    if form is not None:
        try:
            q.form_inverse
        except InputError as exc:
            raise InputError("form is degenerate") from exc
        if not check_form_invariant(q):
            raise InputError("form is not invariant under the bracket")
    return q


# ---------------------------------------------------------------------------
# bracket tables on x_i * t^a


Var = tuple  # (base index, t degree)


class BracketTable:
    """Sparse bracket on the basis x_i * t^a of q[t]/(p), n = deg p levels.

    Every index is a position a * dim + i in 0..N-1, N = dim * n, the
    order of var_list(); unflat and var_list give the variable (i, a) of a
    position.  pairs maps positions u < v to ((w, n), ...) on integers,
    [x_u, x_v] = sum_w n / den * x_w; all other pairs follow by
    antisymmetry.  Zero entries are dropped, each entry is sorted by w, and
    den and every n are divided by their gcd, so D below is canonical.
    scaled_neighbours, the one stored form of the bracket, is
    (D, u -> ((v, ((w, n), ...)), ...)): both orders of every pair, the
    sign applied, in the order of pairs.  poisson_bracket, index_report,
    structure_matrix_at and check_table_jacobi all read it.
    """

    def __init__(self, base: LieAlgebra, n: int, den: int, pairs: dict):
        self.base = base
        self.n = n
        kept = {}
        for key, entries in pairs.items():
            ent = tuple(sorted((w, c) for w, c in entries if c))
            if ent:
                kept[key] = ent
        g = math.gcd(den, *(c for ent in kept.values() for _, c in ent))
        index = {}
        for (u, v), ent in kept.items():
            if g > 1:
                ent = tuple((w, c // g) for w, c in ent)
            index.setdefault(u, []).append((v, ent))
            index.setdefault(v, []).append((u, tuple((w, -c) for w, c in ent)))
        self.scaled_neighbours = (den // g, {u: tuple(nb) for u, nb in index.items()})

    @property
    def dim_total(self) -> int:
        return self.base.dim * self.n

    def unflat(self, k: int) -> Var:
        return (k % self.base.dim, k // self.base.dim)

    def var_list(self) -> list:
        return [self.unflat(k) for k in range(self.dim_total)]

    @cached_property
    def table(self) -> dict:
        """(u, v) -> ((w, c), ...) on variables, c in Fraction, over the
        stored pairs of positions u < v: a view derived from
        scaled_neighbours, for the reference oracles of the tests and the
        pair counts of bench/tracer.py."""
        D, index = self.scaled_neighbours
        vs = self.var_list()
        return {(vs[u], vs[v]): tuple((vs[w], Fraction(c, D)) for w, c in ent)
                for u, nb in index.items() for v, ent in nb if u < v}

    def __eq__(self, other) -> bool:
        if not (isinstance(other, BracketTable) and self.base.labels == other.base.labels
                and self.n == other.n):
            return False
        (D1, i1), (D2, i2) = self.scaled_neighbours, other.scaled_neighbours
        return D1 == D2 and {u: dict(nb) for u, nb in i1.items()} == {
            u: dict(nb) for u, nb in i2.items()}

    def __repr__(self) -> str:
        pairs = sum(map(len, self.scaled_neighbours[1].values())) // 2
        return f"BracketTable({self.base.name}, n={self.n}, {pairs} pairs)"


def make_quotient(q: LieAlgebra, p: UniPoly) -> BracketTable:
    """Bracket of q[t]/(p) on the basis x_i * t^a, 0 <= a < deg p.

    [x_i t^a, x_j t^b] = [x_i, x_j] * (t^(a+b) mod p), formed on integers:
    the numerators of q's nonzero brackets (LieAlgebra._int_brackets) times
    those of the remainders, over the product of their denominators, which
    BracketTable reduces to the canonical D.
    """
    if p.is_zero() or not p.is_monic() or p.degree < 1:
        raise InputError("modulus must be monic of degree >= 1")
    n, dim = p.degree, q.dim
    _check_pairs(f"{q.name}[t]/(p) of degree {n}", dim * n)
    rems = list(itertools.islice(t_powers_mod(p), 2 * n - 1))
    den_p = math.lcm(*(c.denominator for r in rems for c in r.coeffs))
    rem_nums = [[(d, c.numerator * (den_p // c.denominator)) for d, c in enumerate(r.coeffs) if c]
                for r in rems]
    den_q, brackets = q._int_brackets
    pairs = {}
    for a in range(n):
        for b in range(a, n):
            rem = rem_nums[a + b]
            if not rem:
                continue
            for (i, j), ent in brackets.items():
                if a == b and i > j:
                    continue
                pairs[a * dim + i, b * dim + j] = tuple(
                    (d * dim + k, c * r) for k, c in ent for d, r in rem)
    return BracketTable(q, n, den_q * den_p, pairs)


def wrap_algebra(q: LieAlgebra) -> BracketTable:
    """q itself viewed as the n = 1 quotient by t."""
    return make_quotient(q, UniPoly.t())


def make_direct_power(q: LieAlgebra, n: int) -> BracketTable:
    """n commuting copies of q; variable (i, a) lives in copy a."""
    if n < 1:
        raise InputError("need at least one copy")
    den, brackets = q._int_brackets
    pairs = {(o + i, o + j): tuple((o + k, c) for k, c in ent)
             for o in range(0, n * q.dim, q.dim) for (i, j), ent in brackets.items() if i < j}
    return BracketTable(q, n, den, pairs)


def check_pencil_moduli(p1: UniPoly, p2: UniPoly) -> None:
    """InputError unless p1 and p2 span a pencil: both monic of degree
    >= 1, of the same degree, different, and deg(p1 - p2) <= 1."""
    for p in (p1, p2):
        if p.is_zero() or not p.is_monic() or p.degree < 1:
            raise InputError("pencil moduli must be monic of degree >= 1")
    if p1.degree != p2.degree:
        raise InputError("pencil moduli must share a degree")
    diff = p1 - p2
    if diff.is_zero():
        raise InputError("pencil moduli must differ")
    if diff.degree > 1:
        raise InputError("pencil needs deg(p1 - p2) <= 1")


def make_difference_bracket(q: LieAlgebra, p1: UniPoly, p2: UniPoly) -> BracketTable:
    """Difference of the two quotient brackets on the same variables.

    The moduli must span a pencil (check_pencil_moduli); the result is
    checked to satisfy Jacobi directly.
    """
    check_pencil_moduli(p1, p2)
    T = pencil_combination(make_quotient(q, p1), make_quotient(q, p2), 1, -1)
    bad = check_table_jacobi(T)
    if bad is not None:
        raise InputError(f"difference bracket breaks Jacobi at {bad}")
    return T


def pencil_combination(t1: BracketTable, t2: BracketTable, a, b) -> BracketTable:
    """a * [.,.]_1 + b * [.,.]_2 on shared variables.

    The two integer indices are summed over L = lcm(D1 * den a, D2 * den b),
    the pairs of t1 first, in its index order, then those only t2 has.
    """
    a, b = rat(a), rat(b)
    if t1.base.labels != t2.base.labels or t1.n != t2.n:
        raise InputError("tables must share base and truncation order")
    (D1, i1), (D2, i2) = t1.scaled_neighbours, t2.scaled_neighbours
    L = math.lcm(D1 * a.denominator, D2 * b.denominator)
    pairs: dict = {}
    for index, s in ((i1, a.numerator * (L // (D1 * a.denominator))),
                     (i2, b.numerator * (L // (D2 * b.denominator)))):
        if not s:
            continue
        for u, nb in index.items():
            for v, ent in nb:
                if u < v:
                    acc = pairs.setdefault((u, v), {})
                    for w, c in ent:
                        acc[w] = acc.get(w, 0) + s * c
    return BracketTable(t1.base, t1.n, L, {key: acc.items() for key, acc in pairs.items()})


def check_table_antisymmetry(T: BracketTable) -> bool:
    """Whether T.scaled_neighbours lists [x_v, x_u] = -[x_u, x_v] for every
    pair (u, v) it holds, and no [x_u, x_u]."""
    index = T.scaled_neighbours[1]
    back = {u: dict(nb) for u, nb in index.items()}
    return all(
        u != v and back.get(v, {}).get(u) == tuple((w, -c) for w, c in ent)
        for u, nb in index.items() for v, ent in nb
    )


def check_table_jacobi(T: BracketTable):
    """First triple of variables (u, v, w), in ascending position, that
    violates Jacobi, else None.

    BudgetError, before the scan, when the N(N-1)(N-2)/6 triples of the
    N positions exceed the term budget.  Brackets are read on integers from
    T.scaled_neighbours, which scales each cyclic term by D^2, and the
    scan runs on positions; only the failing triple is turned back into
    variables (T.unflat).

    For u < v only some w > v can fail.  When w brackets neither x_u nor
    x_v (the index holds both orders of each pair), two cyclic terms vanish
    and the third is the sum of the [x_m, x_w] over the x_m in [x_u, x_v],
    zero unless w is a neighbour of such an m.  So for each pair only the
    neighbours of u, v and those m are visited, in ascending position, and
    the first failing triple is the one a scan of all triples finds.
    """
    N = T.dim_total
    budget = term_budget()
    if N * (N - 1) * (N - 2) // 6 > budget:
        raise BudgetError(f"Jacobi scan of {N} variables has more than {budget} triples")
    index = T.scaled_neighbours[1]
    br = [dict(index.get(u, ())) for u in range(N)]
    for u in range(N):
        for v in range(u + 1, N):
            near = br[u].keys() | br[v].keys()
            for m, _ in br[u].get(v, ()):
                near |= br[m].keys()
            for w in sorted(k for k in near if k > v):
                acc = {}
                for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
                    for m, c in br[x].get(y, ()):
                        for r, c2 in br[m].get(z, ()):
                            acc[r] = acc.get(r, 0) + c * c2
                if any(acc.values()):
                    return tuple(map(T.unflat, (u, v, w)))
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
    """Orthogonal idempotents for distinct roots (all multiplicities 1): the
    r0 of each component of crt_primary."""
    return tuple(c.r0 for c in crt_primary(p, [(a, 1) for a in roots]))


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


def _structure_upper(T: BracketTable, point) -> list:
    """Strict upper triangle of D * M(point), D = T.scaled_neighbours[0],
    at an integer point, the N ints of its coordinates in position order
    as sampled_max_rank draws them: row u lists D * point([x_u, x_v]) for
    positions v > u, summed on integers from T.scaled_neighbours.  One
    global scale keeps the skew symmetry and the rank of M, so
    exactla.rank_skew ranks it as it stands.
    """
    index = T.scaled_neighbours[1]
    N = T.dim_total
    rows = [[0] * (N - 1 - k) for k in range(N)]
    for u, pairs in index.items():
        row = rows[u]
        for v, scaled in pairs:
            if v > u:
                row[v - u - 1] = sum([c * point[w] for w, c in scaled])
    return rows


def structure_matrix_at(T: BracketTable, point: dict) -> QMatrix:
    """Matrix of the bracket paired against a point of the dual space.

    The point maps variables to rationals, absent variables 0; it is read
    once into position order.  Entry (u, v), at positions u and v, is the
    point evaluated on [x_u, x_v]: _structure_upper at
    the point times its lcm denominator L, entry (v, u) its negative, an
    int when D * L == 1, else over D * L.  index_report never builds it:
    its samples are ranked from packed rows (_structure_ranks_mod_p) and
    its witness from _structure_upper by exactla.rank_skew.
    """
    D = T.scaled_neighbours[0]
    L = math.lcm(*(x.denominator for x in point.values()))
    xs = [point.get(v, 0) for v in T.var_list()]
    pt = [x.numerator * (L // x.denominator) for x in xs]
    N, den = T.dim_total, D * L
    ent = [0] * (N * N)
    for u, row in enumerate(_structure_upper(T, pt)):
        for v, val in enumerate(row, u + 1):
            if val:
                x = val if den == 1 else Fraction(val, den)
                ent[u * N + v], ent[v * N + u] = x, -x
    return QMatrix(N, N, tuple(ent))


def _structure_ranks_mod_p(T: BracketTable):
    """point -> the rank over GF(PRIME) of structure_matrix_at(T, point),
    each row cleared to integers, at an integer point in position order.

    The matrix is linear in the point.  With K[u][w] the packed row
    (exactla.pack_mod_p) of the scaled coefficients D * c^w_uv over the
    columns v, sum_w (x_w mod PRIME) * K[u][w] is D times row u mod PRIME,
    with every field below N * PRIME^2 as rank_packed_mod_p needs.
    Clearing row u divides D times it by gcd(D, row), a unit mod PRIME
    unless PRIME divides both D and the whole row; such a row vanishes mod
    PRIME here but maybe not once cleared, so it is formed exactly, divided
    by that gcd and packed.  The K rows are made once per call, equal ones
    stored once (gl4 t^4-t: 180 distinct of 1,404), and not kept on T.
    """
    D, index = T.scaled_neighbours
    N, p = T.dim_total, PRIME
    width = packed_width(N)
    rows, shared = [], {}
    for pairs in index.values():
        K: dict = {}
        for v, scaled in pairs:
            shift = width * v
            for w, c in scaled:
                K[w] = K.get(w, 0) + (c % p << shift)
        rows.append((pairs, tuple((w, shared.setdefault(k, k)) for w, k in K.items())))
    exact = D % p == 0

    def rank_at(point):
        xs = [x % p for x in point]
        packed = []
        for pairs, K in rows:
            r = sum([xs[j] * k for j, k in K])
            if exact:
                vals = [(v, sum([c * point[w] for w, c in scaled])) for v, scaled in pairs]
                g = math.gcd(D, *(x for _, x in vals))
                if g % p == 0:
                    r = pack_mod_p([(j, x // g) for j, x in vals], width)
            packed.append(r)
        return rank_packed_mod_p(packed, N)

    return rank_at


_SAMPLES, _BOUND, _ROUNDS = 4, 1000, 5  # the sampled-rank protocol


def sampled_max_rank(rank_at, nvars: int, full: int, exact_rank_at, seed: int = 0):
    """Generic rank of a matrix M(point), sampled at random integer points.

    rank_at takes a tuple of nvars ints and returns the rank over
    GF(exactla.PRIME) of M(point) with each row cleared to integers, as
    exactla.rank_mod_p ranks them; exact_rank_at returns the rank of
    M(point) over Q, and full is min(rows, cols) of M.  Two batches of _SAMPLES
    points, coordinates drawn from [-bound, bound], bound = _BOUND, are
    ranked; on disagreement the bound doubles and both batches rerun, up
    to _ROUNDS rounds in all.  Returns (rank, witness, bound, rounds), the
    witness a tuple of Fraction and bound the last one sampled.  Once a
    sample of a batch reaches full rank, which no later sample can beat,
    the rest of the batch is drawn but not ranked: the random stream, and
    with it every later point, is the same as if each were ranked.

    A rank mod p never over-counts.  The witness is the first sample of
    highest rank mod p, and the returned rank is its exact rank (not
    recomputed when the rank mod p is already full), so it is never above
    the generic rank r.  A sample falls short of r with probability at most
    deg/(2*bound + 1), deg the degree in the point of a nonzero r x r minor
    (Schwartz-Zippel holds over GF(p) as over Q); the one other cause is a
    PRIME dividing every generic r x r minor, a property of the input.
    Witness, bound and rounds are those exact ranks would give unless, at
    some sample, PRIME divides every minor the size of its rank.
    """
    rng = random.Random(seed)
    best, bound = (-1, None), _BOUND
    for rounds in range(1, _ROUNDS + 1):
        batch_ranks = []
        for _ in range(2):
            best_in_batch = (-1, None)
            for _ in range(_SAMPLES):
                pt = tuple(rng.randint(-bound, bound) for _ in range(nvars))
                if best_in_batch[0] < full:  # no later sample beats full rank
                    r = rank_at(pt)
                    if r > best_in_batch[0]:
                        best_in_batch = (r, pt)
            batch_ranks.append(best_in_batch)
        b1, b2 = batch_ranks
        top = max(b1, b2, key=lambda x: x[0])
        if top[0] > best[0]:
            best = top
        if b1[0] == b2[0] or rounds == _ROUNDS:
            break
        bound *= 2
    r, pt = best
    if r < full:
        r = exact_rank_at(pt)
    return r, tuple(Fraction(x) for x in pt), bound, rounds


def index_report(T, seed: int = 0) -> IndexReport:
    """Index of the bracket as corank of the sampled structure matrix.

    The samples are ranked over GF(exactla.PRIME) straight from packed rows
    (_structure_ranks_mod_p).  The exact rank at the witness (see
    sampled_max_rank) is taken once, and not at all when the witness is of
    full rank mod p: the integer upper triangle of D * M(witness) is read
    from T.scaled_neighbours (_structure_upper) and ranked by fraction-free
    Pfaffian elimination (exactla.rank_skew), so no Fraction and no QMatrix
    is made.  The rank is exact at the witness, so it is never above the
    generic rank r.  The structure matrix is linear in the point, so a
    sample falls short of r with probability at most r/(2*bound + 1); the
    one other cause is a PRIME dividing every generic r x r minor, which is
    a property of the table.
    """
    if isinstance(T, LieAlgebra):
        T = wrap_algebra(T)
    N = T.dim_total
    r, witness, used_bound, rounds = sampled_max_rank(
        _structure_ranks_mod_p(T), N, N, lambda pt: rank_skew(_structure_upper(T, pt)),
        seed=seed)
    return IndexReport(
        dim=N,
        rank=r,
        index=N - r,
        bound=used_bound,
        rounds=rounds,
        seed=seed,
        witness=witness,
    )

"""Sparse multivariate polynomials over Q in variables x_i * t^a.

A variable is a pair (i, a): base index i, t degree a.  Monomials are
tuples of (variable, exponent) pairs sorted by variable; polynomials map
monomials to Fraction coefficients.  On top of the arithmetic sit the
Poisson bracket against a bracket table, substitutions in t, the raising
derivation tau, reductions mod p, and exact span/rank utilities.  The
bracket table is the one bracket representation: q[t] is bracketed
through its truncation q[t]/(t^N), N above every t degree reached.

Every product runs on one integer kernel, _mul_acc: MPoly products and
powers, substitute_vars, and the derivations (the bracket, the Hamiltonian
images, apply_derivation and through it tau and the directional
derivatives) scale their polynomials and images to integers over one
common denominator, multiply in ints, and turn only the result's
coefficients into Fractions.  The derivations take all partials in one
pass (_partials) and sum the Leibniz rule with _contract.  Every map of
t-levels, x_i t^a -> x_i * r(t) (t -> r(t), psi_p, the shift down, and
the transports of invariantlab), goes through substitute_levels.

Products guard against term blowup: when an operation would exceed the
term budget (GLAB_BUDGET_TERMS, default 2 * 10^6) it raises BudgetError
rather than grinding on.  The budget is defined in exactla, which the
polynomial parser in liecore also reaches; psring re-exports it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactla import (
    BudgetError,
    InputError,
    QMatrix,
    RowSpace,
    rank,
    rat,
    rat_str,
    row_space,
    term_budget,
)
from .liecore import BracketTable, UniPoly

Var = tuple
Mono = tuple


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    """Product of two monomials: one merge of their sorted variables."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        if a[0] == b[0]:
            out.append((a[0], a[1] + b[1]))
            i += 1
            j += 1
        elif a[0] < b[0]:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_t_degree(m: Mono) -> int:
    return sum(v[1] * e for v, e in m)


def mono_sort_key(m: Mono):
    # graded, then lexicographic on the sorted (variable, exponent) pairs
    return (mono_degree(m), m)


class MPoly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if c:
                    t[m] = c
        self.terms = t

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MPoly":
        c = rat(c)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, v: Var, coef=1) -> "MPoly":
        return cls({((tuple(v), 1),): rat(coef)})

    @classmethod
    def from_entries(cls, entries: Iterable) -> "MPoly":
        """Linear polynomial sum of coef * x_v over (v, coef) pairs."""
        acc = {}
        for v, c in entries:
            m = ((tuple(v), 1),)
            acc[m] = acc.get(m, Fraction(0)) + rat(c)
        return cls(acc)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def vars(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def coeff(self, m: Mono) -> Fraction:
        return self.terms.get(tuple(m), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=mono_sort_key):
            c = self.terms[m]
            factors = "".join(
                f"(x{v[0]}.t{v[1]})" + (f"^{e}" if e > 1 else "") for v, e in m
            )
            bits.append(f"{rat_str(c)}*{factors}" if factors else rat_str(c))
        return " + ".join(bits)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m, Fraction(0)) + c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        out = MPoly.__new__(MPoly)
        out.terms = acc
        return out

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        out = MPoly.__new__(MPoly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def scale(self, c) -> "MPoly":
        c = rat(c)
        if c == 0:
            return MPoly.zero()
        out = MPoly.__new__(MPoly)
        out.terms = {m: c * v for m, v in self.terms.items()}
        return out

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        da, a = _numerators(self)
        db, b = _numerators(other)
        return _from_numerators(_product(a, b, term_budget()), da * db)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise InputError("negative power")
        out = MPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return out

    # -- calculus ------------------------------------------------------

    def diff(self, v: Var) -> "MPoly":
        return MPoly(_partials(self.terms).get(tuple(v)))

    def eval_at(self, point: dict) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                pv = point.get(v)
                if pv is None:
                    raise InputError(f"point misses variable {v}")
                val *= pv ** e
                if val == 0:
                    break
            total += val
        return total


# ---------------------------------------------------------------------------
# the Leibniz kernel: integer numerators over one common denominator


def _numerators(F: MPoly) -> tuple:
    """(d, {m: n}) with F = sum_m (n / d) * m, d the lcm of the denominators."""
    den = 1
    for c in F.terms.values():
        den = math.lcm(den, c.denominator)
    return den, {m: c.numerator * (den // c.denominator) for m, c in F.terms.items()}


def _from_numerators(nums: dict, den: int) -> MPoly:
    out = MPoly.__new__(MPoly)
    out.terms = {m: Fraction(n, den) for m, n in nums.items() if n}
    return out


def _partials(terms: dict) -> dict:
    """u -> {m: c}, the terms of dF/dx_u for every u in vars(F), from the
    terms {m: c} of F, on integer numerators or on Fractions alike.

    Dividing a monomial by x_u is injective, so no term cancels here.
    """
    out: dict = {}
    for m, c in terms.items():
        for k, (u, e) in enumerate(m):
            if e == 1:
                rest = m[:k] + m[k + 1:]
            else:
                rest = m[:k] + ((u, e - 1),) + m[k + 1:]
            out.setdefault(u, {})[rest] = c * e
    return out


def _mul_acc(acc: dict, a: dict, b: dict, budget: int) -> None:
    """acc += a * b on integer numerators {m: n}: the one polynomial product.
    A product of more term pairs than the budget is refused."""
    if len(a) * len(b) > budget:
        raise BudgetError(
            f"product of {len(a)} x {len(b)} terms exceeds budget {budget}")
    for m1, n1 in a.items():
        for m2, n2 in b.items():
            key = mono_mul(m1, m2)
            acc[key] = acc.get(key, 0) + n1 * n2


def _product(a: dict, b: dict, budget: int) -> dict:
    """a * b on integer numerators, without its zero terms."""
    acc: dict = {}
    _mul_acc(acc, a, b, budget)
    return {m: n for m, n in acc.items() if n}


def _contract(partials: dict, images: dict, budget: int) -> dict:
    """sum_v images[v] * partials[v]: the Leibniz rule, each images[v] the
    image of x_v and partials[v] the numerators of dF/dx_v."""
    acc: dict = {}
    for v, img in images.items():
        _mul_acc(acc, img, partials[v], budget)
    return acc


def apply_derivation(F: MPoly, image: Callable) -> MPoly:
    """Extend the variable map x_v -> image(v) as a derivation (Leibniz):
    sum_v dF/dx_v * image(v).

    F and the nonzero images are each cleared to integers, the images over
    one common denominator, so the contraction runs on ints.
    """
    dF, nums = _numerators(F)
    partials = _partials(nums)
    cleared = {}
    for v in partials:
        img = image(v)
        if not img.is_zero():
            cleared[v] = _numerators(img)
    den = math.lcm(*(d for d, _ in cleared.values()))
    images = {v: {m: n * (den // d) for m, n in img.items()}
              for v, (d, img) in cleared.items()}
    return _from_numerators(_contract(partials, images, term_budget()), dF * den)


def directional_derivative(F: MPoly, gamma: dict) -> MPoly:
    """Derivative of F in the constant direction gamma (variable -> value)."""
    return apply_derivation(F, lambda v: MPoly.const(gamma.get(v, 0)))


def tau_apply(F: MPoly, times: int = 1) -> MPoly:
    """Apply the raising derivation x_i t^a -> a * x_i t^(a+1)."""

    def image(v):
        i, a = v
        if a == 0:
            return MPoly.zero()
        return MPoly.variable((i, a + 1), coef=a)

    out = F
    for _ in range(times):
        out = apply_derivation(out, image)
    return out


# ---------------------------------------------------------------------------
# substitutions


def substitute_vars(F: MPoly, mapping: dict) -> MPoly:
    """Algebra homomorphism determined by x_v -> mapping[v].

    Variables absent from mapping are kept as themselves.  The images are
    cleared to integers over one common denominator D, each term c * m is
    lifted to the top mapped degree (D^(top - deg m)), and its image is
    formed on the integer kernel; the result is divided by dF * D^top once.
    """
    dF, nums = _numerators(F)
    cleared = {v: _numerators(img) for v, img in mapping.items()}
    D = math.lcm(*(d for d, _ in cleared.values()))
    powers = {(v, 1): {m: n * (D // d) for m, n in img.items()}
              for v, (d, img) in cleared.items()}
    budget = term_budget()

    def var_pow(v, e):
        key = (v, e)
        if key not in powers:
            if v not in mapping:
                powers[key] = {((v, e),): 1}
            else:
                powers[key] = _product(var_pow(v, e - 1), powers[(v, 1)], budget)
        return powers[key]

    def mapped_degree(m):
        return sum(e for v, e in m if v in mapping)

    top = max(map(mapped_degree, nums), default=0)
    out: dict = {}
    for m, n in nums.items():
        cur = {(): n * D ** (top - mapped_degree(m))}
        for v, e in m:
            cur = _product(cur, var_pow(v, e), budget)
        for k, x in cur.items():
            out[k] = out.get(k, 0) + x
    return _from_numerators(out, dF * D ** top)


def substitute_levels(F: MPoly, level_image: Callable) -> MPoly:
    """Algebra map x_i t^a -> x_i * r(t) = sum_k r_k x_i t^k, r = level_image(a).

    A level whose image is None keeps its variables.  level_image is called
    once per distinct level of F; F itself is returned when nothing maps.
    """
    images: dict = {}
    mapping = {}
    for v in F.vars():
        i, a = v
        if a not in images:
            images[a] = level_image(a)
        r = images[a]
        if r is not None:
            mapping[v] = MPoly.from_entries(
                ((i, k), c) for k, c in enumerate(r.coeffs) if c
            )
    return substitute_vars(F, mapping) if mapping else F


def substitute_t(F: MPoly, r: UniPoly) -> MPoly:
    """Substitute t -> r(t), so x_i t^a becomes x_i * r(t)^a expanded."""
    return substitute_levels(F, lambda a: r ** a)


def psi_p(F: MPoly, p: UniPoly) -> MPoly:
    """Reduce every t power mod p; an algebra homomorphism."""
    if p.is_zero() or not p.is_monic() or p.degree < 1:
        raise InputError("modulus must be monic of degree >= 1")
    n = p.degree
    return substitute_levels(
        F, lambda a: UniPoly.monomial(a).mod(p) if a >= n else None
    )


def shift_t_down(F: MPoly) -> MPoly:
    """Algebra map x_i t^a -> x_i t^(a-1); requires every a >= 1."""

    def level_image(a):
        if a < 1:
            raise InputError("shift_t_down needs all t degrees >= 1")
        return UniPoly.monomial(a - 1)

    return substitute_levels(F, level_image)


def t_components(F: MPoly) -> dict:
    out = {}
    for m, c in F.terms.items():
        d = mono_t_degree(m)
        out.setdefault(d, {})[m] = c
    return {d: MPoly(t) for d, t in sorted(out.items())}


def lowest_t_component(F: MPoly) -> tuple:
    """(weight, component) of the minimal t degree; F must be nonzero."""
    if F.is_zero():
        raise InputError("zero polynomial has no lowest component")
    comps = t_components(F)
    d = min(comps)
    return d, comps[d]


# ---------------------------------------------------------------------------
# Poisson bracket


def _int_images(partials: dict, index: dict, targets, budget: int) -> dict:
    """v -> {m: n} with n / D the coefficients of {F, x_v}.

    {F, x_v} = sum_u dF/dx_u * [x_u, x_v]; partials holds the integer
    numerators of the dF/dx_u and index the pairs (v, [x_u, x_v]) scaled to
    integers over D.  Only v in targets (when given) are formed, and only
    nonzero terms and nonzero images are kept.
    """
    out: dict = {}
    for u, du in partials.items():
        for v, ent in index.get(u, ()):
            if targets is not None and v not in targets:
                continue
            _mul_acc(out.setdefault(v, {}), {((w, 1),): c for w, c in ent}, du,
                     budget)
    images = {}
    for v, acc in out.items():
        nz = {m: n for m, n in acc.items() if n}
        if nz:
            images[v] = nz
    return images


def hamiltonian_images(polys: Sequence, T: BracketTable) -> list:
    """images[k][v] = {polys[k], x_v} under the table T.

    Each images[k] maps a variable v to its nonzero image, so polys[k] is
    central for T exactly when images[k] is empty.  The condition
    {sum c_k polys[k], x_v} = 0 is linear in c and in the bracket: the
    images under a pencil member a * T1 + b * T2 are a * images under T1
    plus b * images under T2.  The images come from T's scaled neighbour
    index.
    """
    D, index = T.scaled_neighbours
    budget = term_budget()
    out = []
    for F in polys:
        dF, nums = _numerators(F)
        images = _int_images(_partials(nums), index, None, budget)
        out.append({v: _from_numerators(img, D * dF) for v, img in images.items()})
    return out


def poisson_bracket(F: MPoly, G: MPoly, T: BracketTable) -> MPoly:
    """{F, G} extending the bracket of T by the Leibniz rule.

    This is sum_v {F, x_v} * dG/dx_v over v in vars(G), where {F, x_v}
    visits only the pairs [x_u, x_v] with u in vars(F), read from T's
    scaled neighbour index.  A variable outside T brackets to zero, so
    q[t] is bracketed as q[t]/(t^N) with N above every t degree a
    bracket reaches.  All of it runs on integer numerators over one
    common denominator; the result's coefficients are the only Fractions.
    """
    if F.is_zero() or G.is_zero():
        return MPoly.zero()
    dF, nf = _numerators(F)
    dG, ng = _numerators(G)
    pg = _partials(ng)
    D, index = T.scaled_neighbours
    budget = term_budget()
    images = _int_images(_partials(nf), index, pg, budget)
    return _from_numerators(_contract(pg, images, budget), D * dF * dG)


def image_rows(*families: Sequence):
    """Coefficient rows of the linear system {sum_k c_k polys[k], x_v} = 0.

    Each family is the hamiltonian_images result for the same polys under
    its own table.  One row is yielded per variable v and monomial m that
    occurs in some image at v: the coefficients of m in families[e][k][v],
    for each family e in turn, k running fastest.
    """
    zero = Fraction(0)
    for v in sorted({v for fam in families for img in fam for v in img}):
        col = [img.get(v) for fam in families for img in fam]
        monos = {m for F in col if F is not None for m in F.terms}
        for m in sorted(monos, key=mono_sort_key):
            yield [zero if F is None else F.terms.get(m, zero) for F in col]


def differential_at(F: MPoly, point: dict, vars_order: Sequence) -> list:
    partials = _partials(F.terms)
    return [MPoly(partials.get(v)).eval_at(point) for v in vars_order]


def jacobian_at(polys: Sequence, point: dict, vars_order: Sequence) -> QMatrix:
    return QMatrix.from_rows(
        [differential_at(F, point, vars_order) for F in polys]
    )


def jacobian_rank_at(polys: Sequence, point: dict, vars_order: Sequence) -> int:
    return rank(jacobian_at(polys, point, vars_order))


# ---------------------------------------------------------------------------
# spans


def coeff_rows(polys: Sequence) -> tuple:
    """Common monomial index and coefficient rows for a family of polys."""
    monos = sorted({m for F in polys for m in F.terms}, key=mono_sort_key)
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for F in polys:
        row = [Fraction(0)] * len(monos)
        for m, c in F.terms.items():
            row[index[m]] = c
        rows.append(row)
    return monos, rows


def span_dim(polys: Sequence) -> int:
    polys = [F for F in polys if not F.is_zero()]
    if not polys:
        return 0
    _, rows = coeff_rows(polys)
    rs = RowSpace(len(rows[0]))
    for r in rows:
        rs.add(r)
    return rs.dim


def echelon_basis(polys: Sequence) -> list:
    """Canonical basis of the span: reduced echelon over graded monomials."""
    polys = [F for F in polys if not F.is_zero()]
    if not polys:
        return []
    monos, rows = coeff_rows(polys)
    return [
        MPoly({m: c for c, m in zip(vec, monos) if c})
        for vec in row_space(rows, len(monos)).basis()
    ]


def independent_subset(polys: Sequence) -> list:
    """Greedy subfamily spanning the same space, in input order."""
    nz = [F for F in polys if not F.is_zero()]
    if not nz:
        return []
    monos, rows = coeff_rows(nz)
    rs = RowSpace(len(monos))
    return [F for F, row in zip(nz, rows) if rs.add(row)]


def span_equal(polys_a: Sequence, polys_b: Sequence) -> bool:
    da = span_dim(polys_a)
    db = span_dim(polys_b)
    if da != db:
        return False
    return span_dim(list(polys_a) + list(polys_b)) == da


def span_contains(polys: Sequence, F: MPoly) -> bool:
    if F.is_zero():
        return True
    d = span_dim(polys)
    return span_dim(list(polys) + [F]) == d

"""Pencils of quotient brackets and the subalgebra their centers generate.

A pencil is spanned by the brackets of two monic moduli of the same degree
whose difference has degree at most one.  Members along the line a + b = 1
are again quotient brackets; their Poisson centers, each the exact
annihilation solve on polarization spaces, accumulate into one commutative
subalgebra, which Z keeps as integer rows over the polarizations of each
invariant alone (see level_columns and polarizations).  The remaining
tools measure that subalgebra: transcendence degree by sampled Jacobian
ranks against the paper's formula, agreement with the raising-derivation
ladders, and the evaluation picture in degree two.  All of them read Z's
rows and compare spans by rank (see _ladders_against_Z and mf_image).

The ladders form no polynomial.  tau is a derivation, so exp(s tau) is an
automorphism, and tau^k(x t) = k! x t^(k+1).  So for F of degree d in
t-degree-zero variables and F_1 = F attached to t, psi_p(tau^k F_1) / k!
is the s^k coefficient of psi_p(exp(s tau) F_1) = F(sum_j U_j(s) xi_j),
with xi_j the copy of the variables at level j < n = deg p and U_j(s) =
sum_{a >= 1} s^(a - 1) (t^a mod p)_j.  Expanding F(sum_j c_j xi_j) factor
by factor and gathering the levels into multisets m gives sum_m prod_{j in
m} c_j * polarize(F, m), m over level_columns(d, n), as polarize
sums over the distinct arrangements of m.  The shift down x t^a -> x
t^(a - 1) is an algebra map too, so the lowered rung psi_p(shift(tau^k
F_1)) / k! is the same with V_j(s) = sum_{b >= 0} s^b (t^b mod p)_j.  Each
rung is thus a row of coefficients of univariate products on the
polarizations of F, read off t_powers_mod alone.  Those polarizations are
independent for F nonzero and homogeneous (see build_Z), so two spans of
their combinations are equal exactly when their coordinate row spaces are.

The same expansion gives the Jacobian of Z without forming Z.  With
F(sum_j c_j xi_j) = sum_m c^alpha(m) P_m(xi), P_m = polarize(F, m) and
alpha(m) the multiplicities of the levels in m, differentiating both sides
in xi_{k,v} gives sum_m c^alpha(m) dP_m/dxi_{k,v} = c_k (d_v F)(sum_j c_j
xi_j), so dP_m/dxi_{k,v} = [c^(alpha(m) - e_k)] (d_v F)(sum_j c_j xi_j),
zero where m does not hold k.  The right side is homogeneous of degree
d - 1 in c, so at c = (1, s) each coefficient is that of one monomial of
s of total degree below d, and the gradient of F at the points xi_0 +
sum_j s_j xi_j, s over the lattice simplex sum_j s_j < d, which
determines such a polynomial, gives the Jacobian of every polarization by
interpolation (_z_jacobian).  Z's part for F, the combinations by the rows
C = Z.spaces[i], has C times that as Jacobian, which trdeg_of_Z ranks.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from .exactla import (
    BudgetError,
    InputError,
    RowSpace,
    kernel,
    rank_mod_p,
    rat,
    row_space,
    term_budget,
)
from .liecore import (
    LieAlgebra,
    UniPoly,
    check_pencil_moduli,
    index_report,
    make_quotient,
    pencil_combination,
    sampled_max_rank,
    t_powers_mod,
    wrap_algebra,
)
from .psring import (
    MPoly,
    annihilation_rows,
    cleared_jacobian,
    coeff_rows,
    combination_basis,
    directional_derivative,
    gradient_numerators,
    pairwise_commute,
    polarize,
    polarize_family,
)
from .invariantlab import basic_invariants, weakly_increasing


@dataclass(frozen=True)
class Pencil:
    """Line of brackets spanned by two compatible quotient moduli."""

    base: LieAlgebra
    p1: UniPoly
    p2: UniPoly

    def __post_init__(self):
        check_pencil_moduli(self.p1, self.p2)

    @property
    def n(self) -> int:
        return self.p1.degree

    @cached_property
    def end_tables(self) -> tuple:
        return make_quotient(self.base, self.p1), make_quotient(self.base, self.p2)

    @cached_property
    def spanning_tables(self) -> tuple:
        """(T1, D): the p1 end and D = [,]_2 - [,]_1, the difference.

        The two span the pencil, the ends being T1 and T1 + D.  D is zero on
        every level pair a + b < n, so its images are sparse.  D is not
        scanned for Jacobi (make_difference_bracket does that): only its
        linear relation to the ends is read.
        """
        t1, t2 = self.end_tables
        return t1, pencil_combination(t2, t1, 1, -1)

    def member_weights(self, a: Fraction) -> tuple:
        """Integers (d, d - s) with d * T1 + (d - s) * D = d * (a * [,]_1 +
        (1 - a) * [,]_2) for a = s / d and (T1, D) = spanning_tables: the
        member is T1 + (1 - a) * D."""
        s, d = a.numerator, a.denominator
        return d, d - s

    def normalization(self) -> dict:
        """How t -> t + c turns the difference into a pure form.

        A degree-one difference l becomes a multiple of t after shifting by
        the root of l; a constant difference is already normalized.
        """
        l = self.p1 - self.p2
        if l.degree == 0:
            return {"l": "1", "shift": Fraction(0), "scale": l.coeff(0)}
        c = -l.coeff(0) / l.coeff(1)
        return {"l": "t", "shift": c, "scale": l.coeff(1)}


# ---------------------------------------------------------------------------
# assembling the joint center


def level_columns(d: int, n: int) -> list:
    """The coordinate columns of an invariant of degree d in a pencil of
    degree n: the multisets of d levels 0 .. n - 1, as weakly increasing
    tuples, in the order of weakly_increasing(d, n - 1)."""
    return weakly_increasing(d, n - 1)


def polarizations(F: MPoly, n: int) -> list:
    """polarize(F, m) for each column m of level_columns(deg F, n): the
    polynomials that Z's coordinates for F combine, from one
    polarize_family call, which decodes F once for all the columns."""
    return polarize_family(F, level_columns(F.total_degree(), n))


@dataclass
class ZAlgebra:
    """Generators of the joint-center subalgebra of a pencil, held in
    polarization coordinates.

    raw_generators counts the kernel vectors of the annihilation solves,
    one per raw generator, over every member and invariant; the raw
    generators themselves are not formed.  spaces[i] is C, the primitive
    integer echelon rows, as int tuples, of the kernel vectors of every
    member for F = invariants[i]: row r stands for sum_m C[r][m] *
    polarize(F, m), m over level_columns(deg F, n).  The polarizations are
    independent (see build_Z), so the rows count Z's part for F.  None is
    held: basis, one canonical echelon basis per invariant, polarizes each
    F again when first read, and is kept.
    """

    pencil: Pencil
    invariants: list
    raw_generators: int
    spaces: list
    samples: list

    def counts(self) -> dict:
        return {i: len(C) for i, C in enumerate(self.spaces)}

    @cached_property
    def basis(self) -> dict:
        n = self.pencil.n
        return {i: combination_basis(polarizations(F, n), C)
                for i, (F, C) in enumerate(zip(self.invariants, self.spaces))}

    def all_basis(self) -> list:
        out = []
        for i in sorted(self.basis):
            out.extend(self.basis[i])
        return out

    def expected_counts(self) -> dict:
        n = self.pencil.n
        return {
            i: F.total_degree() * (n - 1) + 1
            for i, F in enumerate(self.invariants)
        }


def _sample_sequence(count: int) -> list:
    out = []
    k = 1
    while len(out) < count:
        out.append(Fraction(k))
        if len(out) < count:
            out.append(Fraction(1 - k))
        k += 1
    return out[:count]


def _pencil_rows(pols: Sequence, P: Pencil) -> tuple:
    """Integer echelon rows whose kernel, at every member, is that of the
    annihilation rows of pols, polarizations of one invariant of q.

    Row r = (r1 | rD) holds the coefficients of one monomial of {pol, x_v}
    under T1, then under D, the spanning tables of P, scaled to a primitive
    integer row (see annihilation_rows); only the distinct rows are
    reduced.  The images are linear in the bracket, so the member at a has
    rows x * r1 + y * rD, (x, y) = P.member_weights(a), and their span is
    the image of the span of the r: any basis of that span serves every
    member, so the rows are kept as reduced, in echelon form, and no
    reduced basis is formed.  D vanishes on the low level pairs, so its
    images cost less than those of the other end.

    Only v = x_j t^k with j in q.module_generators and 1 <= k < n are
    bracketed.  Every member is a quotient bracket in which x_i t^0 acts on
    each level k < n as ad(x_i), with no reduction mod p, and kills every
    polarization of an invariant.  By Jacobi, when F kills x_i t^0 it
    kills {x_i t^0, v} along with v, so a combination that kills the
    generators at level k kills all of q t^k, and level 0 needs no rows.
    """
    targets = {(j, k) for j in P.base.module_generators for k in range(1, P.n)}
    return row_space(annihilation_rows(pols, P.spanning_tables, targets), 2 * len(pols)).rows


def _annihilator_combos(pencil_rows: Sequence, weights: tuple, width: int) -> list:
    """Coefficient vectors c with {sum c_k pols_k, x_v} = 0 for every v,
    under the member a * [,]_1 + (1 - a) * [,]_2 whose weights (x, y) are
    P.member_weights(a).

    With a = s / d, each integer row (r1 | rD) of _pencil_rows gives the
    integer member row d * r1 + (d - s) * rD, d times the member's row, so
    the kernel, which is canonical, is read off integer rows alone.  There
    are at most 2 * width of them, already reduced together, so they are
    eliminated once, as they are (exactla.kernel).
    """
    x, y = weights
    return kernel([[x * b + y * c for b, c in zip(r[:width], r[width:])]
                   for r in pencil_rows], width)


def build_Z(P: Pencil, f_list: Sequence | None = None,
            sample_count: int | None = None, seed: int = 0) -> ZAlgebra:
    """Accumulate central elements of line members into one generator set.

    Every member contributes the exact solution space of bracket
    annihilation inside each polarization space, whether or not its
    modulus splits over Q.  Member centres come from the spanning tables
    (T1, D) of the pencil, the p1 end and the difference: each
    polarization space is bracketed once under each, the distinct integer
    rows of both are reduced together once, and the member at a takes the
    combination P.member_weights(a) of the T1 and D parts of those few
    rows, on integers.  The invariants are taken one at a time: each is
    polarized, its rows formed and every member solved, and its
    polarizations are dropped before the next is polarized.  The a values
    walk 1, 0, 2, -1, 3, -2, ... so both ends always participate.
    Deterministic for fixed inputs: no random number is drawn, so seed,
    kept for callers that pass it, changes nothing.  BudgetError is raised
    before anything is polarized when terms(F) * n^deg F, a bound on the
    terms of all polarizations of F, passes the term budget for some F,
    and before any member is solved when the sample count does.

    Z lies in S(W)^(q.1): each polarization of an invariant is killed by
    every x_i t^0, so by Jacobi a combination that kills the ad(q)-module
    generators of q at a level kills the whole level, and the rows are
    taken at those generators alone (see _pencil_rows).  That needs every
    F in f_list to be q-invariant, which is checked here (InputError
    otherwise); basic_invariants are central by construction.

    Each kernel vector is one raw generator, and only counted.  The
    member polynomials are linear in the kernel vectors, and the
    polarizations of a nonzero F are independent: a polarized key gives
    back the monomial of F when its levels are dropped and kvec, as a
    multiset, when its indices are, so distinct kvecs have disjoint
    supports, and each coefficient is that of a monomial of F times a
    count of arrangements, never 0.  The kernel vectors of all members
    thus span a space that maps one to one onto the span of the member
    polynomials, and Z keeps that space as the integer echelon rows of the
    kernel vectors (see ZAlgebra); no basis polynomial is formed here, and
    no polarization is kept.
    """
    n = P.n
    if f_list is None:
        f_list = basic_invariants(P.base)
    else:
        f_list = list(f_list)
        if any(F.is_zero() for F in f_list) or any(
                annihilation_rows(f_list, [wrap_algebra(P.base)])):
            raise InputError("every invariant to polarize must be a nonzero "
                             f"invariant of {P.base.name}")
    if not f_list:
        raise InputError("need at least one invariant to polarize")
    degs = [F.total_degree() for F in f_list]
    budget = term_budget()
    for i, F in enumerate(f_list):
        # each monomial of F polarizes into at most n^deg F terms in all,
        # so this bounds what the polarizations of F hold together
        size = F.num_terms() * n ** degs[i]
        if size > budget:
            raise BudgetError(
                f"polarizations of invariant {i} ({F.num_terms()} terms of degree "
                f"{degs[i]}, n = {n}) may hold {size} terms, past budget {budget}")
    if sample_count is None:
        sample_count = max(degs) * n + 3
    if sample_count < 1:
        raise InputError("sample count must be positive")
    if sample_count > budget:
        raise BudgetError(f"sample count {sample_count} exceeds budget {budget}")
    samples = _sample_sequence(sample_count)
    weights = [P.member_weights(a) for a in samples]
    raw = 0
    spaces = []
    for F, d in zip(f_list, degs):
        width = len(level_columns(d, n))
        rows = _pencil_rows(polarizations(F, n), P)
        space = RowSpace(width)
        for w in weights:
            for vec in _annihilator_combos(rows, w, width):
                raw += 1
                space.add(vec)
        spaces.append(tuple(map(tuple, space.rows)))
    return ZAlgebra(pencil=P, invariants=f_list, raw_generators=raw, spaces=spaces,
                    samples=samples)


def verify_Z_commutes(Z: ZAlgebra) -> bool:
    """All basis pairs Poisson-commute under the spanning tables (T1, D) of
    the pencil, the p1 end and the difference of the ends.

    The ends are T1 and T1 + D, so vanishing under T1 and D is vanishing
    under both ends, and every member is a combination of the ends: that
    settles the whole pencil.  D is zero on the low level pairs, so its
    images, and the pairs contracted from them, are few (see
    psring.pairwise_commute).  A pair whose product would pass the term
    budget or the packed degree limit raises BudgetError before any pair
    is contracted, even when an earlier pair does not commute.
    """
    return pairwise_commute(Z.all_basis(), *Z.pencil.spanning_tables)


@dataclass(frozen=True)
class TrdegReport:
    rank: int
    bound: int
    rounds: int
    seed: int
    witness: tuple


def _sampled_trdeg(jacobian, width: int, full: int, seed: int) -> TrdegReport:
    """The sampled rank of jacobian(point), integer rows of width entries
    with each row cleared to integers, full = min(rows, width): each sample
    ranked mod PRIME by rank_mod_p, the witness's rows, when short of full
    rank, by their RowSpace (see liecore.sampled_max_rank)."""
    r, witness, used_bound, rounds = sampled_max_rank(
        lambda pt: rank_mod_p(jacobian(pt), width), width, full,
        lambda pt: row_space(jacobian(pt), width).dim, seed=seed)
    return TrdegReport(rank=r, bound=used_bound, rounds=rounds, seed=seed,
                       witness=witness)


def trdeg_estimate(polys: Sequence, var_list: Sequence, seed: int = 0) -> TrdegReport:
    """Sampled Jacobian rank of the family, with the doubling retry rule.

    Each sample's integer rows (psring.cleared_jacobian, from the partials
    of every polynomial) are ranked over GF(exactla.PRIME) by rank_mod_p
    until a batch reaches full rank, and the witness's, when short of full
    rank, by its RowSpace (see sampled_max_rank), so the rank is never
    above the transcendence degree r.  A sample falls short of r with
    probability at most deg/(2*bound + 1), deg being the sum of deg F - 1
    over the r polynomials of a nonzero r x r minor of the Jacobian; the
    one other cause is a PRIME dividing every such generic minor, a
    property of the family.
    """
    polys = [F for F in polys if not F.is_zero()]
    var_list = list(var_list)
    width = len(var_list)
    return _sampled_trdeg(cleared_jacobian(polys, var_list), width,
                          min(len(polys), width), seed)


@cache
def _simplex_inverse(top: int, k: int) -> tuple:
    """(nodes, W, w): the points s of N^k with sum(s) <= top, and W
    integer, keyed by the same points beta, with W[beta] / w the row of
    the inverse of the Vandermonde matrix (s^beta) that maps the values of
    a polynomial of total degree at most top at the nodes to its s^beta
    coefficient.  The nodes determine such a polynomial (its forward
    differences at 0 do), so the matrix is invertible, and w is the least
    scale, top!."""
    nodes = [tuple(m.count(j) for j in range(1, k + 1)) for m in weakly_increasing(top, k)]
    N = len(nodes)
    vandermonde = ([math.prod([a ** e for a, e in zip(s, beta)]) for beta in nodes]
                   + [int(s == u) for u in nodes] for s in nodes)
    rows, w = row_space(vandermonde, 2 * N).reduced()
    g = math.gcd(w, *[x for r in rows for x in r[N:]])
    return nodes, {beta: tuple(x // g for x in r[N:]) for beta, r in zip(nodes, rows)}, w // g


def _combine(coeffs: Sequence, vectors: Sequence) -> list:
    """sum_a coeffs[a] * vectors[a], entry by entry."""
    return [sum(map(operator.mul, coeffs, col)) for col in zip(*vectors)]


def _z_jacobian(Z: ZAlgebra):
    """point -> the Jacobian at point of sum_m C[r][m] * P_m for each row r
    of C, over the C in Z.spaces, as integer rows cleared as
    psring.cleared_jacobian clears them.  Columns and the point's ints are
    in the order of an end table's var_list.  No basis polynomial is formed.

    The entries are the coefficients of the gradient identity in the module
    docstring: den * grad F is evaluated on ints
    (psring.gradient_numerators) at xi_0 + sum_j s_j xi_j for each node s
    of _simplex_inverse(d - 1, n - 1), C(d + n - 2, n - 1) of them, and the
    s^beta coefficients it needs come out times K = den * w.  Each row is
    then cleared by gcd(K, *row).  A constant F, which build_Z accepts, has
    a zero gradient, read at the one node s = 0, and needs no coefficient.
    """
    P = Z.pencil
    dim, n = P.base.dim, P.n
    base_vars = [(i, 0) for i in range(dim)]
    parts = []
    for F, C in zip(Z.invariants, Z.spaces):
        kvecs = level_columns(F.total_degree(), n)
        rows = []  # per row r of C, per level k: (k, the C[r][m], their betas)
        for r in C:
            blocks: dict = {}
            for c, m in enumerate(kvecs):
                if not r[c]:
                    continue
                for k in set(m):
                    beta = tuple(m.count(j) - (j == k) for j in range(1, n))
                    blocks.setdefault(k, []).append((r[c], beta))
            rows.append([(k, *zip(*terms)) for k, terms in sorted(blocks.items())])
        needed = {beta for blocks in rows for _, _, betas in blocks for beta in betas}
        nodes, W, w = _simplex_inverse(max(F.total_degree() - 1, 0), n - 1)
        # the nonzero weights of W[beta], with the indices of their nodes
        interpolate = {beta: tuple(zip(*[(x, i) for i, x in enumerate(W[beta]) if x]))
                       for beta in needed}
        parts.append((gradient_numerators([F], base_vars), nodes, interpolate, w, rows))

    def at(point) -> list:
        levels = [point[a * dim:(a + 1) * dim] for a in range(n)]
        out = []
        for gradients, nodes, interpolate, w, rows in parts:
            values = []
            for s in nodes:
                [(den, g)] = gradients(_combine((1,) + s, levels))
                values.append(g)
            coeffs = {beta: _combine(ws, [values[i] for i in idx])
                      for beta, (ws, idx) in interpolate.items()}
            K = den * w
            for blocks in rows:
                row = [0] * (n * dim)
                for k, cs, betas in blocks:
                    row[k * dim:(k + 1) * dim] = _combine(cs, [coeffs[b] for b in betas])
                g = math.gcd(K, *row)
                out.append([x // g for x in row])
        return out

    return at


def trdeg_of_Z(Z: ZAlgebra, seed: int = 0) -> TrdegReport:
    """Sampled transcendence degree of Z, as trdeg_estimate of Z.basis
    would give it, with the Jacobian read off the gradients of the
    invariants (_z_jacobian) rather than the partials of a formed basis.

    Each row r of C = Z.spaces[i] is the combination sum_m C[r][m] P_m,
    so J_Z = C * J_pol, and the rows of C span Z's part for F_i as a basis
    of it does: the rank over Q at every point is that of Z.basis.  A
    rank mod PRIME is the same unless PRIME divides the change of basis,
    a property of the input like the minors of sampled_max_rank.
    """
    width = Z.pencil.n * Z.pencil.base.dim
    rows = sum(len(C) for C in Z.spaces)
    return _sampled_trdeg(_z_jacobian(Z), width, min(rows, width), seed)


def expected_trdeg(q: LieAlgebra, n: int) -> int:
    """(n - 1)(dim + ind)/2 + ind, from the measured index of q."""
    ind = index_report(q).index
    return (n - 1) * (q.dim + ind) // 2 + ind


# ---------------------------------------------------------------------------
# derivation ladders


def _ladder_space(F: MPoly, p: UniPoly, first_level: int) -> RowSpace:
    """Span of the reduced ladder of F from first_level, in the coordinates
    of F's polarizations over level_columns(d, n), the columns of
    Z.spaces; F is nonzero, d = deg F and n = deg p.

    Rung k, for k = 0 .. d(n - 1) + n + 1, is psi_p(tau^k F_1) / k! for
    first_level 1 and psi_p of its shift down for 0, F_1 being F attached
    to t.  By the identity in the module docstring its coordinate at the
    column m is the s^k coefficient of prod_{j in m} W_j(s), W_j(s) =
    sum_k s^k (t^(k + first_level) mod p)_j.  Row k is taken times
    D^(k + d * first_level), D the lcm of the denominators of p: t^a mod p
    holds no denominator past D^a (liecore.t_powers_mod), so each series
    is held on ints and the products, formed once per prefix of m, are too.
    """
    d, n = F.total_degree(), p.degree
    rungs = d * (n - 1) + n + 2
    den = math.lcm(*(c.denominator for c in p.coeffs))
    series = [[] for _ in range(n)]
    rems = itertools.islice(t_powers_mod(p), first_level, first_level + rungs)
    for k, r in enumerate(rems):
        scale = den ** (k + first_level)
        for j, s in enumerate(series):
            s.append((r.coeff(j) * scale).numerator)
    products = {(): [1] + [0] * (rungs - 1)}

    def product(m):
        if m not in products:
            head, tail = product(m[:-1]), series[m[-1]]
            products[m] = [sum(head[a] * tail[k - a] for a in range(k + 1))
                           for k in range(rungs)]
        return products[m]

    cols = [product(m) for m in level_columns(d, n)]
    return row_space(([c[k] for c in cols] for k in range(rungs)), len(cols))


def tau_ladder_span(F: MPoly, p: UniPoly) -> tuple:
    """The span of the reduced raising-derivation ladder of F attached to
    t, as the primitive integer echelon rows of its coordinates on F's
    polarizations (see _ladder_space).

    Their number, the dimension of the span, reaches d(n - 1) + 1 exactly
    when the constant term of p is nonzero.  F must be homogeneous in
    t-degree-zero variables, as polarize requires (InputError otherwise),
    and p monic of degree >= 1; F = 0 spans nothing.
    """
    if p.is_zero() or not p.is_monic() or p.degree < 1:
        raise InputError("modulus must be monic of degree >= 1")
    polarize(F, [0] * F.total_degree())  # F itself, or InputError as polarize gives
    if F.is_zero():
        return ()
    return _ladder_space(F, p, 1).rows


@dataclass
class SpanCheck:
    ok: bool
    detail: list


def _ladders_against_Z(P: Pencil, first_level: int) -> SpanCheck:
    """For each invariant F of the assembled center of P, whether the
    ladder of F from first_level, reduced mod P.p1, spans F's part of Z.

    Both are held in the coordinates of F's polarizations, which are
    independent, so with L the ladder's rows and C = Z.spaces[i] the
    spans are equal exactly when dim L = len(C) = dim(L + C).
    """
    Z = build_Z(P)
    detail = []
    for i, (F, rows) in enumerate(zip(Z.invariants, Z.spaces)):
        ladder = _ladder_space(F, P.p1, first_level)
        dim = ladder.dim
        detail.append({
            "invariant": i,
            "ladder_dim": dim,
            "z_dim": len(rows),
            # equal when Z's rows add nothing to the ladder's span
            "equal": dim == len(rows) and not any(ladder.add(r) for r in rows),
        })
    return SpanCheck(ok=all(d["equal"] for d in detail), detail=detail)


def check_sovp(q: LieAlgebra, p: UniPoly) -> SpanCheck:
    """Reduced tau ladders against the assembled center of the t pencil.

    Requires p(0) != 0.  For each invariant the two generator spaces must
    coincide; that settles equality of the generated algebras.
    """
    if p.coeff(0) == 0:
        raise InputError("the t pencil comparison needs p(0) != 0")
    return _ladders_against_Z(Pencil(q, p, p + UniPoly.t()), 1)


def check_ft_gzu(q: LieAlgebra, p: UniPoly) -> SpanCheck:
    """Lowered ladders against the assembled center of the constant pencil."""
    return _ladders_against_Z(Pencil(q, p, p + UniPoly.one()), 0)


# ---------------------------------------------------------------------------
# degree-two evaluation picture


def mf_image(Z: ZAlgebra, gamma: Sequence) -> bool:
    """Directional-derivative chains inside the evaluated center.

    Works for degree-two pencils: for each invariant F, the derivatives of
    F of every order in the direction gamma must lie in Z's part for F with
    x_i t^1 evaluated at gamma_i, read off Z.spaces.  Column k of its rows
    C is the polarization P_k with k ones, which Taylor's formula on
    F(xi_0 + s gamma) evaluates to g_k = D_gamma^k F / k!.  So the part is
    the row span of C g, inside span(g), and the chain k! g_k lies in it
    exactly when C g and g have one rank.  With Z's part at the paper's
    count deg F + 1, C is invertible and the picture holds for every
    gamma; the check bites only where Z's part is short.
    """
    if Z.pencil.n != 2:
        raise InputError("the evaluation picture needs a degree-two pencil")
    gamma = [rat(c) for c in gamma]
    if len(gamma) != Z.pencil.base.dim:
        raise InputError("gamma needs one coordinate per basis element")
    gdict = {(i, 0): c for i, c in enumerate(gamma)}
    for F, C in zip(Z.invariants, Z.spaces):
        g = [F]
        for k in range(1, F.total_degree() + 1):
            g.append(directional_derivative(g[-1], gdict).scale(Fraction(1, k)))
        G = coeff_rows(g)
        width = len(G[0])
        images = ([sum(c * x for c, x in zip(r, col)) for col in zip(*G)] for r in C)
        if row_space(images, width).dim != row_space(G, width).dim:
            return False
    return True

"""Symmetric invariants and the generator families built from them.

Covers: exact computation of adjoint invariants in a fixed degree, the
characteristic-polynomial invariants of an algebra's own matrices (by
Berkowitz's division-free algorithm; central, as checked, and free generators
for sl_n and gl_n), degree polarizations and their graded sums, generator
families for truncated and split quotients, the quadratic family attached
to an invariant bilinear form, Gaudin Hamiltonians, the slot decomposition
of bracket images (in closed form: polarized gradients times the bracket
tensor raised by the form's inverse and lowered once by the form, the one
lowering that y_xi also reads), and two families of unimodular integer
matrices that control the triangular eliminations used throughout.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Sequence

from .exactla import (
    BudgetError,
    InputError,
    QMatrix,
    as_int,
    kernel,
    rat,
    row_space,
    term_budget,
)
from .liecore import (
    BracketTable,
    LieAlgebra,
    PrimaryComponent,
    UniPoly,
    crt_idempotents,
    crt_primary,
    make_quotient,
    rational_roots,
    wrap_algebra,
)
from .psring import (
    MPoly,
    annihilation_rows,
    coeff_rows,
    combination_basis,
    poisson_bracket,
    poisson_brackets,
    polarize,
    primitive,
    psi_p,
    substitute_levels,
    substitute_vars,
)


# ---------------------------------------------------------------------------
# invariants of S(q)


def invariants_degree(q: LieAlgebra, d: int) -> list:
    """Basis of the degree-d adjoint invariants of S(q).

    Solved exactly: a polynomial is invariant iff it Poisson-commutes with
    every basis variable under the linear bracket.  The returned basis is
    in reduced echelon form over the monomial coordinates, so it is
    canonical.
    """
    if d < 0:
        raise InputError("degree must be nonnegative")
    if d == 0:
        return [MPoly.const(1)]
    monos = [MPoly.from_factors([([(i, 0) for i in combo], Fraction(1))])
             for combo in itertools.combinations_with_replacement(range(q.dim), d)]
    width = len(monos)
    kern = kernel(row_space(annihilation_rows(monos, [wrap_algebra(q)]), width).rows, width)
    return combination_basis(monos, kern)


@lru_cache(maxsize=None)
def _char_invariants(q: LieAlgebra) -> tuple:
    """The nonzero coefficients of det(lambda - X) below the leading one,
    each made primitive, X the generic element of q's matrices.  They are
    adjoint invariants when the matrices represent q's basis, which is
    checked, since the matrices come from the input."""
    if q.matrices is None:
        raise InputError(f"no characteristic invariants for {q.name}")
    n = 1 + max((max(i, j) for m in q.matrices for i, j, _ in m), default=-1)
    # det X has n! terms for gl_n, so n! * 2^n follows the size of the output,
    # as no single product of Berkowitz's does: it refuses sl8, which would
    # run minutes.  n at or above the budget's bit length forms no factorial.
    budget = term_budget()
    if n >= budget.bit_length() or math.factorial(n) * 2 ** n > budget:
        raise BudgetError(
            f"characteristic invariants of {q.name}: {n}! * 2^{n} products "
            f"exceed budget {budget}")
    out = tuple(primitive(c) for c in _berkowitz(_generic_matrix(q, n))[1:]
                if not c.is_zero())
    if any(annihilation_rows(out, [wrap_algebra(q)])):
        raise InputError(
            f"characteristic invariants of {q.name} are not central: its "
            f"matrices do not represent its basis"
        )
    return out


def _generic_matrix(q: LieAlgebra, n: int) -> list:
    """X = sum_k x_k * D_k, n x n, with D_k the combination of q.matrices
    dual to the basis under the stored form."""
    ginv = q.form_inverse
    X = [[MPoly.zero()] * n for _ in range(n)]
    for l, mat in enumerate(q.matrices):
        dual = MPoly.from_entries(((k, 0), ginv.at(k, l)) for k in range(q.dim))
        for i, j, val in mat:
            X[i][j] = X[i][j] + dual.scale(val)
    return X


def _dot(xs, ys) -> MPoly:
    return sum((x * y for x, y in zip(xs, ys)), MPoly.zero())


def _berkowitz(A: list) -> list:
    """[c_0, ..., c_n] with det(lambda - A) = sum_k c_k lambda^(n - k), A
    square with MPoly entries, by Berkowitz's division-free algorithm (Inf.
    Process. Lett. 18, 1984) in O(n^4) products.  Up the diagonal: with
    A[k:, k:] = [[a, R], [C, M]] and p the coefficients for M, of size m,
    those for A[k:, k:] are p convolved with (1, -a, -RC, ..., -RM^(m-1)C).
    """
    n = len(A)
    p = [MPoly.const(1)]
    for k in range(n - 1, -1, -1):
        R = A[k][k + 1:]
        M = [row[k + 1:] for row in A[k + 1:]]
        v = [row[k] for row in A[k + 1:]]
        col = [MPoly.const(1), -A[k][k]]
        for step in range(n - k - 1):
            if step:
                v = [_dot(row, v) for row in M]
            col.append(-_dot(R, v))
        p = [_dot(col[i::-1], p) for i in range(len(p) + 1)]
    return p


def basic_invariants(q: LieAlgebra) -> list:
    """Central elements of S(q) read off q's structure, not its name.

    An algebra with matrices gets the characteristic polynomial coefficients
    of its generic element: checked central, free generators of the
    invariant ring for sl_n and gl_n, not necessarily for other matrices.
    An abelian algebra (no structure constants) gets its variables, all of
    them central.  Anything else must supply its own family.
    """
    if not q.sc:
        return [MPoly.variable((i, 0)) for i in range(q.dim)]
    return list(_char_invariants(q))


def casimir(q: LieAlgebra) -> MPoly:
    """The quadratic invariant of a matrix algebra, integer-normalized."""
    for F in basic_invariants(q):
        if F.total_degree() == 2:
            return F
    raise InputError(f"{q.name} has no quadratic basic invariant")


# ---------------------------------------------------------------------------
# polarizations


def polarize_t(F: MPoly, kvec: Sequence) -> MPoly:
    """Full symmetric-group version: every permutation of kvec counts.

    Equals polarize(F, kvec) times the product of multiplicity factorials
    of kvec; polarize refuses a kvec that is not nonnegative integers.
    """
    kvec = tuple(kvec)
    P = polarize(F, kvec)
    return P.scale(math.prod(math.factorial(kvec.count(k)) for k in set(kvec)))


def weakly_increasing(d: int, top: int) -> list:
    """All weakly increasing tuples of length d with entries in 0..top."""
    return list(itertools.combinations_with_replacement(range(top + 1), d))


def f_bracket_j(F: MPoly, j: int, n: int) -> MPoly:
    """Sum of all polarizations of F with total t degree j, degrees < n."""
    d = F.total_degree()
    acc = MPoly.zero()
    for kv in weakly_increasing(d, n - 1):
        if sum(kv) == j:
            acc = acc + polarize(F, kv)
    return acc


# ---------------------------------------------------------------------------
# transported generator families


def attach_poly(F: MPoly, r: UniPoly, p: UniPoly | None = None) -> MPoly:
    """Substitute x_i -> x_i (x) r(t) into a t-degree-zero polynomial."""

    def level_image(a):
        if a != 0:
            raise InputError("attach_poly input must have t degree zero")
        return r

    out = substitute_levels(F, level_image)
    if p is not None:
        out = psi_p(out, p)
    return out


def phi_transport(F: MPoly, p: UniPoly, comp: PrimaryComponent) -> MPoly:
    """Carry a truncated-quotient polynomial into the p-quotient.

    The variable x_i t^u (0 <= u < mult) goes to x_i times the class of
    (t - root)^u * r0, matching the isomorphism onto the primary block.
    """
    shifted = {}
    base = UniPoly.make([-comp.root, 1])
    cur = comp.r0
    for u in range(comp.mult):
        shifted[u] = cur
        cur = (cur * base).mod(p)

    def level_image(u):
        if u >= comp.mult:
            raise InputError("variable t degree exceeds component multiplicity")
        return shifted[u]

    return substitute_levels(F, level_image)


def takiff_generators(f_list: Sequence, n: int) -> list:
    """Central generators of the nilpotent truncation at order n.

    For each generator F of degree d, the graded polarization sums F^[j]
    with (n-1)d - n < j <= (n-1)d are central in S(q[t]/(t^n)).
    """
    if n < 1:
        raise InputError("truncation order must be positive")
    # the n sums of F each walk its polarizations, at most terms(F) * n^deg F
    # terms in all: refused before any is formed
    size = sum(F.num_terms() * n ** (F.total_degree() + 1) for F in f_list)
    if size > (budget := term_budget()):
        raise BudgetError(f"takiff generators of order {n} walk {size} terms, "
                          f"past budget {budget}")
    out = []
    for F in f_list:
        d = F.total_degree()
        for j in range(max((n - 1) * d - n + 1, 0), (n - 1) * d + 1):
            out.append(f_bracket_j(F, j, n))
    return out


def crt_generators(f_list: Sequence, p: UniPoly) -> list:
    """Central generators of S(q[t]/(p)) for a fully split modulus.

    Simple roots contribute the invariant evaluated on the idempotent;
    a root of multiplicity k contributes the k truncated generators
    carried through the primary-block isomorphism.
    """
    root_data = rational_roots(p)
    if root_data is None:
        raise InputError("modulus does not split over the rationals")
    comps = crt_primary(p, root_data)
    out = []
    for F in f_list:
        for comp in comps:
            if comp.mult == 1:
                out.append(attach_poly(F, comp.r0, p))
            else:
                out.extend(phi_transport(G, p, comp)
                           for G in takiff_generators([F], comp.mult))
    return out


# ---------------------------------------------------------------------------
# the quadratic family of a bilinear form


@lru_cache(maxsize=None)
def _raised_bracket_tensor(q: LieAlgebra) -> tuple:
    """T^{abk} = sum_ij g^{ia} g^{jb} c_ij^k: the structure constants
    lowered by the form and raised on all three slots, where lowering and
    raising the third slot cancel; fully antisymmetric for an invariant
    form."""
    den, brackets = q._int_brackets
    ginv = q.form_inverse
    cols = [[(a, x) for a in range(q.dim) if (x := ginv.at(i, a))] for i in range(q.dim)]
    raised = {}
    for (i, j), ent in brackets.items():
        for a, x in cols[i]:
            for b, y in cols[j]:
                for k, c in ent:
                    raised[(a, b, k)] = raised.get((a, b, k), 0) + x * y * c
    return tuple(sorted((key, v / den) for key, v in raised.items() if v))


@lru_cache(maxsize=None)
def _lowered_bracket_tensor(q: LieAlgebra) -> tuple:
    """S^{ab}_c = sum_m T^{abm} g_cm, the raised tensor T with its third
    slot lowered by the form: for each c, the ((a, b), S^{ab}_c) with a
    nonzero value, sorted."""
    lowered = [{} for _ in range(q.dim)]
    for (a, b, m), v in _raised_bracket_tensor(q):
        for c in range(q.dim):
            if g := q.form.at(c, m):
                lowered[c][a, b] = lowered[c].get((a, b), 0) + v * g
    return tuple(tuple(sorted((ab, v) for ab, v in row.items() if v)) for row in lowered)


@lru_cache(maxsize=None)
def _slot_pairings(q: LieAlgebra, i: int, j: int, mark: int) -> MappingProxyType:
    """x_(c, mark) -> sum_ab S^ab_c x_(a,i) x_(b,j), the pairing script_f
    puts in place of each marked factor; formed once per (q, i, j, mark)
    and read-only, as every call shares it."""
    return MappingProxyType({
        (c, mark): MPoly.from_factors((((a, i), (b, j)), v) for (a, b), v in entries)
        for c, entries in enumerate(_lowered_bracket_tensor(q))})


def quad_H(q: LieAlgebra, a: int, b: int) -> MPoly:
    """H[a, b]: the form-inverse pairing of the level-a and level-b copies."""
    if q.form is None:
        raise InputError(f"{q.name} carries no bilinear form")
    if a < 0 or b < 0:
        raise InputError("t degrees must be nonnegative")
    ginv = q.form_inverse
    return MPoly.from_factors((((i, a), (j, b)), ginv.at(i, j))
                              for i in range(q.dim) for j in range(q.dim) if ginv.at(i, j))


def quad_h(q: LieAlgebra, a: int, b: int, p: UniPoly) -> MPoly:
    """Class of H[a, b] in the quotient by p."""
    return psi_p(quad_H(q, a, b), p)


def quad_h_bilinear(q: LieAlgebra, f: UniPoly, g: UniPoly, p: UniPoly) -> MPoly:
    """h[f, g] = sum of f_a g_b h[a, b]; bilinear in the two polynomials."""
    f, g = f.mod(p), g.mod(p)
    acc = MPoly.zero()
    for a, fa in enumerate(f.coeffs):
        if fa == 0:
            continue
        for b, gb in enumerate(g.coeffs):
            if gb == 0:
                continue
            acc = acc + quad_h(q, a, b, p).scale(fa * gb)
    return acc


def quad_X(q: LieAlgebra, a: int, b: int, c: int) -> MPoly:
    """X[a, b, c]: the raised bracket tensor spread over three t levels."""
    return MPoly.from_factors((((i, a), (j, b), (k, c)), val)
                              for (i, j, k), val in _raised_bracket_tensor(q))


def y_xi(q: LieAlgebra, xi: Sequence, a: int, b: int) -> MPoly:
    """Y_xi[a, b]: the bracket-with-xi pairing over levels a and b,
    sum of S^{ji}_c xi_c x_(j, a) x_(i, b) over the lowered tensor S.

    Antisymmetric under swapping the levels; zero when a == b.
    """
    if q.form is None:
        raise InputError(f"{q.name} carries no bilinear form")
    xi = [rat(c) for c in xi]
    if len(xi) != q.dim:
        raise InputError("xi must have one coordinate per basis element")
    return MPoly.from_factors((((j, a), (i, b)), val * x)
                              for x, entries in zip(xi, _lowered_bracket_tensor(q)) if x
                              for (j, i), val in entries)


def xi_t(xi: Sequence) -> MPoly:
    """The linear element xi (x) t."""
    return MPoly.from_entries(((i, 1), c) for i, c in enumerate(xi) if rat(c))


# ---------------------------------------------------------------------------
# the distinguished central element of the quadratic family


def _chain_x_k(q: LieAlgebra, k: int, p: UniPoly) -> MPoly:
    """Sum of h[u, v] over u > v >= 2 with u + v = k + 1, half-weighted
    diagonal when k + 1 is even."""
    acc = MPoly.zero()
    for v in range(2, (k + 1) // 2 + 1):
        u = k + 1 - v
        if u <= v:
            break
        acc = acc + quad_h(q, u, v, p)
    if (k + 1) % 2 == 0:
        m = (k + 1) // 2
        if m >= 2:
            acc = acc + quad_h(q, m, m, p).scale(Fraction(1, 2))
    return acc


def lemma_x_element(q: LieAlgebra, p: UniPoly) -> MPoly:
    """Central quadratic element for a monic modulus of degree >= 3.

    Writing p = t^n - (c_{n-1} t^{n-1} + ... + c_0), the element is
    c_0 h[1,0] + (1/2) c_1 h[1,1] - sum_{k=3}^{n-1} c_k X_k + X_n with the
    X_k triangular sums of h[u, v].  Degree 2 is excluded: there the
    correction pattern collapses and this construction does not apply.
    """
    if p.is_zero() or not p.is_monic():
        raise InputError("modulus must be monic")
    n = p.degree
    if n < 3:
        raise InputError("the corrected element needs degree >= 3")
    c = [-p.coeff(k) for k in range(n)]
    x = quad_h(q, 1, 0, p).scale(c[0]) + quad_h(q, 1, 1, p).scale(Fraction(c[1], 2))
    for k in range(3, n):
        x = x - _chain_x_k(q, k, p).scale(c[k])
    return x + _chain_x_k(q, n, p)


# ---------------------------------------------------------------------------
# Gaudin Hamiltonians


def gaudin_hamiltonians(q: LieAlgebra, z: Sequence) -> list:
    """Quadratic Gaudin elements on n commuting copies of q.

    H_k sums the form pairing between copy k and copy j weighted by
    1/(z_k - z_j); the z's must be pairwise distinct.
    """
    if q.form is None:
        raise InputError(f"{q.name} carries no bilinear form")
    z = [rat(v) for v in z]
    if len(set(z)) != len(z):
        raise InputError("evaluation points must be distinct")
    n = len(z)
    # make_direct_power puts copy k at level k, so the copy-k / copy-j
    # pairing is H[k, j]
    out = []
    for k in range(n):
        acc = MPoly.zero()
        for j in range(n):
            if j != k:
                acc = acc + quad_H(q, k, j).scale(1 / (z[k] - z[j]))
        out.append(acc)
    return out


def copies_to_quotient(F: MPoly, p: UniPoly, roots: Sequence) -> MPoly:
    """Send copy a to the idempotent class r_a inside the quotient by p."""
    return substitute_levels(F, crt_idempotents(p, roots).__getitem__)


# ---------------------------------------------------------------------------
# centralizer of the quadratic element inside its own span


def h_pairs(n: int) -> list:
    return [(a, b) for a in range(n) for b in range(a, n)]


def h_span(q: LieAlgebra, p: UniPoly) -> list:
    """((a, b), h[a, b]) for 0 <= a <= b < deg p."""
    n = p.degree
    return [((a, b), quad_h(q, a, b, p)) for (a, b) in h_pairs(n)]


def centralizer_in_span(target: MPoly, span: Sequence, T: BracketTable) -> list:
    """Combinations of the span that Poisson-commute with target under T.

    Returns coefficient vectors (canonical echelon basis) over the span:
    the kernel of the transposed coefficient rows of the {target, s}, with
    the images of target formed once.
    """
    (brackets,) = poisson_brackets((target,), span, T)
    rows = coeff_rows(brackets)
    return kernel(row_space(zip(*rows), len(span)).rows, len(span))


def predicted_centralizer_basis(q: LieAlgebra, p: UniPoly) -> list:
    """The 2n - 1 element family: h[0,0], h[0,n-1], h[1,1], and for each
    3 <= k <= 2n-2 the sum of h[a, b] over ordered pairs a, b >= 1 with
    a + b = k (so off-diagonal pairs count twice)."""
    n = p.degree
    out = [quad_h(q, 0, 0, p), quad_h(q, 0, n - 1, p), quad_h(q, 1, 1, p)]
    for k in range(3, 2 * n - 1):
        acc = MPoly.zero()
        for a in range(1, k):
            b = k - a
            if a < n and b < n:
                acc = acc + quad_h(q, a, b, p)
        out.append(acc)
    return out


def graded_H_sum(q: LieAlgebra, j: int) -> MPoly:
    """Unreduced sum of H[a, b] over ordered pairs a, b >= 1, a + b = j."""
    acc = MPoly.zero()
    for a in range(1, j):
        acc = acc + quad_H(q, a, j - a)
    return acc


# ---------------------------------------------------------------------------
# form pairing and the universal decomposition


def script_f(q: LieAlgebra, F: MPoly, alpha: Sequence, i: int, j: int) -> MPoly:
    """The component of F's bracket image supported on the slot shape alpha.

    alpha lists how many factors sit at each t degree; the result is the
    unique element of that shape whose pairing against any basis product W
    equals the pairing of F with the bracket contraction of W's slot-i and
    slot-j factors (t degrees stripped).  Zero when either slot is empty;
    antisymmetric in (i, j).

    In closed form, with d = sum(alpha) - 1, Fbar the degree-d part of F
    with its t degrees stripped, and kvec holding level u as often as
    alpha - e_i - e_j has it:

        script_f = sum_c polarize(dFbar/dx_c, kvec) * sum_ab S^ab_c x_(a,i) x_(b,j)

    with S^ab_c = sum h_a'a h_b'b c^m_a'b' g_cm, h the inverse of the form
    g (_lowered_bracket_tensor).  Under the permanent pairing <P, Q> =
    P(D)Q, D_a = sum_b g_ab d/dx_b, multiplication by x_m is adjoint to D_m,
    d/dx_(a,u) to multiplication by sum_b h_ab x_(b,u), and stripping the t
    degrees to polarize, which sums over distinct arrangements; so the
    pairing condition above is met by this element of the shape.
    """
    sizes = [as_int(a) for a in alpha]
    if None in sizes:
        raise InputError("slot sizes must be integers")
    alpha = tuple(sizes)
    if any(a < 0 for a in alpha):
        raise InputError("slot sizes must be nonnegative")
    if not (0 <= i < len(alpha) and 0 <= j < len(alpha)) or i == j:
        raise InputError("slot indices must be distinct and in range")
    d = F.total_degree()
    if sum(alpha) != d + 1:
        raise InputError("slot sizes must total deg F + 1")
    if alpha[i] == 0 or alpha[j] == 0:
        return MPoly.zero()
    if q.form is None:
        raise InputError(f"{q.name} carries no bilinear form")
    try:
        q.form_inverse
    except InputError as exc:
        raise InputError("pairing matrix is singular") from exc
    # F's terms of degree d, t degrees stripped: only they pair with a
    # contraction, which has d factors
    dF, terms = F.factor_terms()
    Fbar = MPoly.from_factors((((k, 0) for k, _ in fs), n) for fs, n in terms if len(fs) == d)
    # polarizing over kvec and one more level, mark, that no slot uses gives
    # sum_c x_(c, mark) polarize(dFbar/dx_c, kvec); each x_(c, mark) then
    # becomes its pairing sum_ab S^ab_c x_(a,i) x_(b,j)
    mark = len(alpha)
    kvec = [u for u, a in enumerate(alpha) for _ in range(a - (u == i) - (u == j))]
    return substitute_vars(polarize(Fbar, kvec + [mark]),
                           _slot_pairings(q, i, j, mark)).scale(Fraction(1, dF))


def univ_sum(q: LieAlgebra, F: MPoly, alpha: Sequence, i: int) -> MPoly:
    """Sum of the slot decomposition over all partners of slot i."""
    acc = MPoly.zero()
    for j in range(len(alpha)):
        if j != i:
            acc = acc + script_f(q, F, alpha, i, j)
    return acc


@dataclass
class FFDecomposition:
    lhs: MPoly
    pieces: list
    rhs: MPoly

    @property
    def matches(self) -> bool:
        return self.lhs == self.rhs


def ff_bracket_decomposition(q: LieAlgebra, Y: MPoly, kvec: Sequence) -> FFDecomposition:
    """Half the bracket of the full polarization against the quadratic
    element, written as a sum of slot-shape components.

    The multiset {1, k_1, ..., k_d} drives the shapes: for each j >= 2
    with j - 1 present, one shape arises by promoting a j - 1 to j.
    """
    levels = tuple(as_int(k) for k in kvec)
    if None in levels or min(levels, default=0) < 0:
        raise InputError(f"t degrees {tuple(kvec)!r} are not nonnegative integers")
    kvec = levels
    H = quad_H(q, 1, 1)
    # H sits at level 1, so its bracket with levels kvec reaches max(kvec) + 1
    T = make_quotient(q, UniPoly.monomial(max(kvec, default=0) + 2))
    lhs = poisson_bracket(polarize_t(Y, kvec), H, T).scale(Fraction(1, 2))
    bag = sorted((1,) + kvec)
    pieces = []
    rhs = MPoly.zero()
    top = max(bag) + 1
    for j in range(2, top + 1):
        if (j - 1) not in bag:
            continue
        promoted = list(bag)
        promoted.remove(j - 1)
        promoted.append(j)
        width = max(promoted) + 1
        alpha = tuple(promoted.count(u) for u in range(width))
        piece = script_f(q, Y, alpha, 1, j)
        pieces.append((alpha, j, piece))
        rhs = rhs + piece
    return FFDecomposition(lhs=lhs, pieces=pieces, rhs=rhs)


# ---------------------------------------------------------------------------
# unimodular elimination matrices


def matrix_A(j: int) -> QMatrix:
    """Square matrix of size j - 1 with binomial entries C(u, b + 1) and a
    final column of u - 1; rows run u = j..2, columns b = j-2..1, then 0."""
    if j < 2:
        raise InputError("need j >= 2")
    rows = []
    for u in range(j, 1, -1):
        row = []
        for b in range(j - 2, 0, -1):
            row.append(Fraction(math.comb(u, b + 1)))
        row.append(Fraction(u - 1))
        rows.append(row)
    return QMatrix.from_rows(rows)


def matrix_A_kd(k: int, d: int) -> QMatrix:
    """Square matrix of size k + 1, rows u = k..0; columns b = k..1 carry
    C(u + d, b + d - 1) and the final column carries C(u + d - 1, d - 1)."""
    if k < 0 or d < 1:
        raise InputError("need k >= 0 and d >= 1")
    rows = []
    for u in range(k, -1, -1):
        row = []
        for b in range(k, 0, -1):
            row.append(Fraction(math.comb(u + d, b + d - 1)))
        row.append(Fraction(math.comb(u + d - 1, d - 1)))
        rows.append(row)
    return QMatrix.from_rows(rows)


def binom_identity_check(u: int, b: int) -> bool:
    """2 * sum_{i=1}^{u-b} C(u - i, b) == 2 * C(u, b + 1) for u > b > 0."""
    if not (u > b > 0):
        raise InputError("identity needs u > b > 0")
    lhs = 2 * sum(math.comb(u - i, b) for i in range(1, u - b + 1))
    return lhs == 2 * math.comb(u, b + 1)


# ---------------------------------------------------------------------------
# the split family t^n - c t in the lowest open case


def example_split_family(F: MPoly, c) -> dict:
    """Exact identities for the modulus t^3 - c t when c is a square.

    Only the cubic case is covered: beyond it the nonzero roots involve
    roots of unity that leave the rationals.  Returns the idempotent
    substitutions of F next to their predicted polarization expansions.
    """
    c = rat(c)
    if c == 0:
        raise InputError("c must be nonzero")
    alpha = _rat_sqrt(c)
    if alpha is None:
        raise InputError("c must be a rational square")
    n = 3
    p = UniPoly.make([0, -c, 0, 1])
    d = F.total_degree()
    # component at the zero root
    r1 = UniPoly.make([c, 0, -1]).scale(Fraction(1, 1) / (-c))
    lhs1 = attach_poly(F, r1, p).scale((-c) ** d)
    rhs1 = polarize(F, (n - 1,) * d)
    for k in range(1, d + 1):
        kv = (0,) * k + (n - 1,) * (d - k)
        rhs1 = rhs1 + polarize(F, kv).scale((-c) ** k)
    checks = {"zero_root": (lhs1, rhs1)}
    # the two nonzero roots alpha * zeta^i with zeta = -1
    for i in (2, 3):
        root = alpha * Fraction(-1) ** i
        num = UniPoly.t() * UniPoly.make([root, 1])
        ri = num.scale(Fraction(1, 1) / (c * (n - 1)))
        lhs = attach_poly(F, ri, p).scale((c * (n - 1)) ** d)
        rhs = MPoly.zero()
        for jdeg in range(d, d * (n - 1) + 1):
            inner = MPoly.zero()
            for kv in weakly_increasing(d, n - 1):
                if sum(kv) == jdeg and kv[0] >= 1:
                    inner = inner + polarize(F, kv)
            rhs = rhs + inner.scale(root ** (d * (n - 1) - jdeg))
        checks[f"root_{i}"] = (lhs, rhs)
    return checks


def _rat_sqrt(c: Fraction):
    if c < 0:
        return None
    num = math.isqrt(c.numerator)
    den = math.isqrt(c.denominator)
    if num * num == c.numerator and den * den == c.denominator:
        return Fraction(num, den)
    return None

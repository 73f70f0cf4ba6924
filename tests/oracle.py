"""Reference implementations that only the tests use.

They compute the same objects as glab's fast paths, by the plainest route,
so a property test can compare the two.
"""
import itertools
import math
import random
from fractions import Fraction
from functools import cached_property

from glab.exactla import PRIME, InputError, QMatrix, mat_inv, rank, rat_str, term_budget
from glab.liecore import BracketTable, UniPoly, algebra_from_json
from glab.psring import MPoly, _int_images, _keyed_neighbours, _partials


def power(x, k: int):
    """x * x * ... * x with k factors, the unit for k = 0, for an MPoly or a
    UniPoly: neither raises itself to a power."""
    out = MPoly.const(1) if isinstance(x, MPoly) else UniPoly.one()
    for _ in range(k):
        out = out * x
    return out


def reference_mul(F, G):
    """F * G, one term pair at a time in Fraction arithmetic, each product
    of monomials merged through a dict of exponents."""
    acc = {}
    for m1, c1 in F.terms.items():
        for m2, c2 in G.terms.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return MPoly(acc)


def reference_add(F, G):
    """The terms of F + G, one monomial at a time in Fraction arithmetic
    on .terms, zero sums dropped."""
    acc = F.terms
    for m, c in G.terms.items():
        acc[m] = acc.get(m, Fraction(0)) + c
    return {m: c for m, c in acc.items() if c}


def reference_scale(F, c):
    """The terms of c * F, one coefficient at a time in Fraction
    arithmetic on .terms."""
    c = Fraction(c)
    return {m: c * x for m, x in F.terms.items()} if c else {}


def reference_substitute(F, mapping):
    """The algebra map x_v -> mapping.get(v, x_v), one factor at a time on
    reference_mul."""
    acc = MPoly.zero()
    for m, c in F.terms.items():
        cur = MPoly.const(c)
        for v, e in m:
            img = mapping.get(v, MPoly.variable(v))
            for _ in range(e):
                cur = reference_mul(cur, img)
        acc = acc + cur
    return acc


def reference_psi(F, p):
    """psi_p on reference_substitute: x_i t^a -> x_i (t^a mod p) for a at
    or above deg p, the remainder formed by multiplying by t and cancelling
    the top coefficient against the monic p, one degree at a time."""
    n = len(p.coeffs) - 1
    mapping = {}
    for i, a in F.vars():
        if a < n:
            continue
        r = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for _ in range(a):
            top = r[-1]
            r = [Fraction(0)] + r[:-1]
            r = [x - top * c for x, c in zip(r, p.coeffs)]
        mapping[(i, a)] = MPoly.from_entries(((i, k), c) for k, c in enumerate(r))
    return reference_substitute(F, mapping)


def _perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def reference_char_poly(A):
    """[c_0, ..., c_n] with det(lambda - A) = sum_k c_k lambda^(n - k), A a
    square list of MPoly entries: expanded over the n! permutations and,
    for each, the 2^f subsets of its f fixed points at which lambda is
    taken."""
    n = len(A)
    bylam = {}
    for perm in itertools.permutations(range(n)):
        fixed = [i for i in range(n) if perm[i] == i]
        base = MPoly.const(_perm_sign(perm))
        for i in range(n):
            if perm[i] != i:
                base = base * (-A[i][perm[i]])
        if base.is_zero():
            continue
        for take in range(len(fixed) + 1):
            for subset in itertools.combinations(fixed, take):
                part = base
                for i in fixed:
                    if i not in subset:
                        part = part * (-A[i][i])
                bylam[take] = bylam.get(take, MPoly.zero()) + part
    return [bylam.get(n - k, MPoly.zero()) for k in range(n + 1)]


def reference_perm_pairing(q, ta, tb):
    """Permanent pairing of two factor tuples under q.form, in Fraction."""
    if len(ta) != len(tb):
        return Fraction(0)
    total = Fraction(0)
    for perm in itertools.permutations(range(len(ta))):
        prod = Fraction(1)
        for a, b in zip(ta, perm):
            prod *= q.form.at(a, tb[b])
        total += prod
    return total


def reference_slot_gram(q, k):
    """The Gram of the permanent pairing on the degree-k monomials of
    q.dim indices, each a sorted index tuple, in combinations order."""
    basis = list(itertools.combinations_with_replacement(range(q.dim), k))
    return QMatrix.from_rows([[reference_perm_pairing(q, a, b) for b in basis] for a in basis])


def reference_solve_slot_grams(q, alpha, rhs):
    """x with (G_1 (x) ... (x) G_s) x = rhs, G_u the Gram of slot u, in
    Fraction: each slot's inverse applied along its own axis in turn,
    the last slot running fastest."""
    x = list(rhs)
    inner = 1  # stride of slot u: the product of the sizes after it
    for k in reversed(alpha):
        try:
            inv = matrix_rows(mat_inv(reference_slot_gram(q, k)))
        except InputError as exc:
            raise InputError("pairing matrix is singular") from exc
        n = len(inv)
        y = [Fraction(0)] * len(x)
        for start in range(0, len(x), n * inner):
            for off in range(start, start + inner):
                col = x[off : off + n * inner : inner]
                for r, row in enumerate(inv):
                    y[off + r * inner] = sum((a * b for a, b in zip(row, col)), Fraction(0))
        x = y
        inner *= n
    return x


def reference_script_f(q, F, alpha, i, j):
    """script_f in Fraction: the pairing of F with the bracket contraction
    of slots i and j against every basis product of the shape alpha, read
    through q.bracket and q.form, then reference_solve_slot_grams."""
    try:
        sizes = tuple(int(a) for a in alpha)
    except (TypeError, ValueError, OverflowError):
        sizes = None
    if sizes != tuple(alpha):
        raise InputError("slot sizes must be integers")
    alpha = sizes
    if any(a < 0 for a in alpha):
        raise InputError("slot sizes must be nonnegative")
    if not (0 <= i < len(alpha) and 0 <= j < len(alpha)) or i == j:
        raise InputError("slot indices must be distinct and in range")
    if sum(alpha) != F.total_degree() + 1:
        raise InputError("slot sizes must total deg F + 1")
    if alpha[i] == 0 or alpha[j] == 0:
        return MPoly.zero()
    if q.form is None:
        raise InputError(f"{q.name} carries no bilinear form")
    left = [(tuple(k for (k, _), e in m for _ in range(e)), c) for m, c in F.terms.items()]
    slot_bases = [list(itertools.combinations_with_replacement(range(q.dim), a)) for a in alpha]
    vees = list(itertools.product(*slot_bases))
    rhs = []
    for v in vees:
        flat = [idx for slot in v for idx in slot]
        total = Fraction(0)
        for x in v[i]:
            for y in v[j]:
                rest = list(flat)
                rest.remove(x)
                rest.remove(y)
                for m, c in q.bracket(x, y):
                    t2 = tuple(sorted(rest + [m]))
                    for t1, c1 in left:
                        total += c * c1 * reference_perm_pairing(q, t1, t2)
        rhs.append(total)
    coeffs = reference_solve_slot_grams(q, alpha, rhs)
    acc = MPoly.zero()
    for cv, v in zip(coeffs, vees):
        if cv:
            mono = {}
            for u, slot in enumerate(v):
                for idx in slot:
                    mono[(idx, u)] = mono.get((idx, u), 0) + 1
            acc = acc + MPoly({tuple(sorted(mono.items())): cv})
    return acc


def reference_kron(a, b):
    """Kronecker product a (x) b: entry (i*b.rows + k, j*b.cols + l) is
    a[i, j] * b[k, l]."""
    ent = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                for l in range(b.cols):
                    ent.append(a.at(i, j) * b.at(k, l))
    return QMatrix(a.rows * b.rows, a.cols * b.cols, tuple(ent))


def matrix_rows(m):
    """The rows of a QMatrix as lists."""
    return [m.row(i) for i in range(m.rows)]


def reference_mat_mul(a, b):
    """The product of two QMatrix, entry by entry in Fraction arithmetic."""
    if a.cols != b.rows:
        raise InputError("shape mismatch in product")
    cols = list(zip(*matrix_rows(b)))
    ent = [sum((x * y for x, y in zip(ra, cb)), Fraction(0))
           for ra in matrix_rows(a) for cb in cols]
    return QMatrix(a.rows, b.cols, tuple(ent))


def reference_diff(F, v):
    """dF/dx_v, one term at a time in Fraction arithmetic."""
    v = tuple(v)
    acc = {}
    for m, c in F.terms.items():
        for idx, (w, e) in enumerate(m):
            if w == v:
                rest = list(m)
                if e == 1:
                    del rest[idx]
                else:
                    rest[idx] = (w, e - 1)
                mm = tuple(rest)
                s = acc.get(mm, Fraction(0)) + c * e
                if s:
                    acc[mm] = s
                else:
                    acc.pop(mm, None)
                break
    return MPoly(acc)


def reference_eval(F, point):
    """F at the point (variable -> value), one term at a time."""
    total = Fraction(0)
    for m, c in F.terms.items():
        for v, e in m:
            c *= point[v] ** e
        total += c
    return total


def reference_jacobian_at(polys, point, vars_order):
    """The Jacobian of polys at the point (variable -> value) in Fraction
    arithmetic, one row per polynomial and one column per variable of
    vars_order, each entry a reference_diff evaluated term by term."""
    return QMatrix.from_rows(
        [[reference_eval(reference_diff(F, v), point) for v in vars_order] for F in polys])


def reference_derivation(F, image):
    """The derivation extending x_v -> image(v): sum_v dF/dx_v * image(v),
    on reference_diff and reference_mul."""
    acc = MPoly.zero()
    for v in F.vars():
        img = image(v)
        if not img.is_zero():
            acc = acc + reference_mul(reference_diff(F, v), img)
    return acc


def reference_bracket(F, G, T):
    """{F, G} under a BracketTable by walking every stored pair.

    Each pair (u, v) of T.table adds (dF/du dG/dv - dF/dv dG/du) [x_u, x_v],
    whether or not u and v occur in F and G.
    """
    if F.is_zero() or G.is_zero():
        return MPoly.zero()
    vars_f, vars_g = F.vars(), G.vars()
    dF: dict = {}
    dG: dict = {}

    def d(poly, cache, v):
        if v not in cache:
            cache[v] = reference_diff(poly, v)
        return cache[v]

    acc = MPoly.zero()
    for (u, v), ent in T.table.items():
        fu = d(F, dF, u) if u in vars_f else MPoly.zero()
        gv = d(G, dG, v) if v in vars_g else MPoly.zero()
        fv = d(F, dF, v) if v in vars_f else MPoly.zero()
        gu = d(G, dG, u) if u in vars_g else MPoly.zero()
        diff = reference_mul(fu, gv) - reference_mul(fv, gu)
        if diff.is_zero():
            continue
        acc = acc + reference_mul(diff, MPoly.from_entries(ent))
    return acc


def reference_images(F, T):
    """v -> {F, x_v} under a BracketTable for every v with a nonzero image,
    by walking every stored pair once.

    The pair (u, v) of T.table adds dF/du [x_u, x_v] to the image at v and
    -dF/dv [x_u, x_v] to the image at u: reference_bracket(F, x_v, T) for
    all v in one walk.
    """
    vars_f = F.vars()
    dF = {u: reference_diff(F, u) for u in vars_f}
    out: dict = {}
    for (u, v), ent in T.table.items():
        lin = MPoly.from_entries(ent)
        for a, b, sign in ((u, v, 1), (v, u, -1)):
            if a in vars_f:
                out[b] = out.get(b, MPoly.zero()) + reference_mul(dF[a], lin).scale(sign)
    return {v: img for v, img in out.items() if not img.is_zero()}


def reference_annihilation_rows(polys, tables, targets=None):
    """psring.annihilation_rows by dense rows: one row per variable v and
    monomial k, read column by column off the images, then made primitive
    with its first nonzero entry positive and yielded unless seen before.
    The images are glab's own (_int_images), so this checks the row
    building alone, rows and order."""
    budget = term_budget()
    keyed = [_keyed_neighbours(T) for T in tables]
    wanted = None if targets is None else {
        u for _, index in keyed for u, pairs in index.items()
        if any(v in targets for v, _ in pairs)}
    K = len(polys)
    cols = [None] * (len(keyed) * K)  # (D_e * d_k, v -> {k: n}) per column (e, k)
    for k, F in enumerate(polys):
        pf = _partials(F._nums, wanted)
        for e, (D, index) in enumerate(keyed):
            cols[e * K + k] = (D * F._den, _int_images(pf, index, targets, budget))
        del pf
    lcm = math.lcm(*(den for den, _ in cols))
    cols = [(lcm // den, images) for den, images in cols]
    seen = set()
    for v in dict.fromkeys(v for _, images in cols for v in images):
        at = [(s, images.get(v, {})) for s, images in cols]
        for k in dict.fromkeys(k for _, img in at for k in img):
            row = [s * img.get(k, 0) for s, img in at]
            g = math.gcd(*row)
            if next(x for x in row if x) < 0:
                g = -g
            row = tuple([x // g for x in row])
            if row not in seen:
                seen.add(row)
                yield row


def position(T, v):
    """The position a * dim + i of the variable v = (i, a) of T."""
    i, a = v
    return a * T.base.dim + i


class FractionTable(BracketTable):
    """A BracketTable built from its Fraction pairs on variables,
    (u, v) -> ((w, c), ...) over position(u) < position(v), and holding
    them as table, each entry sorted by the position of w.

    scaled_neighbours is derived from table on first use, its variables
    turned into positions, D the lcm of the entry denominators, both orders
    of each pair in the order of table, so the integer index of glab's
    constructors can be checked against it.
    """

    def __init__(self, base, n, table):
        self.base = base
        self.n = n
        self.table = {}
        for key, entries in table.items():
            ent = tuple(sorted(((w, Fraction(c)) for w, c in entries if c != 0),
                               key=lambda e: position(self, e[0])))
            if ent:
                self.table[key] = ent

    @cached_property
    def scaled_neighbours(self):
        den = math.lcm(*(c.denominator for ent in self.table.values() for _, c in ent))
        out = {}
        for (u, v), ent in self.table.items():
            scaled = tuple((position(self, w), c.numerator * (den // c.denominator))
                           for w, c in ent)
            u, v = position(self, u), position(self, v)
            out.setdefault(u, []).append((v, scaled))
            out.setdefault(v, []).append((u, tuple((w, -c) for w, c in scaled)))
        return den, {u: tuple(pairs) for u, pairs in out.items()}


def pair_bracket(T, u, v):
    """[x_u, x_v] as ((w, c), ...) in Fraction, read from T.table."""
    if u == v:
        return ()
    if position(T, u) < position(T, v):
        return T.table.get((u, v), ())
    return tuple((w, -c) for w, c in T.table.get((v, u), ()))


def reference_pencil(t1, t2, a, b):
    """a * [.,.]_1 + b * [.,.]_2 as a FractionTable, the two Fraction
    tables merged pair by pair."""
    a, b = Fraction(a), Fraction(b)
    out = {}
    for key in set(t1.table) | set(t2.table):
        acc = out[key] = {}
        for ent, c in ((t1.table.get(key, ()), a), (t2.table.get(key, ()), b)):
            for w, cf in ent:
                acc[w] = acc.get(w, Fraction(0)) + c * cf
    return FractionTable(t1.base, t1.n, {key: tuple(acc.items()) for key, acc in out.items()})


# sl2 in the basis (e/3, f, h/2), whose structure constants and form both
# carry denominators: [a, b] = 2/3 c, [a, c] = -a, [b, c] = b,
# (a, b) = 1/3, (c, c) = 1/2
SL2_RESCALED = algebra_from_json({
    "name": "sl2-rescaled", "dim": 3, "basis": ["a", "b", "c"],
    "sc": [[0, 1, 2, "2/3"], [0, 2, 0, "-1"], [1, 2, 1, "1"]],
    "form": [["0", "1/3", "0"], ["1/3", "0", "0"], ["0", "0", "1/2"]],
})


def reference_raised_bracket_tensor(q):
    """T^{ijk} as ((i, j, k), value) in sorted order: the structure
    constants lowered by q.form to c_ijk = sum_m c_ij^m g_mk, then raised
    by the form inverse on all three slots, in Fraction arithmetic."""
    g, ginv, dim = q.form, q.form_inverse, q.dim
    lowered = {}
    for i in range(dim):
        for j in range(dim):
            ent = q.bracket(i, j)
            for k in range(dim):
                val = sum((c * g.at(m, k) for m, c in ent), Fraction(0))
                if val:
                    lowered[(i, j, k)] = val
    raised = {}
    for (i, j, k), val in lowered.items():
        for a in range(dim):
            x = ginv.at(i, a)
            if x == 0:
                continue
            for b in range(dim):
                y = ginv.at(j, b)
                if y == 0:
                    continue
                for c in range(dim):
                    z = ginv.at(k, c)
                    if z:
                        raised[(a, b, c)] = raised.get((a, b, c), Fraction(0)) + val * x * y * z
    return tuple(sorted((key, v) for key, v in raised.items() if v))


def reference_form_invariant(q):
    """Whether ([x_i, x_j], x_k) = (x_i, [x_j, x_k]) for every basis triple,
    each side summed in Fraction through q.bracket and q.form."""
    n = q.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = sum((c * q.form.at(m, k) for m, c in q.bracket(i, j)), Fraction(0))
        rhs = sum((c * q.form.at(i, m) for m, c in q.bracket(j, k)), Fraction(0))
        if lhs != rhs:
            return False
    return True


def reference_sc_bracket(q, i, j):
    """[x_i, x_j] as ((k, c), ...) read straight from q.sc: the entries
    stored for the pair, negated when i > j, merged by k in ascending k."""
    sign = 1 if i < j else -1
    acc = {}
    for a, b, ent in q.sc:
        if (a, b) == (min(i, j), max(i, j)):
            for k, c in ent:
                acc[k] = acc.get(k, 0) + sign * c
    return tuple((k, Fraction(c)) for k, c in sorted(acc.items()) if c)


def reference_takiff_sc(q, k):
    """Structure constants of q[t]/(t^k) flattened, x_i t^a at a * dim + i:
    for every pair of levels a <= b with a + b < k, each pair of basis
    indices (i < j when a == b) bracketed by reference_sc_bracket and lifted
    to level a + b."""
    dim = q.dim
    sc = []
    for a in range(k):
        for b in range(a, k - a):
            for i in range(dim):
                for j in range(i + 1 if a == b else 0, dim):
                    entries = tuple(((a + b) * dim + m, c)
                                    for m, c in reference_sc_bracket(q, i, j))
                    if entries:
                        sc.append((a * dim + i, b * dim + j, entries))
    return tuple(sorted(sc))


def reference_crt_idempotents(p, roots):
    """The Lagrange idempotents: for each root a, the product over the
    other roots b of (t - b) / (a - b), mod p."""
    out = []
    for a in map(Fraction, roots):
        num, den = UniPoly.one(), Fraction(1)
        for b in map(Fraction, roots):
            if b != a:
                num = num * UniPoly.make([-b, 1])
                den *= a - b
        out.append(num.scale(1 / den).mod(p))
    return tuple(out)


def reference_quotient(q, p):
    """The bracket of q[t]/(p) on x_i * t^a, 0 <= a < deg p, in Fraction.

    Every pair (i, j) of basis indices is bracketed through q.bracket for
    each pair of levels a <= b, and [x_i, x_j] * (t^(a+b) mod p) is summed
    one product of coefficients at a time.
    """
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
    return FractionTable(q, n, table)


def reference_structure_matrix(T, point):
    """Matrix of the bracket paired against a point, summed in Fraction.

    Entry (u, v) is the point evaluated on [x_u, x_v], read from the stored
    pair with position(u) < position(v); entry (v, u) is its negative.
    """
    N = T.dim_total
    ent = [[Fraction(0)] * N for _ in range(N)]
    for (u, v), ents in T.table.items():
        val = sum((c * point.get(w, Fraction(0)) for w, c in ents), Fraction(0))
        iu, iv = position(T, u), position(T, v)
        ent[iu][iv] = val
        ent[iv][iu] = -val
    return QMatrix.from_rows(ent)


def reference_jacobi(T):
    """First triple of variables (u, v, w), in ascending position, that
    violates Jacobi, else None.

    Every bracket is read through pair_bracket on Fraction, one triple
    at a time, in ascending position.
    """
    vs = T.var_list()
    N = len(vs)
    for iu in range(N):
        for iv in range(iu + 1, N):
            for iw in range(iv + 1, N):
                u, v, w = vs[iu], vs[iv], vs[iw]
                acc = {}
                for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
                    for m, c in pair_bracket(T, x, y):
                        for r, c2 in pair_bracket(T, m, z):
                            acc[r] = acc.get(r, Fraction(0)) + c * c2
                if any(val != 0 for val in acc.values()):
                    return (u, v, w)
    return None


def reference_rref(rows):
    """Reduced row echelon form by Gauss-Jordan over Fraction.

    Returns (rows, pivot_columns) with the zero rows dropped.
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
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
    return rows[:r], pivots


def reference_monomials(polys):
    """The monomials of the family, read from their tuples: graded, then
    lexicographic on the sorted (variable, exponent) pairs."""
    return sorted({m for F in polys for m in F.terms}, key=lambda m: (sum(e for _, e in m), m))


def reference_repr(F):
    """repr(F) from its tuples, the terms in reference_monomials order."""
    bits = []
    for m in reference_monomials([F]):
        factors = "".join(f"(x{i}.t{a})" + (f"^{e}" if e > 1 else "") for (i, a), e in m)
        c = rat_str(F.terms[m])
        bits.append(f"{c}*{factors}" if factors else c)
    return " + ".join(bits) or "0"


def reference_echelon_basis(polys):
    """The reduced row echelon basis of the span, by reference_rref of the
    Fraction coefficient rows over reference_monomials."""
    monos = reference_monomials(polys)
    reduced, _ = reference_rref([[F.terms.get(m, 0) for m in monos] for F in polys])
    return [MPoly({m: c for m, c in zip(monos, row) if c}) for row in reduced]


def reference_combine(polys, coeffs):
    """sum_k coeffs[k] * polys[k] in Fraction arithmetic on .terms, one
    scaled poly at a time."""
    if len(coeffs) != len(polys):
        raise ValueError("one coefficient per poly")
    acc = MPoly.zero()
    for F, c in zip(polys, coeffs):
        acc = acc + MPoly(reference_scale(F, c))
    return acc


def reference_combination_basis(polys, vectors):
    """The basis that combination_basis reads off the vectors, by forming
    every combination and reducing them all over their monomials."""
    return reference_echelon_basis([reference_combine(polys, v) for v in vectors])


def reference_polarize(F, kvec):
    """Polarization in Fraction arithmetic on .terms: for each monomial of F,
    one summand per distinct arrangement of kvec over its factors, the
    arrangements read off set(itertools.permutations(kvec))."""
    kvec = tuple(kvec)
    arrangements = set(itertools.permutations(kvec))
    acc = {}
    for m, c in F.terms.items():
        if any(a for (_, a), _ in m):
            raise InputError("polarization input must have t degree zero")
        factors = [i for (i, _), e in m for _ in range(e)]
        if len(factors) != len(kvec):
            raise InputError("monomial degree does not match the arrangement")
        for perm in arrangements:
            exps = {}
            for i, a in zip(factors, perm):
                exps[(i, a)] = exps.get((i, a), 0) + 1
            mono = tuple(sorted(exps.items()))
            acc[mono] = acc.get(mono, Fraction(0)) + c
    return MPoly(acc)


def reference_nullspace(rows, ncols):
    """Kernel of the matrix as the reduced row echelon basis, as tuples.

    One vector per free column f (1 at f, minus the RREF column f at the
    pivots), then the family is itself reduced.
    """
    reduced, pivots = reference_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[f]
        basis.append(v)
    return [tuple(v) for v in reference_rref(basis)[0]]


def cleared_rows(m):
    """The rows of m, each scaled by the lcm of its denominators to
    integers, as lists of int."""
    rows = []
    for i in range(m.rows):
        row = [Fraction(x) for x in m.row(i)]
        lcm = math.lcm(*[x.denominator for x in row])
        rows.append([x.numerator * (lcm // x.denominator) for x in row])
    return rows


def reference_rank_mod_p(m):
    """Rank over GF(PRIME) of m with each row cleared to integers
    (cleared_rows), on lists of residues.

    Reduction is lazy: a step reduces only the pivot row and the column it
    clears, so the other entries grow unreduced by less than PRIME^2 per
    step.  Each row keeps only the columns not yet cleared.
    """
    p = PRIME
    rows = [[x % p for x in r] for r in cleared_rows(m)]
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


def reference_sample_loop(rank_at, nvars, full, exact_rank_at, seed=0, samples=4,
                          bound=1000, max_rounds=5):
    """The sampled-rank protocol with rank_at called at every sample.

    Points are tuples of int drawn in the same order as sampled_max_rank
    draws them; the first sample of highest rank in each batch is kept,
    and the bound doubles while the two batches disagree, up to max_rounds
    rounds.  The witness is reranked by exact_rank_at when its rank is
    below full.  Returns (rank, witness, bound, rounds), the witness a
    tuple of Fraction and bound the last one sampled.
    """
    rng = random.Random(seed)
    best = (-1, None)
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        batch_ranks = []
        for _ in range(2):
            best_in_batch = (-1, None)
            for _ in range(samples):
                pt = tuple(rng.randint(-bound, bound) for _ in range(nvars))
                r = rank_at(pt)
                if r > best_in_batch[0]:
                    best_in_batch = (r, pt)
            batch_ranks.append(best_in_batch)
        b1, b2 = batch_ranks
        top = max(b1, b2, key=lambda x: x[0])
        if top[0] > best[0]:
            best = top
        if b1[0] == b2[0] or rounds == max_rounds:
            break
        bound *= 2
    r, pt = best
    if r < full:
        r = exact_rank_at(pt)
    return r, tuple(Fraction(x) for x in pt), bound, rounds


def reference_sampled_max_rank(matrix_at, nvars, seed=0):
    """sampled_max_rank with an exact rank at every sample, matrix_at
    taking a tuple of Fraction."""
    def exact(pt):
        return rank(matrix_at(tuple(Fraction(x) for x in pt)))

    return reference_sample_loop(exact, nvars, math.inf, exact, seed=seed)


def reference_ladder(F, p, first_level):
    """The reduced ladder of F from first_level, as polynomials: F attached
    to t (reference_polarize, every factor at level 1), its images under
    tau^k for k = 0 .. d(n - 1) + n + 1 (reference_derivation), each moved
    down 1 - first_level levels (reference_substitute) and reduced mod p
    (reference_psi); d = deg F, n = deg p."""
    d, n = F.total_degree(), len(p.coeffs) - 1

    def tau(v):
        i, a = v
        return MPoly.variable((i, a + 1), coef=a) if a else MPoly.zero()

    drop = 1 - first_level
    cur = reference_polarize(F, (1,) * d)
    out = []
    for _ in range(d * (n - 1) + n + 2):
        moved = reference_substitute(
            cur, {(i, a): MPoly.variable((i, a - drop)) for i, a in cur.vars()}) if drop else cur
        out.append(reference_psi(moved, p))
        cur = reference_derivation(cur, tau)
    return out


def reference_rho_gamma(F, gamma):
    """Evaluate the t coordinate in Fraction arithmetic on .terms: x_i t^0
    stays and x_i t^1 -> gamma_i, one term at a time; InputError at any
    higher t degree."""
    acc = {}
    for m, c in F.terms.items():
        kept = []
        for (i, a), e in m:
            if a > 1:
                raise InputError("evaluation defined only for t degrees 0 and 1")
            if a:
                c *= Fraction(gamma[i]) ** e
            else:
                kept.append(((i, a), e))
        if c:
            acc[tuple(kept)] = acc.get(tuple(kept), Fraction(0)) + c
    return MPoly(acc)

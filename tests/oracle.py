"""Reference implementations that only the tests use.

They compute the same objects as glab's fast paths, by the plainest route,
so a property test can compare the two.
"""
import random
from fractions import Fraction

from glab.exactla import QMatrix, rank
from glab.psring import MPoly


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
            cache[v] = poly.diff(v)
        return cache[v]

    acc = MPoly.zero()
    for (u, v), ent in T.table.items():
        fu = d(F, dF, u) if u in vars_f else MPoly.zero()
        gv = d(G, dG, v) if v in vars_g else MPoly.zero()
        fv = d(F, dF, v) if v in vars_f else MPoly.zero()
        gu = d(G, dG, u) if u in vars_g else MPoly.zero()
        first = MPoly.zero() if fu.is_zero() or gv.is_zero() else fu * gv
        second = MPoly.zero() if fv.is_zero() or gu.is_zero() else fv * gu
        diff = first - second
        if diff.is_zero():
            continue
        acc = acc + diff * MPoly.from_entries(ent)
    return acc


def reference_structure_matrix(T, point):
    """Matrix of the bracket paired against a point, summed in Fraction.

    Entry (u, v) is the point evaluated on [x_u, x_v], read from the stored
    pair with flat(u) < flat(v); entry (v, u) is its negative.
    """
    vs = T.var_list()
    N = len(vs)
    ent = [[Fraction(0)] * N for _ in range(N)]
    for (u, v), ents in T.table.items():
        val = sum((c * point.get(w, Fraction(0)) for w, c in ents), Fraction(0))
        iu, iv = T.flat(u), T.flat(v)
        ent[iu][iv] = val
        ent[iv][iu] = -val
    return QMatrix.from_rows(ent)


def reference_jacobi(T):
    """First flat triple (u, v, w) violating Jacobi, else None.

    Every bracket is read through T.pair_bracket on Fraction, one triple
    at a time, in ascending flat order.
    """
    vs = T.var_list()
    N = len(vs)
    for iu in range(N):
        for iv in range(iu + 1, N):
            for iw in range(iv + 1, N):
                u, v, w = vs[iu], vs[iv], vs[iw]
                acc = {}
                for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
                    for m, c in T.pair_bracket(x, y):
                        for r, c2 in T.pair_bracket(m, z):
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


def reference_sampled_max_rank(matrix_at, nvars, seed=0, samples=4, bound=1000,
                               max_rounds=5):
    """sampled_max_rank with an exact rank at every sample.

    Points are tuples of Fraction drawn in the same order; the first sample
    of highest rank in each batch is kept, and the bound doubles while the
    two batches disagree.  Returns (rank, witness, bound, rounds).
    """
    rng = random.Random(seed)
    best = (-1, None)
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        batch_ranks = []
        for _ in range(2):
            best_in_batch = (-1, None)
            for _ in range(samples):
                pt = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(nvars))
                r = rank(matrix_at(pt))
                if r > best_in_batch[0]:
                    best_in_batch = (r, pt)
            batch_ranks.append(best_in_batch)
        b1, b2 = batch_ranks
        top = max(b1, b2, key=lambda x: x[0])
        if top[0] > best[0]:
            best = top
        if b1[0] == b2[0]:
            return best[0], best[1], bound, rounds
        bound *= 2
    return best[0], best[1], bound, rounds

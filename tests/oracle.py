"""Reference implementations that only the tests use.

They compute the same objects as glab's fast paths, by the plainest route,
so a property test can compare the two.
"""
from glab.psring import MPoly


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

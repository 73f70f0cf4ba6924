"""Named verification suites producing deterministic reports.

Each suite runs a fixed family of exact checks and returns a Report whose
canonical JSON serialization is byte-stable for a given (suite, params,
seed) triple.  Wall-clock timing never enters the canonical bytes; the
markdown rendering may carry it as a courtesy.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .exactla import BudgetError, InputError, det, rat, rat_str, term_budget
from .liecore import (
    UniPoly,
    builtin_algebra,
    check_table_antisymmetry,
    check_table_jacobi,
    crt_idempotents,
    index_report,
    make_difference_bracket,
    make_direct_power,
    make_quotient,
    parse_poly,
    pencil_combination,
    rational_roots,
)
from .psring import (
    MPoly,
    annihilation_rows,
    pairwise_commute,
    poisson_bracket,
    poisson_brackets,
    psi_p,
    span_dim,
    tau_apply,
)
from .invariantlab import (
    attach_poly,
    basic_invariants,
    binom_identity_check,
    casimir,
    centralizer_in_span,
    copies_to_quotient,
    example_split_family,
    ff_bracket_decomposition,
    gaudin_hamiltonians,
    graded_H_sum,
    h_span,
    lemma_x_element,
    matrix_A,
    matrix_A_kd,
    predicted_centralizer_basis,
    quad_H,
    quad_X,
    quad_h,
    quad_h_bilinear,
    script_f,
    takiff_generators,
    univ_sum,
    xi_t,
    y_xi,
)
from .pencilz import (
    Pencil,
    build_Z,
    check_ft_gzu,
    check_sovp,
    expected_trdeg,
    mf_image,
    tau_ladder_span,
    trdeg_estimate,
    trdeg_of_Z,
    verify_Z_commutes,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: object = None


@dataclass
class Report:
    suite: str
    seed: int
    params: dict
    checks: list

    @property
    def ok(self) -> bool:
        """Every check passed, and there was one: no check shows nothing."""
        return bool(self.checks) and all(c.ok for c in self.checks)

    def counts(self) -> dict:
        passed = sum(1 for c in self.checks if c.ok)
        return {
            "total": len(self.checks),
            "passed": passed,
            "failed": len(self.checks) - passed,
        }

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "params": _jsonify(self.params),
            "version": __version__,
            "ok": self.ok,
            "counts": self.counts(),
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": _jsonify(c.detail)}
                for c in self.checks
            ],
        }


def _jsonify(value):
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    return str(value)


def canonical_json(report: Report) -> str:
    """Byte-stable serialization: sorted keys, tight separators, no timing."""
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))


def report_markdown(report: Report, elapsed: float | None = None) -> str:
    d = report.to_dict()
    lines = [f"# suite {d['suite']}", ""]
    lines.append(f"- seed: {d['seed']}")
    lines.append(f"- version: {d['version']}")
    if d["params"]:
        lines.append(f"- params: `{json.dumps(d['params'], sort_keys=True)}`")
    c = d["counts"]
    lines.append(f"- result: {'PASS' if d['ok'] else 'FAIL'} "
                 f"({c['passed']}/{c['total']} checks)")
    if elapsed is not None:
        lines.append(f"- elapsed: {elapsed:.2f}s (not part of the canonical report)")
    lines.append("")
    lines.append("| check | ok | detail |")
    lines.append("|---|---|---|")
    for ch in d["checks"]:
        det_txt = "" if ch["detail"] is None else json.dumps(ch["detail"], sort_keys=True)
        lines.append(f"| {ch['name']} | {'pass' if ch['ok'] else 'FAIL'} | {det_txt} |")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# suite bodies


def _refuse_work(suite: str, what: str, work) -> None:
    """BudgetError when the work that a suite's params imply, counted as
    loop passes times the cells or term products each pass may touch,
    passes the term budget.  A body calls it before any work, so a short
    --params cannot run for hours; the defaults stay far inside.  A float
    count can make work NaN (inf // 2), which is refused too."""
    budget = term_budget()
    if not work <= budget:
        raise BudgetError(f"suite {suite!r}: {what} implies {work} units of work, "
                          f"past budget {budget}")


def jacobi_case(q, p) -> tuple:
    """(antisymmetry holds, first Jacobi witness or None) for the quotient
    bracket of q[t] by p."""
    T = make_quotient(q, p)
    return check_table_antisymmetry(T), check_table_jacobi(T)


def _suite_jacobi(params, seed):
    checks = []
    for qa in params["algebras"]:
        q = builtin_algebra(qa)
        for ptxt in params["moduli"]:
            anti, bad = jacobi_case(q, parse_poly(ptxt))
            detail = None if bad is None else {"witness": bad}
            checks.append(CheckResult(f"antisymmetry[{qa}, {ptxt}]", anti))
            checks.append(CheckResult(f"jacobi[{qa}, {ptxt}]", bad is None, detail))
    return checks


def _suite_pencil_closure(params, seed):
    q = builtin_algebra(params["algebra"])
    p1 = parse_poly(params["p1"])
    p2 = parse_poly(params["p2"])
    pen = Pencil(q, p1, p2)
    N = q.dim * pen.n  # each member's Jacobi scan has N(N - 1)(N - 2)/6 triples
    _refuse_work("pencil-closure", f"count {params['count']}",
                 max(params["count"], 0) * (N * (N - 1) * (N - 2) // 6))
    t1, t2 = pen.end_tables
    rng = random.Random(seed)
    pts = []
    while len(pts) < params["count"] - 4:
        a, b = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
        if (a, b) != (0, 0):
            pts.append((a, b))
    while len(pts) < params["count"]:
        a = Fraction(rng.randint(-9, 9))
        pts.append((a, 1 - a))
    checks = []
    for a, b in pts:
        T = pencil_combination(t1, t2, a, b)
        anti = check_table_antisymmetry(T)
        bad = check_table_jacobi(T)
        ok = anti and bad is None
        detail = {"a": a, "b": b}
        if a + b == 1:
            fresh = make_quotient(q, p1.scale(a) + p2.scale(b))
            same = T == fresh
            detail["matches_fresh_quotient"] = same
            ok = ok and same
        checks.append(CheckResult(f"member[a={rat_str(a)}, b={rat_str(b)}]", ok, detail))
    return checks


def _suite_index_laws(params, seed):
    def check(name, T, want):
        rep = index_report(T, seed=seed)
        return CheckResult(name, rep.index == want, {
            "index": rep.index, "expected": want, "bound": rep.bound, "rounds": rep.rounds})

    checks = []
    for qa, ptxt in params["split_cases"]:
        q, p = builtin_algebra(qa), parse_poly(ptxt)
        ind_q = index_report(q, seed=seed).index
        checks.append(check(f"split-index[{qa}, {ptxt}]", make_quotient(q, p),
                            p.degree * ind_q))
    for qa, p1txt, p2txt in params["difference_cases"]:
        q, p1, p2 = builtin_algebra(qa), parse_poly(p1txt), parse_poly(p2txt)
        ind_q = index_report(q, seed=seed).index
        checks.append(check(f"difference-index[{qa}, {p1txt} vs {p2txt}]",
                            make_difference_bracket(q, p1, p2), q.dim + (p1.degree - 1) * ind_q))
    return checks


def crt_case(ptxt: str) -> dict:
    """Roots and CRT idempotents of the modulus written ptxt, with whether
    each idempotent squares to itself, whether they are pairwise
    orthogonal and whether they sum to one, all mod p.  InputError when p
    does not split over Q or has a repeated root."""
    p = parse_poly(ptxt)
    rd = rational_roots(p)
    if rd is None:
        raise InputError(f"{ptxt} does not split over Q")
    if any(m != 1 for _, m in rd):
        raise InputError(f"{ptxt} has repeated roots; idempotents need distinct roots")
    roots = tuple(r for r, _ in rd)
    idems = crt_idempotents(p, roots)
    total = sum(idems, UniPoly.zero())
    return {
        "roots": roots,
        "idempotents": idems,
        "square": [(e * e - e).mod(p).is_zero() for e in idems],
        "orthogonal": all(
            (e * f).mod(p).is_zero()
            for i, e in enumerate(idems) for j, f in enumerate(idems) if i != j
        ),
        "sum_to_one": (total - UniPoly.one()).mod(p).is_zero(),
    }


def _suite_crt(params, seed):
    q = builtin_algebra(params["algebra"])
    checks = []
    for ptxt in params["moduli"]:
        res = crt_case(ptxt)
        idems = res["idempotents"]
        ok_idem = all(res["square"])
        ok_orth, ok_sum = res["orthogonal"], res["sum_to_one"]
        checks.append(CheckResult(
            f"idempotents[{ptxt}]", ok_idem and ok_orth and ok_sum,
            {"square": ok_idem, "orthogonal": ok_orth, "sum_to_one": ok_sum},
        ))
        p = parse_poly(ptxt)
        T = make_quotient(q, p)
        # x (x) r_i against y (x) r_j, over every x, i and y, j
        pairs = list(itertools.product(range(q.dim), range(len(idems))))
        family = [attach_poly(MPoly.variable((x, 0)), idems[i]) for x, i in pairs]
        B = {xy: MPoly.from_entries(((m, 0), c) for m, c in q.bracket(*xy))
             for xy in itertools.product(range(q.dim), repeat=2)}
        ok_iso = True
        for (x, i), row in zip(pairs, poisson_brackets(family, family, T)):
            for (y, j), lhs in zip(pairs, row):
                bxy = B[x, y]
                if i == j and not bxy.is_zero():
                    rhs = attach_poly(bxy, idems[i], p)
                else:
                    rhs = MPoly.zero()
                if lhs != rhs:
                    ok_iso = False
        checks.append(CheckResult(f"component-iso[{ptxt}]", ok_iso))
    return checks


def _suite_takiff(params, seed):
    checks = []
    for qa, n in params["cases"]:
        q = builtin_algebra(qa)
        fs = basic_invariants(q)
        gens = takiff_generators(fs, n)
        p = UniPoly.monomial(n)
        T = make_quotient(q, p)
        central = not any(annihilation_rows(gens, [T]))
        want = n * len(fs)
        rep = trdeg_estimate(gens, T.var_list(), seed=seed)
        checks.append(CheckResult(
            f"takiff[{qa}, n={n}]",
            central and len(gens) == want and rep.rank == want,
            {"count": len(gens), "central": central, "jacobian_rank": rep.rank,
             "expected": want},
        ))
    return checks


def z_case(q, p1, p2, seed: int, samples: int | None = None) -> tuple:
    """(Z, whether Z Poisson-commutes, sampled trdeg report) for the pencil
    of q[t] spanned by the moduli p1 and p2, built from samples members
    (default d*n+3)."""
    Z = build_Z(Pencil(q, p1, p2), sample_count=samples)
    return Z, verify_Z_commutes(Z), trdeg_of_Z(Z, seed=seed)


def _suite_z_assembly(params, seed):
    checks = []
    for qa, p1txt, p2txt, counts, trdeg in params["cases"]:
        q = builtin_algebra(qa)
        Z, commutes, rep = z_case(q, parse_poly(p1txt), parse_poly(p2txt), seed)
        got_counts = Z.counts()
        want_counts = {int(k): v for k, v in counts.items()}
        # the sampled trdeg meets the paper's formula, and in degree two the
        # center holds the evaluation picture
        ok = (got_counts == want_counts and commutes
              and rep.rank == trdeg == expected_trdeg(q, Z.pencil.n)
              and (Z.pencil.n != 2 or mf_image(Z, [1] * q.dim)))
        checks.append(CheckResult(
            f"z[{qa}, {p1txt} / {p2txt}]", ok,
            {"counts": {str(k): v for k, v in got_counts.items()},
             "expected_counts": {str(k): v for k, v in want_counts.items()},
             "commutes": commutes, "trdeg": rep.rank, "expected_trdeg": trdeg},
        ))
    # a non-member pair must fail to commute, so the commuting checks bite
    q = builtin_algebra("sl2")
    pen = Pencil(q, parse_poly("t^2"), parse_poly("t^2+t"))
    t1, _ = pen.end_tables
    nc = poisson_bracket(MPoly.variable((0, 0)), MPoly.variable((2, 1)), t1)
    checks.append(CheckResult("negative-control[e.1 vs f.t]", not nc.is_zero()))
    return checks


def gaudin_commute_case(q, z) -> dict:
    """Whether the quadratic Gaudin elements of q at the points z pairwise
    Poisson-commute in the direct power q^len(z), and whether they sum to 0."""
    H = gaudin_hamiltonians(q, z)
    commute = pairwise_commute(H, make_direct_power(q, len(z)))
    total = MPoly.zero()
    for Hk in H:
        total = total + Hk
    return {"commute": commute, "sum_zero": total.is_zero()}


def _suite_gaudin(params, seed):
    checks = []
    for qa, zs in params["cases"]:
        q = builtin_algebra(qa)
        z = [rat(v) for v in zs]
        res = gaudin_commute_case(q, z)
        checks.append(CheckResult(
            f"gaudin[{qa}, z=({', '.join(rat_str(v) for v in z)})]",
            res["commute"] and res["sum_zero"],
            res,
        ))
    # quadratic element against weighted transported Hamiltonians
    q = builtin_algebra("sl2")
    roots = tuple(rat(r) for r in params["bridge_roots"])
    if 0 in roots:
        raise InputError("suite 'gaudin-commute': a bridge root is 0, and z is its inverse")
    p = UniPoly.from_roots(roots)
    idems = crt_idempotents(p, roots)
    h = quad_h(q, 1, 1, p)
    z = [1 / a for a in roots]
    H = gaudin_hamiltonians(q, z)
    acc = MPoly.zero()
    for k, a in enumerate(roots):
        acc = acc + copies_to_quotient(H[k], p, roots).scale(-2 * a)
        acc = acc + quad_h_bilinear(q, idems[k], idems[k], p).scale(a * a)
    checks.append(CheckResult(
        "quadratic-vs-gaudin[(t-1)(t-2)(t-3)]", acc == h,
    ))
    return checks


def _suite_quad_family(params, seed):
    checks = []
    q = builtin_algebra("sl2")
    top = params["range"]
    # top^2 quadratics H[a, b] against them all and the dim xi_t, each
    # bracket of two quadratics contracting at most dim^2 x dim^2 term pairs
    pairs = top ** 2 * (top ** 2 + q.dim) if top > 0 else 0
    _refuse_work("quad-family", f"range {top}", pairs * q.dim ** 4)
    # each n runs four centralizer solves over the n(n + 1)/2 classes of
    # h_span: their pairs times dim^2; lemma_x_element sums about d^2/4
    # classes h[u, v] for a modulus of degree d, each reduced mod p through
    # up to 2d remainders of dim^2 terms
    ns, x_moduli = params["centralizer_ns"], [parse_poly(m) for m in params["x_moduli"]]
    _refuse_work("quad-family", f"centralizer_ns {ns}",
                 sum(4 * (max(n, 0) * (n + 1) // 2) ** 2 * q.dim ** 2 for n in ns))
    _refuse_work("quad-family", f"x_moduli {params['x_moduli']}",
                 sum(max(p.degree, 0) ** 3 * q.dim ** 2 // 2 for p in x_moduli))
    # H[a, b] sit at levels < top and xi_t at level 1: brackets stay below 2 * top
    current = make_quotient(q, UniPoly.monomial(2 * top))
    levels = range(top)
    H = {ab: quad_H(q, *ab) for ab in itertools.product(levels, repeat=2)}
    X = {
        abc: quad_X(q, *abc)
        for abc in itertools.product(levels, levels, range(2 * top - 1))
    }
    xis = [[Fraction(1 if i == k else 0) for i in range(q.dim)] for k in range(q.dim)]
    Y = {
        (k, a, b): y_xi(q, xis[k], a, b)
        for k, a, b in itertools.product(range(q.dim), range(1, top + 1), levels)
    }
    # each H[a, b] against every H[c, d], then against every xi_t
    bad_quad = bad_lin = 0
    rows = poisson_brackets(H.values(), list(H.values()) + [xi_t(xi) for xi in xis], current)
    for (a, b), row in zip(H, rows):
        for (c, d), lhs in zip(H, row):
            if lhs != X[b, d, a + c] + X[b, c, a + d] + X[a, d, b + c] + X[a, c, b + d]:
                bad_quad += 1
        for k, lhs in enumerate(row[len(H):]):
            if lhs != Y[k, a + 1, b] + Y[k, b + 1, a]:
                bad_lin += 1
    checks.append(CheckResult(
        "bracket-of-quadratics", bad_quad == 0,
        {"checked": len(H) ** 2, "failed": bad_quad},
    ))
    checks.append(CheckResult(
        "bracket-against-linear", bad_lin == 0,
        {"checked": q.dim * len(H), "failed": bad_lin},
    ))
    for n in ns:
        for ptxt in (f"t^{n}", f"t^{n}-1", f"t^{n}+t+1"):
            p = parse_poly(ptxt)
            T = make_quotient(q, p)
            span = [s for _, s in h_span(q, p)]
            h = quad_h(q, 1, 1, p)
            dim = len(centralizer_in_span(h, span, T))
            ok = dim == 2 * n - 1
            detail = {"dim": dim, "expected": 2 * n - 1}
            if p == UniPoly.monomial(n):
                basis = predicted_centralizer_basis(q, p)
                (row,) = poisson_brackets((h,), basis, T)
                commutes = all(g.is_zero() for g in row)
                spn = span_dim(basis)
                ok = ok and commutes and spn == 2 * n - 1
                detail["predicted_basis_commutes"] = commutes
                detail["predicted_basis_span"] = spn
            checks.append(CheckResult(f"centralizer[{ptxt}]", ok, detail))
        p = UniPoly.monomial(n)
        T = make_quotient(q, p)
        h01 = quad_h(q, 0, 1, p)
        dim = len(centralizer_in_span(h01, [s for _, s in h_span(q, p)], T))
        checks.append(CheckResult(
            f"centralizer-of-h01[t^{n}]", dim == 2 * n - 1,
            {"dim": dim, "expected": 2 * n - 1},
        ))
    for ptxt, p in zip(params["x_moduli"], x_moduli):
        x = lemma_x_element(q, p)
        central = not any(annihilation_rows([x], [make_quotient(q, p)]))
        shifted = x - quad_h(q, 1, 1, p).scale(Fraction(1, 2))
        central_t = not any(
            annihilation_rows([shifted], [make_quotient(q, p + UniPoly.t())])
        )
        checks.append(CheckResult(
            f"corrected-element[{ptxt}]", central and central_t,
            {"central": central, "shifted_central_in_p_plus_t": central_t},
        ))
    return checks


def _suite_psi_tau(params, seed):
    checks = []
    q = builtin_algebra("sl2")
    C2 = casimir(q)
    for ptxt, want in params["ladder_cases"]:
        dim = len(tau_ladder_span(C2, parse_poly(ptxt)))
        checks.append(CheckResult(
            f"ladder-span[{ptxt}]", dim == want,
            {"dim": dim, "expected": want},
        ))
    ok_el = all(psi_p(tau_apply(quad_H(q, 1, 1), k - 2), UniPoly.monomial(n))
                == psi_p(graded_H_sum(q, k).scale(math.factorial(k - 2)), UniPoly.monomial(n))
                for n in (3, 4, 5) for k in range(3, n + 1))
    checks.append(CheckResult("raised-quadratic-is-graded-sum", ok_el))
    for qa, p1txt, p2txt in params["bound_cases"]:
        qq = builtin_algebra(qa)
        pen = Pencil(qq, parse_poly(p1txt), parse_poly(p2txt))
        Z = build_Z(pen)
        want = Z.expected_counts()
        got = Z.counts()
        checks.append(CheckResult(
            f"generator-count-bound[{qa}, {p1txt} / {p2txt}]", got == want,
            {"counts": {str(k): v for k, v in got.items()},
             "expected": {str(k): v for k, v in want.items()}},
        ))
    return checks


def _suite_sovp(params, seed):
    checks = []
    for label, check in (("shift", check_sovp), ("constant", check_ft_gzu)):
        for qa, ptxt in params["cases"]:
            chk = check(builtin_algebra(qa), parse_poly(ptxt))
            checks.append(CheckResult(f"{label}-pencil-spans[{qa}, {ptxt}]", chk.ok,
                                      {"detail": chk.detail}))
    return checks


def _suite_det_a(params, seed):
    # Bareiss on an m x m matrix updates about m^3 cells; matrix_A(j) is
    # (j - 1) x (j - 1) and matrix_A_kd(k, d) is (k + 1) x (k + 1); the
    # binomial identity at (u, b) sums u - b terms
    j_min, j_max, kd_max, binom_max = (
        params[k] for k in ("j_min", "j_max", "kd_max", "binom_max"))
    _refuse_work("det-A", f"j_max {j_max}",
                 max(j_max - j_min + 1, 0) * max(j_max - 1, 0) ** 3)
    _refuse_work("det-A", f"kd_max {kd_max}", max(kd_max, 0) ** 2 * (kd_max + 1) ** 3)
    _refuse_work("det-A", f"binom_max {binom_max}", max(binom_max, 0) ** 3)
    dets = {str(j): det(matrix_A(j)) for j in range(j_min, j_max + 1)}
    kds = range(1, kd_max + 1)
    bad = [[k, dd, rat_str(v)] for k in kds for dd in kds if (v := det(matrix_A_kd(k, dd))) != 1]
    binom = all(binom_identity_check(u, b) for u in range(2, binom_max + 1) for b in range(1, u))
    return [
        CheckResult("unimodular-square-family", all(d == 1 for d in dets.values()),
                    {"dets": {j: rat_str(d) for j, d in dets.items()}}),
        CheckResult("unimodular-rectangular-family", not bad, {"range": kd_max, "failures": bad}),
        CheckResult("halved-binomial-identity", binom),
    ]


def _suite_forms(params, seed):
    checks = []
    q = builtin_algebra("sl2")
    C2 = casimir(q)
    total = 0
    bad = 0
    for L in (2, 3, 4):
        for alpha in itertools.product(range(4), repeat=L):
            if sum(alpha) != C2.total_degree() + 1:
                continue
            for i in range(L):
                total += 1
                if not univ_sum(q, C2, alpha, i).is_zero():
                    bad += 1
    checks.append(CheckResult(
        "slot-sum-vanishes", bad == 0, {"checked": total, "failed": bad},
    ))
    anti_ok = all(script_f(q, C2, alpha, i, j) == -script_f(q, C2, alpha, j, i)
                  for alpha in ((1, 1, 1), (0, 2, 1), (1, 2))
                  for i, j in itertools.permutations(range(len(alpha)), 2))
    checks.append(CheckResult("slot-antisymmetry", anti_ok))
    for kvec in params["kvecs"]:
        dec = ff_bracket_decomposition(q, C2, tuple(kvec))
        checks.append(CheckResult(
            f"bracket-decomposition[kvec={tuple(kvec)}]", dec.matches,
            {"pieces": len(dec.pieces)},
        ))
    polys = [script_f(q, C2, (1, 1, 1), 0, j) for j in (1, 2)]
    dim = span_dim(polys)
    checks.append(CheckResult("balanced-slot-line", dim == 1, {"dim": dim}))
    for ctxt in params["split_cs"]:
        c = rat(ctxt)
        res = example_split_family(C2, c)
        ok = all(lhs == rhs for lhs, rhs in res.values())
        checks.append(CheckResult(
            f"split-family[c={rat_str(c)}]", ok,
            {k: bool(lhs == rhs) for k, (lhs, rhs) in res.items()},
        ))
    return checks


def _suite_determinism(params, seed):
    inner = params["inner"]
    if inner not in _BODIES:
        raise InputError(f"suite 'determinism': inner {inner!r} is not a suite")
    r1 = run_suite(inner, seed=seed)
    r2 = run_suite(inner, seed=seed)
    b1, b2 = canonical_json(r1), canonical_json(r2)
    checks = [
        CheckResult(
            f"repeat[{inner}, seed={seed}]", b1 == b2,
            {"bytes": len(b1), "inner_ok": r1.ok},
        )
    ]
    return checks


# ---------------------------------------------------------------------------
# registry


DEFAULTS = {
    "jacobi": {
        "algebras": ["sl2", "sl3", "abelian:3", "takiff:sl2:2"],
        "moduli": ["t^2", "t^2-1", "t^2-t", "t^3", "t^3-t", "t^3+t+1"],
    },
    "pencil-closure": {
        "algebra": "sl2", "p1": "t^3", "p2": "t^3+t", "count": 10,
    },
    "index-laws": {
        "split_cases": [["sl2", "t^2-t"], ["sl2", "t^3-t"], ["sl3", "t^2-t"]],
        "difference_cases": [["sl2", "t^2", "t^2+t"], ["sl2", "t^3", "t^3+t"]],
    },
    "crt": {
        "algebra": "sl2", "moduli": ["t^2-1", "t^2-t", "t^3-t"],
    },
    "takiff-generators": {
        "cases": [["sl2", 2], ["sl2", 3], ["sl3", 2]],
    },
    "z-assembly": {
        "cases": [
            ["sl2", "t^2", "t^2+t", {"0": 3}, 3],
            ["sl2", "t^2", "t^2+1", {"0": 3}, 3],
            ["sl2", "t^3", "t^3+t", {"0": 5}, 5],
            ["sl3", "t^2", "t^2+t", {"0": 3, "1": 4}, 7],
        ],
    },
    "gaudin-commute": {
        "cases": [["sl2", [1, 2, 5]], ["sl3", [1, 2]]],
        "bridge_roots": [1, 2, 3],
    },
    "quad-family": {
        "range": 3,
        "centralizer_ns": [2, 3, 4],
        "x_moduli": ["t^3", "t^3-1", "t^3+t+1"],
    },
    "psi-tau-spans": {
        "ladder_cases": [["t^2-1", 3], ["t^3-1", 5], ["t^3+t+1", 5]],
        "bound_cases": [
            ["sl2", "t^2", "t^2+t"], ["sl2", "t^3", "t^3+t"],
            ["sl3", "t^2", "t^2+t"],
        ],
    },
    "sovp": {
        "cases": [["sl2", "t^2-1"], ["sl2", "t^3+t+1"], ["sl3", "t^2-1"]],
    },
    "det-A": {
        "j_min": 4, "j_max": 12, "kd_max": 8, "binom_max": 20,
    },
    "forms": {
        "kvecs": [[0, 1], [1, 1], [1, 2]],
        "split_cs": ["1", "4", "9/4"],
    },
    "determinism": {"inner": "index-laws"},
}

_BODIES = {
    "jacobi": _suite_jacobi,
    "pencil-closure": _suite_pencil_closure,
    "index-laws": _suite_index_laws,
    "crt": _suite_crt,
    "takiff-generators": _suite_takiff,
    "z-assembly": _suite_z_assembly,
    "gaudin-commute": _suite_gaudin,
    "quad-family": _suite_quad_family,
    "psi-tau-spans": _suite_psi_tau,
    "sovp": _suite_sovp,
    "det-A": _suite_det_a,
    "forms": _suite_forms,
    "determinism": _suite_determinism,
}

SUITE_NAMES = tuple(_BODIES)


_JSON_TYPES = {bool: "boolean", int: "number", float: "number", str: "string",
               list: "array", tuple: "array", dict: "object", type(None): "null"}


def _shaped(value, default) -> bool:
    """value has the JSON type of default, no NaN or Infinity, and entries
    shaped alike: an object's values as its default's first value, a
    list's entries as its default's first entry, or, when the default's
    entries differ in type, as a record of as many entries, place by place."""
    if _JSON_TYPES.get(type(value)) != _JSON_TYPES[type(default)]:
        return False
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict) and default:
        return all(_shaped(v, next(iter(default.values()))) for v in value.values())
    if isinstance(value, list) and default:
        if len({_JSON_TYPES[type(x)] for x in default}) > 1:
            return len(value) == len(default) and all(map(_shaped, value, default))
        return all(_shaped(v, default[0]) for v in value)
    return True


def run_suite(name: str, params: dict | None = None, seed: int = 0) -> Report:
    """Run one named suite; unknown names and bad params raise InputError.

    An override must have the JSON type of its default, nested entries
    included (_shaped), with no NaN or Infinity in it.  A KeyError,
    TypeError, ValueError, IndexError or OverflowError (a float param past
    the range of floats) that the body raises on overridden params is bad
    input too; on the defaults it is a fault and propagates.
    """
    if name not in _BODIES:
        raise InputError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    merged = dict(DEFAULTS[name])
    for k, v in (params or {}).items():
        if k not in merged:
            raise InputError(f"suite {name!r} takes no parameter {k!r}")
        if not _shaped(v, merged[k]):
            raise InputError(f"suite {name!r}: parameter {k!r} must be a JSON "
                             f"{_JSON_TYPES[type(merged[k])]} shaped as its default "
                             f"{json.dumps(merged[k])}, with no NaN or Infinity")
        merged[k] = v
    try:
        checks = _BODIES[name](merged, seed)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        if not params or isinstance(exc, InputError):
            raise
        raise InputError(f"suite {name!r}: bad params: {exc!r}") from exc
    return Report(suite=name, seed=seed, params=merged, checks=checks)

"""Command line interface.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 bad
input, 3 term budget exceeded.
"""
from __future__ import annotations

import functools
import json
import sys
import time

import click

from . import __version__
from .exactla import InputError, rat, rat_str
from .liecore import (
    builtin_algebra,
    index_report,
    make_difference_bracket,
    make_quotient,
    parse_poly,
)
from .psring import BudgetError, term_budget
from .pencilz import Pencil, build_Z
from .suites import (
    SUITE_NAMES,
    canonical_json,
    crt_case,
    gaudin_commute_case,
    jacobi_case,
    report_markdown,
    run_suite,
    z_case,
)


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(2)
        except BudgetError as exc:
            click.echo(f"budget exceeded: {exc}", err=True)
            sys.exit(3)

    return wrapper


@click.group()
@click.version_option(__version__, prog_name="glab")
def main():
    """Exact tooling for quotient current algebras and their pencils."""


@main.command()
@_guard
def info():
    """Version, built-in algebras, suites, and the active term budget."""
    click.echo(f"glab {__version__}")
    click.echo("algebras: sl2..sl9, gl2..gl9, abelian:K, takiff:BASE:K, sum:A,B")
    click.echo(f"suites: {', '.join(SUITE_NAMES)}")
    click.echo(f"term budget: {term_budget()} (override with GLAB_BUDGET_TERMS)")


@main.command()
@click.option("--q", "qname", default="sl2", show_default=True, help="base algebra")
@click.option("--p", "ptxt", required=True, help="monic modulus, e.g. 't^2-1'")
@_guard
def jacobi(qname, ptxt):
    """Antisymmetry and Jacobi for the quotient bracket by --p."""
    anti, bad = jacobi_case(builtin_algebra(qname), parse_poly(ptxt))
    click.echo(f"antisymmetry: {'ok' if anti else 'FAIL'}")
    if bad is None:
        click.echo("jacobi: ok")
    else:
        click.echo(f"jacobi: FAIL at {bad}")
    if not anti or bad is not None:
        sys.exit(1)


@main.command()
@click.option("--q", "qname", default="sl2", show_default=True)
@click.option("--p", "ptxt", required=True, help="modulus for the quotient bracket")
@click.option("--p2", "p2txt", default=None,
              help="second modulus: measure the difference bracket instead")
@click.option("--seed", default=0, show_default=True)
@_guard
def index(qname, ptxt, p2txt, seed):
    """Sampled index of a quotient or difference bracket."""
    q = builtin_algebra(qname)
    p = parse_poly(ptxt)
    if p2txt is None:
        T = make_quotient(q, p)
        label = f"quotient by {ptxt}"
    else:
        T = make_difference_bracket(q, p, parse_poly(p2txt))
        label = f"difference of {ptxt} and {p2txt}"
    rep = index_report(T, seed=seed)
    click.echo(f"bracket: {label}")
    click.echo(f"dim: {rep.dim}  rank: {rep.rank}  index: {rep.index}")
    click.echo(f"seed: {rep.seed}  bound: {rep.bound}  rounds: {rep.rounds}")


@main.command()
@click.option("--p", "ptxt", required=True, help="modulus that splits over Q")
@_guard
def crt(ptxt):
    """Idempotent decomposition of a split modulus."""
    res = crt_case(ptxt)
    for r, e, sq in zip(res["roots"], res["idempotents"], res["square"]):
        click.echo(f"root {rat_str(r)}: r = {e}  idempotent: {'ok' if sq else 'FAIL'}")
    click.echo(f"sum to one: {'ok' if res['sum_to_one'] else 'FAIL'}")
    if not all(res["square"]) or not res["sum_to_one"]:
        sys.exit(1)


@main.group()
def zz():
    """Build and verify the joint-center subalgebra of a pencil."""


@zz.command("build")
@click.option("--q", "qname", default="sl2", show_default=True)
@click.option("--p1", "p1txt", required=True)
@click.option("--p2", "p2txt", required=True)
@click.option("--samples", default=None, type=int, help="member count (default d*n+3)")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "json"]))
@_guard
def zz_build(qname, p1txt, p2txt, samples, fmt):
    """Assemble generators from member centers and report the counts."""
    pen = Pencil(builtin_algebra(qname), parse_poly(p1txt), parse_poly(p2txt))
    Z = build_Z(pen, sample_count=samples)
    payload = {
        "algebra": qname,
        "p1": p1txt,
        "p2": p2txt,
        "samples": [rat_str(a) for a in Z.samples],
        "counts": {str(i): c for i, c in Z.counts().items()},
        "expected_counts": {str(i): c for i, c in Z.expected_counts().items()},
        "generators": Z.raw_generators,
        "normalization": {
            k: rat_str(v) if hasattr(v, "denominator") else v
            for k, v in pen.normalization().items()
        },
    }
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        click.echo(f"pencil: {p1txt} / {p2txt} over {qname}")
        click.echo(f"members sampled: {len(Z.samples)}")
        expected = Z.expected_counts()
        for i, c in Z.counts().items():
            click.echo(f"invariant {i}: {c} independent generators "
                       f"(expected {expected[i]})")


@zz.command("verify")
@click.option("--q", "qname", default="sl2", show_default=True)
@click.option("--p1", "p1txt", required=True)
@click.option("--p2", "p2txt", required=True)
@click.option("--samples", default=None, type=int)
@click.option("--seed", default=0, show_default=True)
@_guard
def zz_verify(qname, p1txt, p2txt, samples, seed):
    """Build, then check commutativity and the sampled transcendence degree."""
    Z, commutes, rep = z_case(builtin_algebra(qname), parse_poly(p1txt),
                              parse_poly(p2txt), seed, samples)
    counts_ok = Z.counts() == Z.expected_counts()
    click.echo(f"counts: {Z.counts()} expected {Z.expected_counts()} "
               f"{'ok' if counts_ok else 'FAIL'}")
    click.echo(f"commutes: {'ok' if commutes else 'FAIL'}")
    click.echo(f"trdeg: {rep.rank} (seed {rep.seed}, bound {rep.bound}, "
               f"rounds {rep.rounds})")
    if not commutes or not counts_ok:
        sys.exit(1)


@main.command()
@click.option("--q", "qname", default="sl2", show_default=True)
@click.option("--z", "ztxt", required=True, help="comma separated points, e.g. '1,2,5'")
@_guard
def gaudin(qname, ztxt):
    """Pairwise commutativity and zero sum of the quadratic elements."""
    q = builtin_algebra(qname)
    z = [rat(tok) for tok in ztxt.split(",") if tok.strip()]
    res = gaudin_commute_case(q, z)
    click.echo(f"copies: {len(z)}  commute: {'ok' if res['commute'] else 'FAIL'}  "
               f"sum zero: {'ok' if res['sum_zero'] else 'FAIL'}")
    if not (res["commute"] and res["sum_zero"]):
        sys.exit(1)


@main.group()
def suite():
    """Named verification suites."""


@suite.command("list")
@_guard
def suite_list():
    for name in SUITE_NAMES:
        click.echo(name)


@suite.command("run")
@click.argument("name")
@click.option("--seed", default=0, show_default=True)
@click.option("--format", "fmt", default="json", show_default=True,
              type=click.Choice(["json", "markdown"]))
@click.option("--params", "params_txt", default=None,
              help="JSON object overriding suite defaults")
@_guard
def suite_run(name, seed, fmt, params_txt):
    """Run one suite and print its report."""
    params = None
    if params_txt is not None:
        try:
            params = json.loads(params_txt)
        except json.JSONDecodeError as exc:
            raise InputError(f"--params is not valid JSON: {exc}")
        if not isinstance(params, dict):
            raise InputError("--params must be a JSON object")
    t0 = time.time()
    rep = run_suite(name, params=params, seed=seed)
    elapsed = time.time() - t0
    if fmt == "json":
        click.echo(canonical_json(rep))
    else:
        click.echo(report_markdown(rep, elapsed=elapsed))
    if not rep.ok:
        sys.exit(1)

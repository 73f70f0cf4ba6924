"""The four workloads: inputs from the seed, operations, and answer checks.

``build(name, seed, span)`` imports glab, builds the workload's inputs
(Lie algebras, moduli, pencils) and returns its operations in order.  An
operation is ``(label, run, check)``: ``run()`` returns the program's
output and ``check(output)`` says whether it equals the pinned answer.
Calls go through module attributes (``liecore.index_report``), so a traced
run sees them.  ``span(name)`` is a context manager the traced run uses to
time the CLI call; by default it does nothing.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import nullcontext, redirect_stdout

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_check(pin: dict, name: str, seed: int):
    """Pinned hash at pinned seeds; elsewhere `ok` and the check count."""

    def check(text: str) -> bool:
        report = json.loads(text)
        if not (report["ok"] and report["suite"] == name and report["seed"] == seed):
            return False
        want = pin["sha256"].get(str(seed))
        if want is not None:
            return sha256(text) == want
        return report["counts"]["total"] == pin["checks"]

    return check


def _suites(seed, span, pins):
    from glab import cli

    def cli_run(name):
        args = ["suite", "run", name, "--seed", str(seed), "--format", "json"]

        def run():
            buf = io.StringIO()
            with span("cli.main"), redirect_stdout(buf):
                try:
                    cli.main(args, standalone_mode=False)
                except SystemExit as exc:
                    if exc.code:
                        raise RuntimeError(f"glab exited with {exc.code}") from exc
            return buf.getvalue().rstrip("\n")

        return run

    return [
        (name, cli_run(name), _report_check(pins["suites"][name], name, seed))
        for name in cli.SUITE_NAMES
    ]


def _basis_text(Z) -> str:
    """Canonical text of the Z basis: monomials and coefficients, sorted."""
    from glab.exactla import rat_str

    return json.dumps([
        [sorted([repr(m), rat_str(c)] for m, c in F.terms.items()) for F in Z.basis[i]]
        for i in sorted(Z.basis)
    ], separators=(",", ":"))


def _pencil(seed, span, pins):
    from glab import liecore, pencilz

    pin = pins["pencil"]
    q = liecore.builtin_algebra("sl3")
    pen = pencilz.Pencil(q, liecore.parse_poly("t^3"), liecore.parse_poly("t^3+t"))
    state = {}

    def build():
        state["Z"] = pencilz.build_Z(pen, seed=seed)
        return state["Z"]

    def check_build(Z) -> bool:
        want = {int(k): v for k, v in pin["counts"].items()}
        return (Z.counts() == want and Z.expected_counts() == want
                and sha256(_basis_text(Z)) == pin["basis_sha256"])

    return [
        ("build_Z", build, check_build),
        ("verify_Z_commutes", lambda: pencilz.verify_Z_commutes(state["Z"]),
         lambda ok: ok is True),
        ("trdeg_of_Z", lambda: pencilz.trdeg_of_Z(state["Z"], seed=seed).rank,
         lambda r: r == pin["trdeg"]),
    ]


def _elimination(seed, span, pins):
    from glab import exactla, invariantlab, liecore

    pin = pins["elimination"]
    algebras = {name: liecore.builtin_algebra(name) for name in ("sl3", "sl4", "sl5", "gl4")}
    parse = liecore.parse_poly

    def stabilizer(qname, ptxt):
        q, p = algebras[qname], parse(ptxt)

        def run():
            T = liecore.make_quotient(q, p)
            rep = liecore.index_report(T, seed=seed)
            point = dict(zip(T.var_list(), rep.witness))
            kernel = exactla.nullspace(liecore.structure_matrix_at(T, point))
            return rep.index, len(kernel)

        return run

    def difference(qname, p1txt, p2txt):
        q, p1, p2 = algebras[qname], parse(p1txt), parse(p2txt)
        return lambda: liecore.index_report(
            liecore.make_difference_bracket(q, p1, p2), seed=seed).index

    jmin, jmax = pin["det_A_range"]
    kd_max = pin["det_A_kd_max"]
    ops = []
    for qname, ptxt, want in pin["stabilizers"]:
        ops.append((f"stabilizer[{qname}, {ptxt}]", stabilizer(qname, ptxt),
                    lambda got, want=want: got == (want, want)))
    for qname, p1txt, p2txt, want in pin["differences"]:
        ops.append((f"difference-index[{qname}, {p1txt} / {p2txt}]",
                    difference(qname, p1txt, p2txt),
                    lambda got, want=want: got == want))
    ops.append((f"det[matrix_A({jmin}..{jmax})]",
                lambda: [exactla.det(invariantlab.matrix_A(j))
                         for j in range(jmin, jmax + 1)],
                lambda dets: all(d == 1 for d in dets)))
    ops.append((f"det[matrix_A_kd(k, d <= {kd_max})]",
                lambda: [exactla.det(invariantlab.matrix_A_kd(k, d))
                         for k in range(1, kd_max + 1) for d in range(1, kd_max + 1)],
                lambda dets: all(d == 1 for d in dets)))
    return ops


def _products(seed, span, pins):
    from glab import suites

    def run(name, params):
        return lambda: suites.canonical_json(suites.run_suite(name, params, seed=seed))

    return [
        (name, run(name, pin["params"]), _report_check(pin, name, seed))
        for name, pin in pins["products"].items()
    ]


_BUILDERS = {
    "suites": _suites,
    "pencil": _pencil,
    "elimination": _elimination,
    "products": _products,
}


def build(name: str, seed: int, span=None, pins: dict | None = None) -> list:
    if span is None:
        span = lambda _name: nullcontext()  # noqa: E731
    return _BUILDERS[name](seed, span, load_pins() if pins is None else pins)

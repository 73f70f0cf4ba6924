"""Every public function or class in glab is reached by the program.

A name-level scan: the roots are everything cli.py names, the suite bodies
in the registry, the identifiers in the benchmark's workloads and tracer,
and the short allowlist below.  From there, each reached top-level
definition of src/glab reaches every name its body mentions.  A public
top-level definition left unreached is code only its own tests run.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glab"
BENCH = ROOT / "bench"

# reached by no command or suite, kept for the reason given
ALLOWLIST = {
    "algebra_to_json": "the reordered-basis regression test builds its sl2 with it",
    "algebra_from_json": "the reordered-basis regression test builds its sl2 with it",
    "gzu_lowest_span": "carries the paper's psi_p image of Z(q^, t)",
    "mf_image": "carries the paper's evaluation / Gaudin picture in degree two",
    "expected_trdeg": "the paper's trdeg formula for Z, checked against the sampled one",
    "mat_mul": "the reference that test_mat_mul_and_inv checks mat_inv against",
    "invariants_degree": "exact invariants from the bracket alone, cross-checked with sympy",
    "check_form_invariant": "checks the stored invariant form of the built-in algebras",
}


def _names(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def _definitions() -> tuple:
    """(name -> top-level nodes defining it, public def name -> module)."""
    defs, public = {}, {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if not node.name.startswith("_"):
                    public[node.name] = path.stem
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    return defs, public


def _roots(defs) -> set:
    roots = _names(ast.parse((SRC / "cli.py").read_text()))
    for node in defs["_BODIES"]:
        roots |= _names(node)
    for name in ("workloads.py", "tracer.py"):
        roots |= set(re.findall(r"\w+", (BENCH / name).read_text()))
    return roots


def _reached(defs, roots) -> set:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in defs.get(name, ()):
            todo.extend(_names(node) - seen)
    return seen


def test_every_public_definition_is_reached():
    defs, public = _definitions()
    reached = _reached(defs, _roots(defs) | set(ALLOWLIST))
    unreached = sorted(f"{mod}.{name}" for name, mod in public.items()
                       if name not in reached and mod != "cli")
    assert unreached == []


def test_allowlist_holds_only_otherwise_unreached_definitions():
    defs, public = _definitions()
    assert set(ALLOWLIST) <= set(public)
    reached = _reached(defs, _roots(defs))
    assert sorted(set(ALLOWLIST) & reached) == []

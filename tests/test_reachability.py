"""Every public function, class, method or property in glab is reached by
the program, and every defaulted parameter of one is set by some call.

A name-level scan: the roots are everything cli.py names, the suite bodies
in the registry, the identifiers in the benchmark's workloads and tracer,
and the short allowlists below.  From there, each reached top-level
definition of src/glab reaches every name its body mentions.  A reached
class reaches the names of its class body and of its dunder methods, which
Python calls implicitly; every other method or property is reached only
through an attribute of its name (``x.name``, or the word in a benchmark
file), and then reaches the names its own body mentions.  A public
definition left unreached is code only its own tests run.

The parameter scan reads every call in src/glab and bench/*.py by the
called name.  A defaulted parameter of a public function, method or
constructor that no call sets, by keyword or by position, is an option
only its own tests use.  A parameter of a public function or method that
its own body never reads is an input that changes nothing.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glab"
BENCH = ROOT / "bench"

# reached by no command or suite, kept for the reason given
ALLOWLIST = {
    "algebra_to_json": "writes an algebra with its form and matrices; the name-free "
                       "invariant tests load sl2 and sl3 back from it",
    "algebra_from_json": "loads an algebra whose invariants come from its matrices, "
                         "under any name; no command reads an algebra file yet",
    "invariants_degree": "exact invariants from the bracket alone, cross-checked with sympy",
}

# (class, method or property) reached by no command or suite, kept for the
# reason given
METHOD_ALLOWLIST = {}

# (definition, parameter) set by no call, kept for the reason given
PARAM_ALLOWLIST = {
    ("build_Z", "f_list"): "how an algebra outside sl, gl and abelian gives its invariants",
}

# (definition, parameter) that its body never reads, kept for the reason given
UNREAD_ALLOWLIST = {
    ("build_Z", "seed"): "the benchmark's pencil workload passes it; build_Z draws "
                         "no random number",
}


def _names(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.update((sub.attr, "." + sub.attr))
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def _by_name(node) -> list:
    """The methods and properties of a class that are reached by name: all
    but the dunder methods, which Python calls implicitly."""
    return [sub for sub in node.body if isinstance(sub, ast.FunctionDef)
            and not (sub.name.startswith("__") and sub.name.endswith("__"))]


def _definitions() -> tuple:
    """(name -> [names each definition of it mentions], public def name ->
    module, (class, public method or property) -> module)."""
    defs, public, methods = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                names, mentioned = [node.name], _names(node)
            elif isinstance(node, ast.ClassDef):
                by_name = _by_name(node)
                names = [node.name]
                mentioned = set().union(*(_names(sub) for sub in ast.iter_child_nodes(node)
                                          if sub not in by_name))
                for sub in by_name:
                    defs.setdefault("." + sub.name, []).append(_names(sub))
                    if not sub.name.startswith("_"):
                        methods[(node.name, sub.name)] = path.stem
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                mentioned = _names(node)
            else:
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[node.name] = path.stem
            for name in names:
                defs.setdefault(name, []).append(mentioned)
    return defs, public, methods


def _roots(defs) -> set:
    roots = _names(ast.parse((SRC / "cli.py").read_text()))
    for mentioned in defs["_BODIES"]:
        roots |= mentioned
    for name in ("workloads.py", "tracer.py"):
        words = set(re.findall(r"\w+", (BENCH / name).read_text()))
        roots |= words | {"." + w for w in words}
    return roots


def _reached(defs, roots) -> set:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for mentioned in defs.get(name, ()):
            todo.extend(mentioned - seen)
    return seen


def test_every_public_definition_is_reached():
    defs, public, _ = _definitions()
    reached = _reached(defs, _roots(defs) | set(ALLOWLIST))
    unreached = sorted(f"{mod}.{name}" for name, mod in public.items()
                       if name not in reached and mod != "cli")
    assert unreached == []


def test_allowlist_holds_only_otherwise_unreached_definitions():
    defs, public, _ = _definitions()
    assert set(ALLOWLIST) <= set(public)
    reached = _reached(defs, _roots(defs))
    assert sorted(set(ALLOWLIST) & reached) == []


def test_every_public_method_is_reached():
    defs, _, methods = _definitions()
    roots = _roots(defs) | set(ALLOWLIST) | {"." + m for _, m in METHOD_ALLOWLIST}
    reached = _reached(defs, roots)
    unreached = sorted(f"{mod}.{cls}.{name}" for (cls, name), mod in methods.items()
                       if "." + name not in reached and mod != "cli")
    assert unreached == []


def test_method_allowlist_holds_only_otherwise_unreached_methods():
    defs, _, methods = _definitions()
    assert set(METHOD_ALLOWLIST) <= set(methods)
    reached = _reached(defs, _roots(defs) | set(ALLOWLIST))
    assert sorted(m for _, m in METHOD_ALLOWLIST if "." + m in reached) == []


def _defaulted(fn, skip: int) -> dict:
    """Defaulted parameters of fn -> call position (None: keyword only);
    skip drops self or cls from the positions."""
    pos = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    first = len(pos) - len(fn.args.defaults)
    out = {name: k - skip for k, name in enumerate(pos) if k >= first}
    out.update({a.arg: None for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None})
    return out


def _defaulted_parameters() -> list:
    """(called name, parameter, position) for every defaulted parameter of a
    public function, method or constructor; a constructor is called by the
    class name."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                methods = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                methods = []
                for sub in node.body:
                    if not isinstance(sub, ast.FunctionDef):
                        continue
                    if sub.name == "__init__":
                        methods.append((node.name, sub, 1))
                    elif not sub.name.startswith("_"):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in sub.decorator_list)
                        methods.append((sub.name, sub, 0 if static else 1))
            else:
                continue
            for name, fn, skip in methods:
                out.extend((name, p, k) for p, k in _defaulted(fn, skip).items())
    return out


def _calls() -> dict:
    """Called name -> [(positional count, keyword names)]; a *args call sets
    every position and a **kwargs call every keyword (None)."""
    out = {}
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out.setdefault(name, []).append((
                float("inf") if starred else len(node.args),
                {k.arg for k in node.keywords},
            ))
    return out


def _unset_parameters() -> set:
    calls = _calls()
    return {
        (name, p) for name, p, k in _defaulted_parameters()
        if not any(p in kws or None in kws or (k is not None and npos > k)
                   for npos, kws in calls.get(name, ()))
    }


def test_every_defaulted_parameter_is_set():
    assert sorted(_unset_parameters() - set(PARAM_ALLOWLIST)) == []


def test_parameter_allowlist_holds_only_unset_parameters():
    assert sorted(set(PARAM_ALLOWLIST) - _unset_parameters()) == []


def _unused_imports(tree) -> list:
    """Names a module imports at top level and never mentions again."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend((a.asname or a.name).split(".")[0] for a in node.names)
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_top_level_import_is_used():
    unused = sorted(f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                    for name in _unused_imports(ast.parse(path.read_text())))
    assert unused == []


def test_the_import_scan_sees_an_unused_name():
    tree = ast.parse("from .exactla import QMatrix, rat\nimport math\nx = rat(math.pi)\n")
    assert _unused_imports(tree) == ["QMatrix"]


def _nested_imports(tree) -> list:
    """Line numbers of the imports below the top level of a module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]


def test_every_import_is_at_module_level():
    nested = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
              for line in _nested_imports(ast.parse(path.read_text()))]
    assert nested == []


def test_the_import_scan_sees_a_nested_import():
    tree = ast.parse("import math\ndef f():\n    import re\n    return re.I\n")
    assert _nested_imports(tree) == [3]


def _unread_parameters(tree) -> list:
    """(definition, parameter) for each parameter of a public function, or
    of a method of a public class (dunders included, self and cls not),
    that the body never reads."""
    out = []
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            fns = [(node, 0)]
        elif isinstance(node, ast.ClassDef):
            fns = [(sub, 0 if any(getattr(d, "id", None) == "staticmethod"
                                  for d in sub.decorator_list) else 1)
                   for sub in node.body if isinstance(sub, ast.FunctionDef)
                   and not (sub.name.startswith("_") and not sub.name.startswith("__"))]
        else:
            continue
        for fn, skip in fns:
            a = fn.args
            names = [x.arg for x in a.posonlyargs + a.args][skip:]
            names += [x.arg for x in a.kwonlyargs + [a.vararg, a.kwarg] if x is not None]
            read = {sub.id for sub in ast.walk(fn)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            out.extend((fn.name, p) for p in names if p not in read)
    return out


def test_every_parameter_is_read():
    unread = [pair for path in sorted(SRC.glob("*.py"))
              for pair in _unread_parameters(ast.parse(path.read_text()))]
    assert sorted(set(unread) - set(UNREAD_ALLOWLIST)) == []
    assert sorted(set(UNREAD_ALLOWLIST) - set(unread)) == []


def test_the_parameter_scan_sees_an_unread_parameter():
    tree = ast.parse(
        "def f(q, x, *, k=1):\n    return [x + k for _ in range(2)]\n"
        "def _g(q):\n    return 0\n"
        "class C:\n    def m(self, a, b):\n        return lambda: a\n"
        "    @staticmethod\n    def s(c):\n        return 1\n"
        "    def _h(self, z):\n        return 0\n")
    assert _unread_parameters(tree) == [("f", "q"), ("m", "b"), ("s", "c")]

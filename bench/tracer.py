"""Span tracer that wraps glab's public functions from outside the package.

Only the traced benchmark run imports this module.  ``Tracer.install``
rebinds each named function in every ``glab.*`` namespace that holds it, so
a call made through a ``from .x import y`` alias is recorded too, and wraps
``MPoly.__mul__``/``__rmul__``, ``MPoly.diff`` and ``RowSpace.add`` on their
classes.  Spans (name, start, end, parent span, operation id) stay in memory
in flat arrays; self time is a span's duration minus the time its child
spans cover.  ``Tracer.metrics`` turns the spans and counters into the
per-layer metrics listed in ``LAYER_METRICS``.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

from glab import exactla, psring

from metrics import LAYER_METRICS, LAYERS

# (layer, function) pairs wrapped wherever the function object is bound.
FUNCTIONS = (
    ("exactla", "rank"),
    ("exactla", "det"),
    ("exactla", "nullspace"),
    ("exactla", "rref"),
    ("liecore", "builtin_algebra"),
    ("liecore", "make_quotient"),
    ("liecore", "structure_matrix_at"),
    ("liecore", "index_report"),
    ("liecore", "sampled_max_rank"),
    ("liecore", "check_table_jacobi"),
    ("liecore", "pencil_combination"),
    ("liecore", "rational_roots"),
    ("psring", "poisson_bracket"),
    ("psring", "jacobian_rank_at"),
    ("psring", "psi_p"),
    ("psring", "substitute_vars"),
    ("invariantlab", "basic_invariants"),
    ("invariantlab", "polarize"),
    ("invariantlab", "crt_generators"),
    ("invariantlab", "quad_H"),
    ("invariantlab", "gaudin_hamiltonians"),
    ("invariantlab", "centralizer_in_span"),
    ("pencilz", "build_Z"),
    ("pencilz", "verify_Z_commutes"),
    ("pencilz", "trdeg_estimate"),
    ("pencilz", "check_sovp"),
    ("pencilz", "check_ft_gzu"),
    ("suites", "run_suite"),
)

# (class, attribute names sharing one function, span name)
METHODS = (
    (psring.MPoly, ("__mul__", "__rmul__"), "psring.mul"),
    (psring.MPoly, ("diff",), "psring.diff"),
    (exactla.RowSpace, ("add",), "exactla.rowspace_add"),
)

MARK = "__bench_traced__"
OUTSIDE = ("trace.overhead_ratio", "host.ref_s")  # filled in by run.py


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.op = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self._stack: list[list] = []  # [span index, start, child time]
        self._depth: dict[int, int] = {}
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._undo: list[tuple] = []
        self._adjacency: dict[int, tuple] = {}

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op_of.append(self.op)
        self._depth[nid] = self._depth.get(nid, 0) + 1
        now = time.perf_counter()
        self.start.append(now)
        self.end.append(now)
        self._stack.append([idx, now, 0.0])

    def _exit(self) -> None:
        now = time.perf_counter()
        idx, t0, child = self._stack.pop()
        self.end[idx] = now
        dur = now - t0
        nid = self.name_of[idx]
        name = self._names[nid]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self._depth[nid] -= 1
        if not self._depth[nid]:  # outermost span of this name
            self.incl[name] = self.incl.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every named function and method; ``uninstall`` undoes it."""
        modules = _glab_modules()
        for layer, fname in FUNCTIONS:
            home = sys.modules[f"glab.{layer}"]
            original = getattr(home, fname)
            wrapper = self._wrap(original, f"{layer}.{fname}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for cls, attrs, name in METHODS:
            original = cls.__dict__[attrs[0]]
            wrapper = self._wrap(original, name)
            for attr in attrs:
                self._undo.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name, _timed)
        tracer = self

        def wrapper(*args, **kwargs):
            return hook(tracer, fn, name, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    # -- poisson_bracket pair accounting ----------------------------------

    def pair_counts(self, F, G, T) -> tuple:
        """(pairs walked, pairs with one variable of F and one of G).

        A hit is a pair (u, v) with u in vars(F) and v in vars(G), or the
        other way round; only those can add a term to {F, G}.
        """
        if F.is_zero() or G.is_zero():
            return 0, 0
        vf, vg = F.vars(), G.vars()
        if hasattr(T, "table"):
            walked = len(T.table)
            adj = self._adjacency_of(T)
            hits = 0
            for u in vf:
                for v in adj.get(u, ()):
                    if v in vg:
                        hits += 1
            both = vf & vg
            twice = sum(1 for u in both for v in adj.get(u, ()) if v in both)
            return walked, hits - twice // 2
        walked = hits = 0
        try:
            for (u, v), _ in T.iter_pairs(vf, vg):
                walked += 1
                if (u in vf and v in vg) or (v in vf and u in vg):
                    hits += 1
        except exactla.InputError:  # the traced call raises it again
            pass
        return walked, hits

    def _adjacency_of(self, T) -> dict:
        got = self._adjacency.get(id(T))
        if got is not None and got[0] is T:
            return got[1]
        adj: dict = {}
        for u, v in T.table:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        self._adjacency[id(T)] = (T, adj)  # holding T keeps its id unique
        return adj

    # -- results -------------------------------------------------------

    def metrics(self) -> dict:
        """Value of every per-layer metric measured inside the traced run.

        ``trace.overhead_ratio`` and ``host.ref_s`` need runs outside this
        process, so ``run.py`` adds them.
        """
        c, calls, incl = self.counters, self.calls, self.incl

        def ratio(a, b):
            return a / b if b else 0.0

        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += s
        values = {f"{layer}.self_s": s for layer, s in layer_self.items()}
        for name in self._names:
            values[f"{name}.calls"] = calls.get(name, 0)
            values[f"{name}.s"] = incl.get(name, 0.0)
            values[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        values.update(c)
        values.update({
            "exactla.rowspace_add.accept_ratio": ratio(
                c.get("exactla.rowspace_add.accepts", 0),
                calls.get("exactla.rowspace_add", 0)),
            "liecore.rational_roots.split_ratio": ratio(
                c.get("liecore.rational_roots.splits", 0),
                calls.get("liecore.rational_roots", 0)),
            "psring.poisson_bracket.pair_hit_ratio": ratio(
                c.get("psring.poisson_bracket.pair_hits", 0),
                c.get("psring.poisson_bracket.pairs_walked", 0)),
            "psring.mul.out_ratio": ratio(c.get("psring.mul.out_terms", 0),
                                          c.get("psring.mul.term_pairs", 0)),
            "cli.overhead_s": self.self_s.get("cli.main", 0.0),
        })
        return {name: values.get(name, 0) for name, _, _, _ in LAYER_METRICS
                if name not in OUTSIDE}

    def write_spans(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self._names[self.name_of[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op_of[i],
                }) + "\n")


# -- per-function counters -------------------------------------------------
# A hook runs in place of the plain wrapper body: it opens the span, calls
# the original and records the counters named in LAYER_METRICS.


def _timed(tracer, fn, name, args, kwargs):
    """The plain wrapper body: one span around the call."""
    tracer._enter(name)
    try:
        return fn(*args, **kwargs)
    finally:
        tracer._exit()


def _matrix_hook(tracer, fn, name, args, kwargs):
    m = args[0]
    tracer.peak(f"{name}.max_cells", m.rows * m.cols)
    return _timed(tracer, fn, name, args, kwargs)


def _rowspace_add_hook(tracer, fn, name, args, kwargs):
    accepted = _timed(tracer, fn, name, args, kwargs)
    if accepted:
        tracer.count(f"{name}.accepts")
    return accepted


def _sampled_max_rank_hook(tracer, fn, name, args, kwargs):
    matrix_at = args[0]

    def counted(point):
        tracer.count(f"{name}.evals")
        return matrix_at(point)

    result = _timed(tracer, fn, name, (counted,) + tuple(args[1:]), kwargs)
    tracer.count(f"{name}.rounds", result[3])
    return result


def _rational_roots_hook(tracer, fn, name, args, kwargs):
    result = _timed(tracer, fn, name, args, kwargs)
    if result is not None:
        tracer.count(f"{name}.splits")
    return result


def _run_suite_hook(tracer, fn, name, args, kwargs):
    suite = args[0] if args else kwargs["name"]
    return _timed(tracer, fn, f"suites.{suite}", args, kwargs)


def _poisson_bracket_hook(tracer, fn, name, args, kwargs):
    walked, hits = tracer.pair_counts(*args[:3])
    tracer.count(f"{name}.pairs_walked", walked)
    tracer.count(f"{name}.pair_hits", hits)
    return _timed(tracer, fn, name, args, kwargs)


def _mul_hook(tracer, fn, name, args, kwargs):
    a, b = args
    pairs = None
    if isinstance(b, psring.MPoly):
        pairs = len(a.terms) * len(b.terms)
        tracer.count(f"{name}.term_pairs", pairs)
        tracer.peak(f"{name}.max_term_pairs", pairs)
    try:
        out = _timed(tracer, fn, name, args, kwargs)
    except psring.BudgetError:
        tracer.count("psring.budget_errors")
        raise
    if pairs is not None and out is not NotImplemented:
        tracer.count(f"{name}.out_terms", len(out.terms))
    return out


_HOOKS = {
    "exactla.rank": _matrix_hook,
    "exactla.nullspace": _matrix_hook,
    "liecore.sampled_max_rank": _sampled_max_rank_hook,
    "liecore.rational_roots": _rational_roots_hook,
    "psring.poisson_bracket": _poisson_bracket_hook,
    "suites.run_suite": _run_suite_hook,
    "psring.mul": _mul_hook,
    "exactla.rowspace_add": _rowspace_add_hook,
}


def installed_wrappers() -> int:
    """Number of traced wrappers bound anywhere in glab (0 when untraced)."""
    seen = 0
    for mod in _glab_modules():
        for value in vars(mod).values():
            if getattr(value, MARK, False):
                seen += 1
            elif isinstance(value, type):
                seen += sum(1 for v in vars(value).values() if getattr(v, MARK, False))
    return seen


def _glab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "glab" or n.startswith("glab.")) and m is not None]

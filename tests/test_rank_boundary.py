"""Sampled Jacobians cross from psring to exactla as integer rows.

psring and pencilz import neither ``QMatrix`` nor ``rank`` from exactla:
``psring.cleared_jacobian`` hands each sample over as a list of integer
rows, ``exactla.rank_mod_p(rows, ncols)`` ranks them mod PRIME, and the
exact rank at the witness is read off ``row_space(rows, ncols).dim``.  No
module of src/glab but exactla calls ``rank(`` or ``nullspace(``: RowSpace
is the program's one general exact rank, and Bareiss ``rank`` and
``nullspace`` are left to the benchmark.
"""
import ast
import inspect
from pathlib import Path

from glab import exactla
from glab.psring import MPoly, cleared_jacobian

SRC = Path(__file__).resolve().parent.parent / "src" / "glab"


def _exactla_imports(tree):
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "exactla"
            for alias in node.names}


def _calls(tree, names):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in names:
                yield node.lineno, name


def test_psring_and_pencilz_import_neither_qmatrix_nor_rank():
    for module in ("psring.py", "pencilz.py"):
        imported = _exactla_imports(ast.parse((SRC / module).read_text()))
        assert not imported & {"QMatrix", "rank"}, module


def test_only_exactla_calls_rank_or_nullspace():
    offenders = [
        f"{path.name}:{line} {name}("
        for path in sorted(SRC.glob("*.py")) if path.name != "exactla.py"
        for line, name in _calls(ast.parse(path.read_text()), {"rank", "nullspace"})
    ]
    assert offenders == []


def test_a_sampled_jacobian_is_a_list_of_integer_rows():
    x, y = MPoly.variable((0, 0)), MPoly.variable((1, 0))
    rows = cleared_jacobian([x * y, x.scale(exactla.rat("1/2"))], [(0, 0), (1, 0)])((3, 5))
    assert rows == [[5, 3], [1, 0]]
    assert type(rows) is list and all(type(r) is list for r in rows)
    assert all(type(v) is int for r in rows for v in r)
    assert list(inspect.signature(exactla.rank_mod_p).parameters) == ["rows", "ncols"]
    assert exactla.rank_mod_p(rows, 2) == exactla.row_space(rows, 2).dim == 2

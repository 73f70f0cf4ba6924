"""The stored form of a bracket table stays behind liecore.

No module of src/glab other than liecore calls ``BracketTable(`` or reads
the attribute ``table`` (the Fraction view derived from the integer
index).  Outside liecore only psring reads ``scaled_neighbours``, in
``_keyed_neighbours``, the one place its positions become variables.  So
a change of the stored form touches those two functions and liecore.  No
module calls ``.flat(``: every reader works on positions as stored.
"""
import ast
from pathlib import Path

from glab.liecore import BracketTable

SRC = Path(__file__).resolve().parent.parent / "src" / "glab"


def _offences(module, function, node):
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "flat":
        return ".flat("
    if module == "liecore.py":
        return None
    if isinstance(node, ast.Attribute) and node.attr == "table":
        return ".table"
    if isinstance(node, ast.Attribute) and node.attr == "scaled_neighbours" and (
            module, function) != ("psring.py", "_keyed_neighbours"):
        return ".scaled_neighbours"
    if isinstance(node, ast.Call):
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "BracketTable") or (
                isinstance(f, ast.Attribute) and f.attr == "BracketTable"):
            return "BracketTable("
    return None


def _walk(tree, function=None):
    """(enclosing top-level function name or None, node) for every node."""
    for node in ast.iter_child_nodes(tree):
        inner = function
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name
        yield inner, node
        yield from _walk(node, inner)


def test_only_liecore_builds_or_reads_the_pairs_of_a_table():
    offenders = [
        f"{path.name}:{node.lineno} {offence}"
        for path in sorted(SRC.glob("*.py"))
        for function, node in _walk(ast.parse(path.read_text()))
        if (offence := _offences(path.name, function, node))
    ]
    assert offenders == []
    assert not hasattr(BracketTable, "flat")

"""The stored form of a bracket table stays behind liecore.

No module of src/glab other than liecore calls ``BracketTable(`` or reads
the attribute ``table`` (the Fraction view derived from the integer
index).  Elsewhere tables come from liecore's constructors and are read
through ``scaled_neighbours``, so a change of the stored form touches one
module.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glab"


def _offences(node):
    if isinstance(node, ast.Attribute) and node.attr == "table":
        return ".table"
    if isinstance(node, ast.Call):
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "BracketTable") or (
                isinstance(f, ast.Attribute) and f.attr == "BracketTable"):
            return "BracketTable("
    return None


def test_only_liecore_builds_or_reads_the_pairs_of_a_table():
    offenders = [
        f"{path.name}:{node.lineno} {_offences(node)}"
        for path in sorted(SRC.glob("*.py")) if path.name != "liecore.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _offences(node)
    ]
    assert offenders == []

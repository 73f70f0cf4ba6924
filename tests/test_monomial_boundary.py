"""The packed monomial format stays behind psring.

No module of src/glab other than psring reads or writes the attribute
``terms`` (the decoded view) or ``_terms`` (the packed keys).  Elsewhere
monomials are built with MPoly.from_factors and read with
MPoly.factor_terms, so a change of the format touches one module.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glab"


def test_only_psring_touches_the_terms_of_a_polynomial():
    offenders = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(SRC.glob("*.py")) if path.name != "psring.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("terms", "_terms")
    ]
    assert offenders == []

"""The polynomial format stays behind psring.

No module of src/glab other than psring reads or writes the attribute
``terms`` (the decoded view), ``_den`` or ``_nums`` (the denominator and
the numerators on packed keys), nor reaches a private name of psring, by
import or as an attribute of the module.  Elsewhere monomials are built
with MPoly.from_factors and read with MPoly.factor_terms, which gives the
denominator and each term's integer numerator, so a change of the format
touches one module.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glab"


def _others():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "psring.py":
            yield path.name, ast.parse(path.read_text())


def test_only_psring_touches_the_terms_of_a_polynomial():
    offenders = [
        f"{name}:{node.lineno} .{node.attr}"
        for name, tree in _others()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("terms", "_den", "_nums")
    ]
    assert offenders == []


def test_no_module_reaches_a_private_name_of_psring():
    offenders = []
    for name, tree in _others():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "psring":
                offenders += [f"{name}:{node.lineno} import {a.name}"
                              for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id == "psring"):
                offenders.append(f"{name}:{node.lineno} psring.{node.attr}")
    assert offenders == []

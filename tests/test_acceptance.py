"""Acceptance gate: every shipped claim, one criterion per test.

Each criterion drives the same suite code the CLI runs, with the default
parameters, at exact tolerance (every comparison here is over Q).  One
pass/fail line is printed per criterion.
"""
from glab.suites import canonical_json, run_suite


def _criterion(number: int, suite: str, params=None, seed: int = 0):
    rep = run_suite(suite, params=params, seed=seed)
    c = rep.counts()
    status = "PASS" if rep.ok else "FAIL"
    print(f"criterion {number:02d} [{suite}] {status} "
          f"({c['passed']}/{c['total']} checks)")
    if not rep.ok:
        for ch in rep.checks:
            if not ch.ok:
                print(f"  failed: {ch.name} {ch.detail}")
    assert rep.ok, f"criterion {number} ({suite}) failed"
    return rep


def test_criterion_01_bracket_laws():
    """Antisymmetry and Jacobi for every algebra/modulus pair."""
    rep = _criterion(1, "jacobi")
    assert rep.counts()["total"] == 48


def test_criterion_02_pencil_closure():
    """Ten sampled pencil members close, and line members match fresh
    quotient tables."""
    rep = _criterion(2, "pencil-closure")
    assert rep.counts()["total"] == 10
    assert any(
        ch.detail and ch.detail.get("matches_fresh_quotient") for ch in rep.checks
    )


def test_criterion_03_index_laws():
    """Split moduli multiply the index; difference brackets add dim."""
    _criterion(3, "index-laws")


def test_criterion_04_crt():
    """Idempotent identities and the componentwise bracket isomorphism."""
    _criterion(4, "crt")


def test_criterion_05_takiff_generators():
    """Power-modulus generators are central with full Jacobian rank."""
    _criterion(5, "takiff-generators")


def test_criterion_06_z_assembly():
    """Generator counts, commutativity, and transcendence degrees of the
    four pinned pencils, each trdeg equal to the paper's formula
    (n-1)/2 dim q + (n+1)/2 ind q, and the evaluation picture of the three
    degree-two pencils, plus the non-commuting control pair."""
    _criterion(6, "z-assembly")


def test_criterion_07_gaudin():
    """Pairwise commutativity, zero sum, and the exact bridge to the
    quadratic element of a split cubic."""
    _criterion(7, "gaudin-commute")


def test_criterion_08_quadratic_family():
    """The closed bracket formulas, centralizer dimensions 2n-1, and the
    corrected central element with its shift."""
    _criterion(8, "quad-family")


def test_criterion_09_ladder_spans():
    """Reduced ladder dimensions d(n-1)+1 and assembled generator counts
    meeting the same bound."""
    _criterion(9, "psi-tau-spans")


def test_criterion_10_span_equalities():
    """Ladder-generated spans equal the assembled centers for the shift
    and constant pencils."""
    _criterion(10, "sovp")


def test_criterion_11_unimodular_matrices():
    """Both combinatorial matrix families have determinant one and the
    binomial identity holds."""
    _criterion(11, "det-A")


def test_criterion_12_slot_decompositions():
    """Slot sums vanish, bracket decompositions match, the balanced slot
    family is a line, and the split-family evaluations agree."""
    _criterion(12, "forms")


def test_criterion_13_determinism():
    """Same suite, same seed: byte-identical canonical reports."""
    rep = _criterion(13, "determinism")
    again = run_suite("determinism")
    assert canonical_json(rep) == canonical_json(again)

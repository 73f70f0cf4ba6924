"""Suite reports and the command line interface."""
import hashlib
import json
import re
import time

import pytest
from click.testing import CliRunner

from glab import invariantlab, pencilz, psring, suites
from glab.exactla import InputError
from glab.suites import (
    DEFAULTS,
    SUITE_NAMES,
    canonical_json,
    report_markdown,
    run_suite,
    z_case,
)
from glab.cli import main
from glab.liecore import builtin_algebra, parse_poly
from glab.pencilz import expected_trdeg


def test_registry_names():
    assert len(SUITE_NAMES) == 13
    assert set(DEFAULTS) == set(SUITE_NAMES)


def test_unknown_suite_and_param():
    with pytest.raises(InputError):
        run_suite("nope")
    with pytest.raises(InputError):
        run_suite("crt", params={"bogus": 1})


def test_report_shape():
    rep = run_suite("det-A", seed=3)
    assert rep.ok
    d = rep.to_dict()
    assert d["suite"] == "det-A"
    assert d["seed"] == 3
    assert d["counts"]["failed"] == 0
    assert all(set(c) == {"name", "ok", "detail"} for c in d["checks"])


def test_canonical_json_stable_and_timing_free():
    r1 = run_suite("index-laws", seed=5)
    r2 = run_suite("index-laws", seed=5)
    b1, b2 = canonical_json(r1), canonical_json(r2)
    assert b1 == b2
    payload = json.loads(b1)
    flat = json.dumps(payload)
    assert "elapsed" not in flat and "time" not in flat
    assert payload["seed"] == 5


@pytest.mark.parametrize("ptxt, message", [
    ("t^2+1", "t^2+1 does not split over Q"),
    ("t^2", "t^2 has repeated roots; idempotents need distinct roots"),
])
def test_crt_suite_refuses_moduli_without_distinct_rational_roots(ptxt, message):
    with pytest.raises(InputError, match=re.escape(message)):
        run_suite("crt", {"moduli": [ptxt]})
    res = CliRunner().invoke(
        main, ["suite", "run", "crt", "--params", json.dumps({"moduli": [ptxt]})]
    )
    assert res.exit_code == 2
    assert res.output == f"input error: {message}\n"


def test_forms_suite_refuses_non_integral_levels():
    # the decomposition is refused, not run for the truncated (0, 1)
    res = CliRunner().invoke(
        main, ["suite", "run", "forms", "--params", json.dumps({"kvecs": [[0.5, 1.9]]})]
    )
    assert res.exit_code == 2
    assert res.output == "input error: t degrees (0.5, 1.9) are not nonnegative integers\n"


def test_markdown_rendering():
    rep = run_suite("crt")
    md = report_markdown(rep, elapsed=0.5)
    assert "PASS" in md
    assert "not part of the canonical report" in md
    assert "| check | ok | detail |" in md


def test_param_override_detects_wrong_expectation():
    rep = run_suite(
        "z-assembly",
        params={"cases": [["sl2", "t^2", "t^2+t", {"0": 99}, 3]]},
    )
    assert not rep.ok


def test_pencil_closure_seed_changes_points():
    r1 = run_suite("pencil-closure", seed=0)
    r2 = run_suite("pencil-closure", seed=1)
    assert r1.ok and r2.ok
    assert canonical_json(r1) != canonical_json(r2)


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def runner():
    return CliRunner()


def test_cli_info(runner):
    res = runner.invoke(main, ["info"])
    assert res.exit_code == 0
    assert "suites:" in res.output


def test_cli_jacobi(runner):
    res = runner.invoke(main, ["jacobi", "--q", "sl2", "--p", "t^2-1"])
    assert res.exit_code == 0
    assert "jacobi: ok" in res.output


def test_cli_jacobi_bad_poly(runner):
    res = runner.invoke(main, ["jacobi", "--p", "zzz"])
    assert res.exit_code == 2


def test_cli_index(runner):
    res = runner.invoke(
        main, ["index", "--q", "sl2", "--p", "t^3", "--p2", "t^3+t"]
    )
    assert res.exit_code == 0
    assert "index: 5" in res.output


@pytest.mark.parametrize("p2, message", [
    ("t^2", "must differ"),  # p = p2 gives the zero bracket, no pencil
    ("2t^2", "must be monic"),
])
def test_cli_index_refuses_moduli_that_span_no_pencil(runner, p2, message):
    for args in (["index", "--q", "sl2", "--p", "t^2", "--p2", p2],
                 ["zz", "build", "--q", "sl2", "--p1", "t^2", "--p2", p2]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert message in res.output


def test_cli_crt(runner):
    res = runner.invoke(main, ["crt", "--p", "t^2-t"])
    assert res.exit_code == 0
    assert "sum to one: ok" in res.output
    res2 = runner.invoke(main, ["crt", "--p", "t^2+1"])
    assert res2.exit_code == 2


# sha256 of the full output, taken before glab crt and glab zz verify ran
# the suite case functions
@pytest.mark.parametrize("args, exit_code, digest", [
    ("crt --p t^3-t", 0,
     "2b75cddf000cf673bda31685791c696f838d620feda9f4a597ba257176d07f96"),
    ("crt --p t^2-t", 0,
     "9300f11d3ef2960d5927c36408648167b67c746b495f2f7caefe23470bfcf70f"),
    ("crt --p t^3-6t^2+11t-6", 0,
     "fbb517badfd932f9e5934d2c2e7bf4b58b762c8700f512bb2e33c831e3bc6c62"),
    ("crt --p t^2+1", 2,
     "28c22f0d5ed6d1fb131b43b45af6cf6ac72482c0715fc60032b4de5aa76d7e21"),
    ("crt --p t^2", 2,
     "e9db9cdd0827e8b9e0c8b1dd61c1599d589561602692c7740ee763bc5fdf52bd"),
    ("zz verify --q sl2 --p1 t^2 --p2 t^2+1", 0,
     "b87fb57e39ee086e0a0d468a3424233d82ad4f16a00ecbfc8045a3d24cf440f0"),
    ("zz verify --q sl3 --p1 t^2 --p2 t^2+t", 0,
     "435ef1e8f4b2d28793f92ac5b0b38aa29394d465d4c2032e52f0130eb1dcb2c1"),
    ("zz verify --q sl3 --p1 t^3 --p2 t^3+t", 0,
     "f9f22730de1c56ee82ea5dc92fbbdb37b31aeea0a26aecb82e2522181fa9d713"),
    ("zz verify --q gl3 --p1 t^3 --p2 t^3+1", 0,
     "0240eb3c55902b22ff1349a98da1b364dcc560e8ba335f81876b4854bf0c3730"),
    ("zz build --q sl2 --p1 t^3 --p2 t^3+t --format json", 0,
     "0c4408b35edbecd50ef61e5d94e2c1a044ae954c770738d7cc0457718c053ead"),
])
def test_cli_output_bytes_are_pinned(runner, args, exit_code, digest):
    res = runner.invoke(main, args.split())
    assert res.exit_code == exit_code
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


# sha256 of seed-0 canonical reports, taken while q[t] still had a bracket of
# its own; a truncation bound one too low turns the range-1 report to ok: false
@pytest.mark.parametrize("name, params, digest", [
    ("quad-family", {"range": 1},
     "40aa83d9b16685c2b4dca020600b2f1fcc8407fe08c74e6ea0c286af29c428bf"),
    ("quad-family", {"range": 2},
     "a02960150da1642bc0526bd95c1e0b70a3603975cdc27841a3d8479287a91a19"),
    ("forms", {"kvecs": [[0, 5], [2, 4]]},
     "f4f34ef2b83c476f7a3b44ac4b4a0ddd008fc51b1e4c9df55919dd144eaf7b2d"),
])
def test_truncated_current_bracket_reports_are_pinned(name, params, digest):
    report = canonical_json(run_suite(name, params, seed=0))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_quad_family_forms_each_quadratic_images_once(monkeypatch):
    # range 2 has 4 H[a, b], whose images the bracket checks form once each,
    # not once per pair; per n: centralizer[t^n], [t^n-1], [t^n+t+1], the
    # predicted basis and centralizer-of-h01 form one image set each, and
    # per x modulus so do the central and the shifted-central checks
    images, calls = psring._int_images, []

    def counted(*args):
        calls.append(args)
        return images(*args)

    monkeypatch.setattr(psring, "_int_images", counted)
    assert run_suite("quad-family", {"range": 2}).ok
    params = DEFAULTS["quad-family"]
    rest = 5 * len(params["centralizer_ns"]) + 2 * len(params["x_moduli"])
    assert len(calls) == 4 + rest


def test_cli_zz_build_json(runner):
    res = runner.invoke(main, [
        "zz", "build", "--q", "sl2", "--p1", "t^2", "--p2", "t^2+t",
        "--format", "json",
    ])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["counts"] == {"0": 3}
    assert payload["generators"] == 14
    assert payload["seed"] == 0


def test_cli_zz_build_json_counts_every_member_kernel_vector(runner):
    # one raw generator per kernel vector of every member, as when each
    # was formed as a polynomial
    res = runner.invoke(main, [
        "zz", "build", "--q", "sl4", "--p1", "t^3", "--p2", "t^3+t", "--format", "json",
    ])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["counts"] == payload["expected_counts"] == {"0": 5, "1": 7, "2": 9}
    assert payload["generators"] == 135


def test_cli_zz_build_forms_no_basis_polynomial(runner, monkeypatch):
    # the counts are the number of kept kernel rows; Z's basis polynomials
    # are formed only when something reads them
    def unreachable(*args):
        raise AssertionError("zz build formed a basis polynomial")

    monkeypatch.setattr(pencilz, "combination_basis", unreachable)
    args = ["zz", "build", "--q", "sl3", "--p1", "t^2", "--p2", "t^2+t"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert "invariant 0: 3 independent generators (expected 3)" in res.output
    assert "invariant 1: 4 independent generators (expected 4)" in res.output
    res = runner.invoke(main, args + ["--format", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["counts"] == {"0": 3, "1": 4}


def test_z_case_on_a_sum_of_abelian_algebras():
    # the invariants of an abelian sum come from its structure, not its name
    q = builtin_algebra("sum:abelian:1,abelian:2")
    Z, commutes, rep = z_case(q, parse_poly("t^2"), parse_poly("t^2+t"), seed=0)
    assert Z.counts() == {0: 2, 1: 2, 2: 2}
    assert commutes
    assert rep.rank == expected_trdeg(q, 2) == 6


@pytest.mark.parametrize("name, wrong", [
    ("expected_trdeg", lambda q, n: 0),
    ("mf_image", lambda Z, gamma: False),
])
def test_z_assembly_fails_when_a_paper_claim_disagrees(monkeypatch, name, wrong):
    # negative control: the verdict reads the trdeg formula and, in degree
    # two, the evaluation picture; the detail stays as it was
    params = {"cases": [["sl2", "t^2", "t^2+t", {"0": 3}, 3]]}
    want = run_suite("z-assembly", params).checks[0]
    monkeypatch.setattr(suites, name, wrong)
    got = run_suite("z-assembly", params).checks[0]
    assert want.ok and not got.ok
    assert got.detail == want.detail


def test_cli_zz_verify(runner):
    res = runner.invoke(main, [
        "zz", "verify", "--q", "sl2", "--p1", "t^2", "--p2", "t^2+1",
    ])
    assert res.exit_code == 0
    assert "commutes: ok" in res.output


def test_cli_zz_verify_needs_no_root_search(runner):
    # no member's modulus is searched for rational roots, so a constant
    # term whose divisors would take trial division to 10^8 costs nothing
    res = runner.invoke(main, [
        "zz", "verify", "--q", "sl3",
        "--p1", "t^3-10000000000000061", "--p2", "t^3+t-10000000000000061",
    ])
    assert res.exit_code == 0
    assert re.search(r"^counts: .* ok$", res.output, re.M)
    assert "commutes: ok" in res.output


def test_cli_gaudin(runner):
    res = runner.invoke(main, ["gaudin", "--q", "sl2", "--z", "1,2,5"])
    assert res.exit_code == 0
    assert "sum zero: ok" in res.output
    res2 = runner.invoke(main, ["gaudin", "--q", "sl2", "--z", "1,1"])
    assert res2.exit_code == 2


def test_cli_suite_list_and_run(runner):
    res = runner.invoke(main, ["suite", "list"])
    assert res.exit_code == 0
    assert "determinism" in res.output
    res2 = runner.invoke(main, ["suite", "run", "det-A"])
    assert res2.exit_code == 0
    payload = json.loads(res2.output)
    assert payload["ok"] is True
    res3 = runner.invoke(main, ["suite", "run", "det-A", "--format", "markdown"])
    assert res3.exit_code == 0
    assert "PASS" in res3.output


def test_cli_suite_run_failure_exit(runner):
    res = runner.invoke(main, [
        "suite", "run", "z-assembly", "--params",
        '{"cases": [["sl2", "t^2", "t^2+t", {"0": 99}, 3]]}',
    ])
    assert res.exit_code == 1


def test_cli_suite_bad_params(runner):
    res = runner.invoke(main, ["suite", "run", "det-A", "--params", "not json"])
    assert res.exit_code == 2
    res2 = runner.invoke(main, ["suite", "run", "det-A", "--params", "[1]"])
    assert res2.exit_code == 2


@pytest.mark.parametrize("name, params", [
    ("determinism", {"inner": "nope"}),
    ("jacobi", {"algebras": 3}),
    ("z-assembly", {"cases": [["sl2"]]}),
])
def test_cli_suite_malformed_params_exit_2(runner, name, params):
    res = runner.invoke(main, ["suite", "run", name, "--params", json.dumps(params)])
    assert res.exit_code == 2
    assert res.output.startswith(f"input error: suite {name!r}")


def test_suite_param_types_follow_the_defaults():
    with pytest.raises(InputError, match="must be a JSON number"):
        run_suite("pencil-closure", {"count": True})
    with pytest.raises(InputError, match="must be a JSON string"):
        run_suite("crt", {"algebra": ["sl2"]})
    # nested entries too: a list's entries, a record's at their places and
    # an object's values
    for name, params in [
        ("crt", {"moduli": ["t^2-1", 3]}),
        ("takiff-generators", {"cases": [["sl2", "2"]]}),
        ("takiff-generators", {"cases": [["sl2", 2, 3]]}),
        ("gaudin-commute", {"cases": [["sl2", [1, None]]]}),
        ("gaudin-commute", {"bridge_roots": [False, True]}),
        ("z-assembly", {"cases": [["sl2", "t^2", "t^2+t", [3], 3]]}),
        ("z-assembly", {"cases": [["sl2", "t^2", "t^2+t", {"0": "3"}, 3]]}),
    ]:
        with pytest.raises(InputError, match="shaped as its default"):
            run_suite(name, params)


@pytest.mark.parametrize("name, params", [
    ("pencil-closure", {"count": float("nan")}),
    ("pencil-closure", {"count": float("inf")}),
    ("quad-family", {"centralizer_ns": [2, float("-inf")]}),
    ("gaudin-commute", {"cases": [["sl2", [1, 2, float("nan")]]]}),
    ("z-assembly", {"cases": [["sl2", "t^2", "t^2+t", {"0": float("inf")}, 3]]}),
])
def test_suite_params_refuse_nan_and_infinity(runner, name, params):
    with pytest.raises(InputError, match="with no NaN or Infinity"):
        run_suite(name, params)
    res = runner.invoke(main, ["suite", "run", name, "--params", json.dumps(params)])
    assert res.exit_code == 2 and "with no NaN or Infinity" in res.output


def test_cli_nan_count_exits_2(runner):
    res = runner.invoke(main, ["suite", "run", "pencil-closure", "--params", '{"count": NaN}'])
    assert res.exit_code == 2


def test_a_report_of_no_checks_fails(runner):
    # a report that checked nothing shows nothing: it is not ok, exit 1
    assert not run_suite("sovp", {"cases": []}).ok
    res = runner.invoke(main, ["suite", "run", "sovp", "--params", '{"cases": []}'])
    assert res.exit_code == 1
    assert '"ok":false' in res.output and '"checks":[]' in res.output


def test_a_huge_forms_level_exits_3_before_allocating(runner):
    # the level 10^10 asks for a modulus t^(10^10 + 2): refused before its
    # coefficient list is made, where it raised MemoryError
    res = runner.invoke(main, ["suite", "run", "forms", "--params", '{"kvecs": [[10000000000, 1]]}'])
    assert res.exit_code == 3
    assert "t^10000000002 needs more than" in res.output


def test_a_bridge_root_of_zero_is_bad_input():
    with pytest.raises(InputError, match="bridge root is 0"):
        run_suite("gaudin-commute", {"bridge_roots": [0, 1]})


def test_body_errors_are_input_errors_only_on_overrides(monkeypatch):
    def body(params, seed):
        raise KeyError("missing")

    monkeypatch.setitem(suites._BODIES, "det-A", body)
    with pytest.raises(KeyError):
        run_suite("det-A")
    with pytest.raises(InputError, match="suite 'det-A'"):
        run_suite("det-A", {"j_min": 4})


def test_cli_budget_exit(runner, monkeypatch):
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "10")
    res = runner.invoke(main, [
        "zz", "verify", "--q", "sl3", "--p1", "t^2", "--p2", "t^2+t",
    ])
    assert res.exit_code == 3


def test_cli_verify_refuses_an_over_budget_pair_before_contracting(runner, monkeypatch):
    # sl5 t^2 / t^2+t: one pair under the difference bracket would take a
    # product of 3194 x 940 terms, past the default budget; it is refused
    # once the images are formed, before any pair is contracted
    def unreachable(*args):
        raise AssertionError("pairwise_commute contracted before the budget check")

    monkeypatch.delenv("GLAB_BUDGET_TERMS", raising=False)
    monkeypatch.setattr(psring, "_contract", unreachable)
    res = runner.invoke(main, ["zz", "verify", "--q", "sl5", "--p1", "t^2", "--p2", "t^2+t"])
    assert res.exit_code == 3
    assert "product of 3194 x 940 terms exceeds budget 2000000" in res.output


def test_cli_samples_above_the_budget_exit_3(runner, monkeypatch):
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "100")
    for cmd in ("build", "verify"):
        args = ["zz", cmd, "--q", "sl2", "--p1", "t^2", "--p2", "t^2+t", "--samples"]
        assert runner.invoke(main, args + ["100"]).exit_code == 0
        res = runner.invoke(main, args + ["101"])
        assert res.exit_code == 3
        assert "sample count 101 exceeds budget 100" in res.output


@pytest.mark.parametrize("name, params, why", [
    ("det-A", {"binom_max": 1000000}, "binom_max 1000000 implies"),
    ("det-A", {"j_max": 200}, "j_max 200 implies"),
    ("quad-family", {"range": 30}, "range 30 implies"),
    ("pencil-closure", {"count": 100000000}, "count 100000000 implies"),
    ("quad-family", {"centralizer_ns": [40]}, "centralizer_ns [40] implies"),
    ("quad-family", {"centralizer_ns": [2, 30]}, "centralizer_ns [2, 30] implies"),
    ("quad-family", {"x_moduli": ["t^3", "t^200"]}, "x_moduli ['t^3', 't^200'] implies"),
    # 1e300 * 1e300 is inf and inf // 2 is nan, which compares false
    ("quad-family", {"centralizer_ns": [40, 1e300]}, "centralizer_ns [40, 1e+300] implies"),
    ("takiff-generators", {"cases": [["sl2", 1000000]]}, "takiff generators of order 1000000"),
])
def test_cli_suite_params_past_the_budget_exit_3(runner, monkeypatch, name, params, why):
    # the work a suite's params imply is held against the term budget
    # before any of it is done
    monkeypatch.delenv("GLAB_BUDGET_TERMS", raising=False)
    start = time.perf_counter()
    res = runner.invoke(main, ["suite", "run", name, "--params", json.dumps(params)])
    assert time.perf_counter() - start < 2
    assert res.exit_code == 3
    assert why in res.output and "past budget 2000000" in res.output


@pytest.mark.parametrize("name, params", [
    ("det-A", {}),
    ("pencil-closure", {}),
    ("quad-family", {}),
    # the params the products benchmark runs
    ("quad-family", {"range": 5, "centralizer_ns": [2, 3, 4, 5, 6]}),
    ("gaudin-commute", {"cases": [["sl4", [1, 2, 5, 7]], ["sl5", [1, 2, 3]]]}),
    ("psi-tau-spans", {"bound_cases": [], "ladder_cases": [["t^4-1", 7], ["t^5+t+1", 9]]}),
] + [(name, {}) for name in SUITE_NAMES if name not in ("det-A", "pencil-closure", "quad-family")])
def test_suite_params_stay_well_inside_the_budget(monkeypatch, name, params):
    # the defaults, and the larger params that are benchmarked, still run
    # at a tenth of the default budget
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "200000")
    assert run_suite(name, params).ok


def test_over_budget_float_params_are_bad_input(runner):
    # a float past the range of floats overflows the work count: exit 2
    res = runner.invoke(main, ["suite", "run", "det-A", "--params", '{"j_max": 1e300}'])
    assert res.exit_code == 2
    assert "bad params: OverflowError" in res.output


def test_cli_build_refuses_polarizations_past_the_budget(runner, monkeypatch):
    # sl4's quartic invariant has 80 terms, so at n = 3 its polarizations
    # hold at most 80 * 3^4 = 6480 terms: refused before any is formed
    def unreachable(*args):
        raise AssertionError("build_Z polarized before the budget check")

    monkeypatch.setenv("GLAB_BUDGET_TERMS", "5000")
    monkeypatch.setattr(pencilz, "polarize", unreachable)
    start = time.perf_counter()
    res = runner.invoke(main, ["zz", "build", "--q", "sl4", "--p1", "t^3", "--p2", "t^3+t"])
    assert time.perf_counter() - start < 1
    assert res.exit_code == 3
    assert "may hold 6480 terms, past budget 5000" in res.output


def test_cli_jacobi_scan_and_takiff_exit_on_budget(runner, monkeypatch):
    monkeypatch.setenv("GLAB_BUDGET_TERMS", "1000")
    assert runner.invoke(main, ["jacobi", "--q", "sl2", "--p", "t^3"]).exit_code == 0
    # 32 variables: 4960 Jacobi triples
    res = runner.invoke(main, ["jacobi", "--q", "sl3", "--p", "t^4"])
    assert res.exit_code == 3
    res = runner.invoke(main, ["index", "--q", "sl3", "--p", "t^4", "--p2", "t^4+1"])
    assert res.exit_code == 3
    # dimension 60: 3600 bracket pairs
    res = runner.invoke(main, ["index", "--q", "takiff:sl2:20", "--p", "t"])
    assert res.exit_code == 3


def test_cli_malformed_algebra_names_exit_2(runner):
    for name in ("abelian:x", "abelian:", "takiff:sl2", "takiff:sl2:x"):
        res = runner.invoke(main, ["index", "--q", name, "--p", "t^2"])
        assert res.exit_code == 2, name
        assert res.output.startswith("input error:")


def test_cli_refuses_oversized_algebras_and_quotients_before_building(runner, monkeypatch):
    # a count longer than the budget, 1415^2 > 2000000 bracket pairs, and
    # 3 * 3000 variables of sl2 mod t^3000
    monkeypatch.delenv("GLAB_BUDGET_TERMS", raising=False)
    for args, why in (
            (["index", "--q", "abelian:99999999999", "--p", "t^2"],
             "a count of 11 digits exceeds budget 2000000"),
            (["index", "--q", "abelian:1415", "--p", "t^2"],
             "abelian:1415 on 1415 variables has more than 2000000 bracket pairs"),
            (["jacobi", "--q", "sl2", "--p", "t^3000"],
             "on 9000 variables has more than 2000000 bracket pairs")):
        start = time.perf_counter()
        res = runner.invoke(main, args)
        assert time.perf_counter() - start < 1
        assert res.exit_code == 3
        assert why in res.output


def test_cli_char_invariants_exit_on_budget(runner, monkeypatch):
    # n! * 2^n over the default budget: refused before the expansion, which
    # for sl8 would run for minutes with every product under the budget
    def unreachable(*args):
        raise AssertionError("the expansion started before the budget check")

    monkeypatch.delenv("GLAB_BUDGET_TERMS", raising=False)
    monkeypatch.setattr(invariantlab, "_berkowitz", unreachable)
    for q, n in (("sl8", 8), ("gl8", 8), ("sl9", 9)):
        start = time.perf_counter()
        res = runner.invoke(main, ["zz", "build", "--q", q, "--p1", "t^2", "--p2", "t^2+t"])
        assert time.perf_counter() - start < 1
        assert res.exit_code == 3
        assert f"{n}! * 2^{n} products exceed budget 2000000" in res.output


def test_cli_huge_degree_exits_on_budget(runner):
    res = runner.invoke(main, ["jacobi", "--p", "t^10000000000"])
    assert res.exit_code == 3


def test_cli_crt_root_search_exits_on_budget(runner):
    # trial division would run to sqrt(10^16) before saying "does not split"
    res = runner.invoke(main, ["crt", "--p", "t^2-10000000000000061"])
    assert res.exit_code == 3
    assert res.output.startswith("budget exceeded: root search by trial division")


def test_cli_same_seed_same_bytes(runner):
    args = ["suite", "run", "index-laws", "--seed", "4"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2

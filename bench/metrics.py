"""Names of the benchmark's workloads and metrics.

This module imports nothing from glab, so ``run.py`` can read it in a
checkout that has no program.  ``BENCHMARK.json`` mirrors these tables;
``selftest.py`` checks that the two agree.
"""

# name, why the workload is there
WORKLOADS = (
    ("suites", "the 13 suites through `glab suite run NAME --format json` with "
               "pinned report hashes: what users run, and the only path into glab.cli"),
    ("pencil", "the pinned large workload, build_Z, verify_Z_commutes and "
               "trdeg_of_Z for sl3 t^3 / t^3+t; poisson_bracket table walks dominate"),
    ("elimination", "exact elimination without psring: index_report, stabilizer "
                    "nullspace, difference-bracket indices and Bareiss det"),
    ("products", "suites at larger params that bracket polynomials under the lazy "
                 "current bracket and direct-power tables, so table walks stay short"),
)

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("norm_wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_ratio", "ratio", "higher", 0.01),
)

SUITE_NAMES = (
    "jacobi", "pencil-closure", "index-laws", "crt", "takiff-generators",
    "z-assembly", "gaudin-commute", "quad-family", "psi-tau-spans", "sovp",
    "det-A", "forms", "determinism",
)

LAYERS = ("exactla", "liecore", "psring", "invariantlab", "pencilz", "suites")

# name, unit, better, and the end-to-end metric and workloads it should move
LAYER_METRICS = (
    ("exactla.self_s", "s", "lower", "norm_wall_s: elimination, pencil"),
    ("exactla.rank.calls", "count", "lower", "norm_wall_s: elimination"),
    ("exactla.rank.s", "s", "lower", "norm_wall_s: elimination"),
    ("exactla.rank.max_cells", "cells", "lower", "norm_wall_s: elimination"),
    ("exactla.det.calls", "count", "lower", "norm_wall_s: elimination"),
    ("exactla.det.s", "s", "lower", "norm_wall_s: elimination"),
    ("exactla.nullspace.calls", "count", "lower", "norm_wall_s: elimination, pencil"),
    ("exactla.nullspace.s", "s", "lower", "norm_wall_s: elimination, pencil"),
    ("exactla.nullspace.max_cells", "cells", "lower", "norm_wall_s: elimination, pencil"),
    ("exactla.rref.calls", "count", "lower", "norm_wall_s: elimination, pencil"),
    ("exactla.rref.s", "s", "lower", "norm_wall_s: elimination, pencil"),
    ("exactla.rowspace_add.calls", "count", "lower", "norm_wall_s: pencil"),
    ("exactla.rowspace_add.s", "s", "lower", "norm_wall_s: pencil"),
    ("exactla.rowspace_add.accept_ratio", "ratio", "higher", "norm_wall_s: pencil"),
    ("liecore.self_s", "s", "lower", "norm_wall_s: elimination"),
    ("liecore.builtin_algebra.s", "s", "lower", "setup_s: elimination"),
    ("liecore.make_quotient.calls", "count", "lower", "norm_wall_s: elimination"),
    ("liecore.make_quotient.s", "s", "lower", "norm_wall_s: elimination"),
    ("liecore.structure_matrix_at.calls", "count", "lower", "norm_wall_s: elimination"),
    ("liecore.structure_matrix_at.s", "s", "lower", "norm_wall_s: elimination"),
    ("liecore.index_report.calls", "count", "lower", "norm_wall_s: elimination"),
    ("liecore.index_report.s", "s", "lower", "norm_wall_s: elimination"),
    ("liecore.sampled_max_rank.calls", "count", "lower", "norm_wall_s: elimination"),
    ("liecore.sampled_max_rank.evals", "count", "lower", "norm_wall_s: elimination"),
    ("liecore.sampled_max_rank.rounds", "count", "lower", "norm_wall_s: elimination"),
    ("liecore.check_table_jacobi.calls", "count", "lower", "norm_wall_s: suites, elimination"),
    ("liecore.check_table_jacobi.s", "s", "lower", "norm_wall_s: suites, elimination"),
    ("liecore.pencil_combination.s", "s", "lower", "norm_wall_s: pencil"),
    ("liecore.rational_roots.calls", "count", "lower", "norm_wall_s: pencil"),
    ("liecore.rational_roots.s", "s", "lower", "norm_wall_s: pencil"),
    ("liecore.rational_roots.split_ratio", "ratio", "lower", "norm_wall_s: pencil"),
    ("psring.self_s", "s", "lower", "norm_wall_s: pencil, products"),
    ("psring.poisson_bracket.calls", "count", "lower", "norm_wall_s: pencil, suites"),
    ("psring.poisson_bracket.s", "s", "lower", "norm_wall_s: pencil, suites"),
    ("psring.poisson_bracket.self_s", "s", "lower", "norm_wall_s: pencil, suites"),
    ("psring.poisson_bracket.pairs_walked", "count", "lower", "norm_wall_s: pencil, suites"),
    ("psring.poisson_bracket.pair_hit_ratio", "ratio", "higher", "norm_wall_s: pencil, suites"),
    ("psring.mul.calls", "count", "lower", "norm_wall_s: products, pencil"),
    ("psring.mul.s", "s", "lower", "norm_wall_s: products, pencil"),
    ("psring.mul.term_pairs", "count", "lower", "norm_wall_s: products, pencil"),
    ("psring.mul.max_term_pairs", "count", "lower", "peak_rss_mb: products, pencil"),
    ("psring.mul.out_ratio", "ratio", "higher", "norm_wall_s: products, pencil"),
    ("psring.diff.calls", "count", "lower", "norm_wall_s: pencil"),
    ("psring.diff.s", "s", "lower", "norm_wall_s: pencil"),
    ("psring.jacobian_rank_at.calls", "count", "lower", "norm_wall_s: pencil"),
    ("psring.jacobian_rank_at.s", "s", "lower", "norm_wall_s: pencil"),
    ("psring.psi_p.s", "s", "lower", "norm_wall_s: products"),
    ("psring.substitute_vars.s", "s", "lower", "norm_wall_s: products"),
    ("psring.budget_errors", "count", "lower", "ok_ratio: all"),
    ("invariantlab.self_s", "s", "lower", "norm_wall_s: pencil, products"),
    ("invariantlab.basic_invariants.calls", "count", "lower", "norm_wall_s: pencil"),
    ("invariantlab.basic_invariants.s", "s", "lower", "norm_wall_s: pencil"),
    ("invariantlab.polarize.calls", "count", "lower", "norm_wall_s: pencil"),
    ("invariantlab.polarize.s", "s", "lower", "norm_wall_s: pencil"),
    ("invariantlab.crt_generators.calls", "count", "lower", "norm_wall_s: pencil"),
    ("invariantlab.crt_generators.s", "s", "lower", "norm_wall_s: pencil"),
    ("invariantlab.quad_H.calls", "count", "lower", "norm_wall_s: products"),
    ("invariantlab.quad_H.s", "s", "lower", "norm_wall_s: products"),
    ("invariantlab.gaudin_hamiltonians.calls", "count", "lower", "norm_wall_s: products"),
    ("invariantlab.gaudin_hamiltonians.s", "s", "lower", "norm_wall_s: products"),
    ("invariantlab.centralizer_in_span.calls", "count", "lower", "norm_wall_s: products"),
    ("invariantlab.centralizer_in_span.s", "s", "lower", "norm_wall_s: products"),
    ("pencilz.self_s", "s", "lower", "norm_wall_s: pencil"),
    ("pencilz.build_Z.s", "s", "lower", "norm_wall_s: pencil"),
    ("pencilz.build_Z.self_s", "s", "lower", "norm_wall_s: pencil"),
    ("pencilz.verify_Z_commutes.s", "s", "lower", "norm_wall_s: pencil"),
    ("pencilz.trdeg_estimate.s", "s", "lower", "norm_wall_s: pencil"),
    ("pencilz.check_sovp.s", "s", "lower", "norm_wall_s: suites"),
    ("pencilz.check_ft_gzu.s", "s", "lower", "norm_wall_s: suites"),
) + tuple(
    (f"suites.{name}.s", "s", "lower", "norm_wall_s: suites")
    for name in SUITE_NAMES
) + (
    ("suites.self_s", "s", "lower", "norm_wall_s: suites"),
    ("cli.overhead_s", "s", "lower", "norm_wall_s: suites"),
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of tracing"),
    ("host.ref_s", "s", "lower", "none: host speed (reference.py), a diagnostic"),
)


"""The layers the traced run measures and what each figure should move.

A layer is one godement module.  Each is measured from outside, by
wrapping the public functions listed here (see spans.py).  EXPECTED names,
for every layer figure, the end-to-end metric and workload it is
expected to move, so a later change can be checked against it.
"""

from __future__ import annotations


def _convolve_flops(args, result) -> int:
    a = args[0]
    # |G|^2 products of n x n complex matrices, 8 real flops per complex multiply-add
    return 8 * a.group.order ** 2 * a.n ** 3


def _iterations(args, result) -> int:
    return result.iterations


def _subcommand(args) -> str:
    argv = args[0] if args else None
    return f"cli.main.{argv[0]}" if argv else "cli.main"


# (module, function) -> (label, extra) as Tracer.wrap takes them
TARGETS = {
    ("groups", "parse_group_spec"): (None, None),
    ("matfun", "convolve"): (None, _convolve_flops),
    ("matfun", "l2_norm"): (None, None),
    ("matfun", "make_pd"): (None, None),
    ("matfun", "matfun_to_json"): (None, None),
    ("matfun", "matfun_from_json"): (None, None),
    ("operators", "conv_matrix"): (None, None),
    ("operators", "is_positive_definite"): (None, None),
    ("operators", "gram_pd_check"): (None, None),
    ("operators", "decompose"): (None, None),
    ("operators", "extract_kernel"): (None, None),
    ("operators", "spectral_truncate"): (None, None),
    ("roots", "sqrt_iterative"): (None, _iterations),
    ("roots", "sqrt_spectral"): (None, None),
    ("theorems", "check_theorem_a"): (None, None),
    ("theorems", "check_theorem_c"): (None, None),
    ("theorems", "run_suite"): (None, None),
    ("reps", "tensor_product"): (None, None),
    ("reps", "check_tensor_nonneg"): (None, None),
    ("cli", "main"): (_subcommand, None),
}

# Span names every workload reaches.  Only these go into the result line:
# a layer a workload never calls would report a constant zero time there.
COMMON = (
    "groups.parse_group_spec",
    "matfun.convolve",
    "matfun.l2_norm",
    "matfun.matfun_to_json",
    "operators.conv_matrix",
    "operators.is_positive_definite",
    "operators.decompose",
    "operators.extract_kernel",
    "operators.spectral_truncate",
    "roots.sqrt_iterative",
    "roots.sqrt_spectral",
)

EXPECTED = {
    "groups.parse_group_spec": "setup_s, and op_p50_ms on cli_spectral: every call that reads a file "
                               "rebuilds its table (S5 is a Python double loop, ~11 ms)",
    "matfun.convolve": "wall_s on suite_default and suite_wide (run by hand)",
    "matfun.convolve.gflop_computed": "computed as 8|G|^2 n^3 per call; falls only if arithmetic is cut",
    "matfun.l2_norm": "wall_s on suite_default",
    "matfun.make_pd": "wall_s on suite_default",
    "matfun.matfun_to_json": "op_p50_ms on cli_spectral, wall_s on suite_default",
    "matfun.matfun_from_json": "op_p50_ms on cli_spectral, wall_s on suite_default",
    "operators.conv_matrix": "op_p50_ms and wall_s on cli_spectral",
    "operators.is_positive_definite": "op_p50_ms and wall_s on cli_spectral; barely suite_default",
    "operators.gram_pd_check": "op_p50_ms and wall_s on cli_spectral; no workload path calls it today",
    "operators.decompose": "op_p50_ms and wall_s on cli_spectral; barely suite_default",
    "operators.extract_kernel": "op_p50_ms and wall_s on cli_spectral; barely suite_default",
    "operators.spectral_truncate": "op_p50_ms and wall_s on cli_spectral; barely suite_default",
    "roots.sqrt_iterative": "wall_s on suite_default",
    "roots.sqrt_iterative.iterations_total": "op_tail_ms on suite_default (exact count)",
    "roots.sqrt_iterative.iterations_max": "op_tail_ms on suite_default (exact count)",
    "roots.sqrt_iterative.us_per_step": "wall_s on suite_default",
    "roots.sqrt_spectral": "wall_s on cli_spectral",
    "theorems.check_theorem_a": "op_tail_ms on suite_default (monotone check is quadratic in iterations)",
    "theorems.check_theorem_c": "wall_s on suite_wide (run by hand), then suite_default",
    "theorems.run_suite": "wall_s on suite_default",
    "theorems.inputs_json_useful_ratio": "wall_s on suite_default (every trial serializes its inputs)",
    "reps.tensor_product": "peak_rss_mb and wall_s on cli_spectral",
    "reps.check_tensor_nonneg": "peak_rss_mb and wall_s on cli_spectral",
    "cli.main": "op_p50_ms on cli_spectral, per subcommand",
    "trace": "the tracer's own cost: traced against untraced passes on the same inputs",
}


def expected(metric: str) -> str:
    """EXPECTED entry of the longest dotted prefix of a metric name."""
    parts = metric.split(".")
    for end in range(len(parts), 0, -1):
        found = EXPECTED.get(".".join(parts[:end]))
        if found:
            return found
    return ""

"""A tiny run of every workload emits every metric and passes its gate;
a wrong verdict fails it."""

import argparse
import json
import types
from pathlib import Path

import pytest

from perfbench import layers, run
from perfbench.workloads import WORKLOADS, PassResult, derive, make_workload

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]] + ["fail_frac"]
NAMED_LAYERS = [f"{m}.{f}" for m, f in layers.TARGETS if m != "cli"]
EXTRAS = ["matfun.convolve.gflop_computed", "roots.sqrt_iterative.iterations_total",
          "roots.sqrt_iterative.iterations_max", "roots.sqrt_iterative.us_per_step",
          "theorems.inputs_json_useful_ratio", "trace.wall_s", "trace.untraced_wall_s",
          "trace.overhead_frac"]


@pytest.fixture(scope="module")
def gd():
    return run.load_program()


def test_benchmark_json_lists_the_common_layers():
    expected = [f"{name}.{kind}" for name in layers.COMMON for kind in ("calls", "self_s", "us_per_call")]
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names[:len(expected)] == expected
    assert set(names) <= set(expected) | set(EXTRAS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(gd, tmp_path, capsys, workload, trace):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
    record = run.run(gd, args, tmp_path, tiny=True)
    assert record["correct"], record["problems"]
    assert record["attempted"] > 0 and record["failed"] == 0
    assert set(E2E) <= set(record["end_to_end"])
    assert record["end_to_end"]["fail_frac"][0] == 0
    if trace:
        pl = record["per_layer"]
        for name in NAMED_LAYERS:
            assert {f"{name}.calls", f"{name}.self_s", f"{name}.us_per_call"} <= set(pl)
        assert set(EXTRAS) <= set(pl)
        if workload == "cli_spectral":
            assert {"cli.main.certify.self_s", "cli.main.sqrt.self_s", "cli.main.truncate.self_s",
                    "cli.main.rep-demo.self_s"} <= set(pl)
        notes = record["trace_notes"]
        assert 0 < notes["self_s_sum"] <= notes["traced_wall_sum"]
        for name in layers.COMMON:
            assert pl[f"{name}.calls"][0] > 0, f"{workload} never reaches {name}"
    assert run.report(SPEC, args, record) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]


def test_gate_counts_a_wrong_cli_verdict(gd, tmp_path, monkeypatch):
    workload = make_workload(gd, "cli_spectral", 3, tiny=True)
    workload.setup(tmp_path)
    real_main = gd.cli.main

    def main(argv):
        code = real_main(argv)
        if argv[0] == "certify":  # the program claims a different verdict
            Path(argv[argv.index("--out") + 1]).write_text('{"verdict": "not_positive_definite"}')
        return 2 if argv[0] == "truncate" else code

    monkeypatch.setattr(gd.cli, "main", main)
    result = workload.run_pass(0)
    assert result.failed == 2 and result.attempted == len(workload.op_sets[0])
    assert any("verdict not_positive_definite" in p for p in result.problems)
    assert any("exit 2" in p for p in result.problems)


def test_gate_counts_a_failed_trial(gd, monkeypatch):
    workload = make_workload(gd, "suite_wide", 3, tiny=True)
    real = dict(gd.theorems._TRIALS)

    def broken_b(group, n, seed, cfg):
        report, inputs = real["B"](group, n, seed, cfg)
        report.passed = False
        return report, inputs

    monkeypatch.setitem(gd.theorems._TRIALS, "B", broken_b)
    result = workload.run_pass(0)
    assert result.failed == 2 and result.failing_trials == 2  # one B trial per group
    assert any("suite verdict passed=false" in p for p in result.problems)
    assert gd.theorems._TRIALS["B"] is broken_b  # the timing hooks were taken out again


@pytest.mark.xfail(strict=True, reason="known defect: Theorem A's method_agreement tolerance grows "
                   "like |phi| while the root error grows like sqrt(|phi|), so valid inputs can fail it")
def test_suite_default_seed_206_replays_a_false_theorem_a_failure(gd):
    # the trial the benchmark reported as failed in suite_default, seed 206, pass 2
    cfg = gd.theorems.SuiteConfig(seed=derive(206, "suite_default", 2))
    group = gd.groups.parse_group_spec("s3")
    report, _ = gd.theorems._trial_a(group, 2, gd.theorems.derive_seed(cfg.seed, "A", group.name, 2, 21), cfg)
    assert report.passed, report.details


@pytest.mark.parametrize("elasticity", [1.0, 0.5])
def test_ref_metrics_divide_by_the_median_speed_factor(elasticity):
    # the same four ops on a machine at reference speed, then twice at half of it
    fast = PassResult(1.0, [0.25] * 4, 4, 0, [], probe_times=[1e-3, 1e-3, 1e-3])
    slow = [PassResult(2.0, [0.5] * 4, 4, 0, [], probe_times=[2e-3, 2e-3, 2e-3]) for _ in range(2)]
    workload = types.SimpleNamespace(tail_pct=90.0, probe_elasticity=elasticity)
    metrics, notes = run.end_to_end([fast, *slow], 0.5, workload)
    factor = 2.0 ** elasticity
    assert metrics["speed_factor"][0] == pytest.approx(factor)
    assert metrics["wall_s"][0] == pytest.approx(2.0)
    assert metrics["ref_wall_s"][0] == pytest.approx(2.0 / factor)
    assert metrics["ref_ops_per_s"][0] == pytest.approx(4 / 2.0 * factor)
    assert metrics["ref_op_p50_ms"][0] == pytest.approx(500 / factor)
    assert metrics["op_gmean_ms"][0] == pytest.approx(1000 * (0.25 * 0.5 ** 2) ** (1 / 3))
    assert notes["probes"] == 9

import json

import numpy as np
import pytest

import godement.theorems

from godement import (
    MatFun,
    SpectrumSplitError,
    SuiteConfig,
    TheoremReport,
    add,
    build_orthogonal_pd_pair,
    check_inner_trace,
    check_theorem_a,
    check_theorem_b,
    check_theorem_c,
    conv_matrix,
    convolve,
    delta_identity,
    inner,
    l2_norm,
    matrix_coeff_fun,
    regular_rep,
    run_suite,
    scale,
    sqrt_spectral,
    subtract,
)
from godement.theorems import _merge, classify_magnitude
from conftest import phi_21, random_pd


class TestTheoremA:
    def test_delta(self, z6):
        report = check_theorem_a(delta_identity(z6, 2))
        assert report.passed
        assert report.theorem == "A"
        # worst_residual is a residual-to-tolerance ratio; well under 1 here
        assert report.worst_residual <= 1e-2

    def test_z2_worked_example(self, z2):
        report = check_theorem_a(phi_21(z2))
        assert report.passed

    def test_random_pass(self, d4):
        for seed in range(5):
            report = check_theorem_a(random_pd(d4, 2, seed=seed))
            assert report.passed, report.details

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nan_residual_fails_with_reason(self, s3):
        phi = scale(1e200, random_pd(s3, 2, seed=3))
        report = check_theorem_a(phi)
        assert not report.passed
        assert "residual nan" in report.details["failure"]
        assert report.counterexample is not None

    def test_nan_check_fails_and_is_the_worst(self, d4, monkeypatch):
        # a NaN in any check, not only the first, is the worst and fails the trial
        monkeypatch.setattr(godement.theorems, "hermitian_symmetry_residual", lambda psi: float("nan"))
        report = check_theorem_a(random_pd(d4, 2, seed=0))
        assert not report.passed
        assert report.details["failure"] == "star_gap"
        assert np.isnan(report.worst_residual)

    def test_non_pd_input_fails_with_counterexample(self, z2):
        phi = MatFun(z2, 1, np.array([[[1.0]], [[2.0]]], dtype=complex))
        report = check_theorem_a(phi)
        assert not report.passed
        assert report.counterexample is not None
        assert "phi" in report.counterexample
        assert "not positive definite" in report.details["failure"]


class TestTheoremB:
    def test_self_pairing_is_squared_norm(self, d3):
        phi = random_pd(d3, 2, seed=1)
        report = check_theorem_b(phi, phi)
        assert report.passed
        assert report.details["inner_real"] == pytest.approx(l2_norm(phi) ** 2)
        assert report.details["inner_real"] > 0

    def test_random_pairs(self, sample_groups):
        for grp in sample_groups:
            for seed in range(10):
                phi = random_pd(grp, 2, seed=2 * seed)
                psi = random_pd(grp, 2, seed=2 * seed + 1)
                assert check_theorem_b(phi, psi).passed

    def test_matrix_coefficient_pair(self, s3):
        # pairs built from representation coefficients are PD, so they qualify
        reg = regular_rep(s3)
        rg = np.random.default_rng(3)
        u1 = rg.standard_normal((2, 6)) + 1j * rg.standard_normal((2, 6))
        u2 = rg.standard_normal((2, 6)) + 1j * rg.standard_normal((2, 6))
        report = check_theorem_b(matrix_coeff_fun(reg, u1), matrix_coeff_fun(reg, u2))
        assert report.passed
        assert report.details["inner_real"] >= -1e-10


class TestOrthogonalPair:
    def test_z2_worked_example(self, z2):
        low, high = build_orthogonal_pd_pair(phi_21(z2), split_t=2.0)
        assert np.allclose(low.values.ravel(), [0.5, -0.5], atol=1e-12)
        assert np.allclose(high.values.ravel(), [1.5, 1.5], atol=1e-12)
        assert abs(inner(low, high)) <= 1e-12
        assert l2_norm(convolve(low, high)) <= 1e-12

    def test_random_pairs_orthogonal(self, d3):
        for seed in range(10):
            theta = random_pd(d3, 2, seed=seed)
            ev = np.linalg.eigvalsh(conv_matrix(theta).data)
            low, high = build_orthogonal_pd_pair(theta, float((ev[0] + ev[-1]) / 2))
            scale_ = l2_norm(low) * l2_norm(high)
            assert abs(inner(low, high)) <= 1e-12 * max(scale_, 1.0)
            assert l2_norm(subtract(add(low, high), theta)) <= 1e-12 * l2_norm(theta)

    def test_pieces_are_pd(self, q8):
        theta = random_pd(q8, 2, seed=4)
        ev = np.linalg.eigvalsh(conv_matrix(theta).data)
        low, high = build_orthogonal_pd_pair(theta, float(np.median(ev)))
        from godement import is_positive_definite

        assert is_positive_definite(low).ok
        assert is_positive_definite(high).ok

    def test_split_outside_spectrum_rejected(self, z6):
        theta = random_pd(z6, 1, seed=5)
        ev = np.linalg.eigvalsh(conv_matrix(theta).data)
        with pytest.raises(SpectrumSplitError):
            build_orthogonal_pd_pair(theta, float(ev[-1]) + 1.0)
        with pytest.raises(SpectrumSplitError):
            build_orthogonal_pd_pair(theta, float(ev[0]) - 1.0)

    def test_conv_operator_kills_root_columns(self, d3):
        # the low piece annihilates every column of the high piece's root
        theta = random_pd(d3, 2, seed=6)
        ev = np.linalg.eigvalsh(conv_matrix(theta).data)
        low, high = build_orthogonal_pd_pair(theta, float((ev[0] + ev[-1]) / 2))
        root = sqrt_spectral(high).psi
        low_op = conv_matrix(low).data
        cols = root.values.reshape(d3.order * 2, 2)
        # the root's rounding-level kernel noise is sqrt(eps), not eps
        assert np.linalg.norm(low_op @ cols) <= 1e-6 * np.linalg.norm(low_op, 2) * np.linalg.norm(cols)


class TestTheoremC:
    def test_orthogonal_pair_both_zero(self, d4):
        theta = random_pd(d4, 2, seed=7)
        ev = np.linalg.eigvalsh(conv_matrix(theta).data)
        low, high = build_orthogonal_pd_pair(theta, float((ev[0] + ev[-1]) / 2))
        report = check_theorem_c(low, high)
        assert report.passed
        assert report.details["inner_class"] == "zero"
        assert report.details["conv_class"] == "zero"

    def test_random_pair_both_nonzero(self, d4):
        phi = random_pd(d4, 2, seed=8)
        psi = random_pd(d4, 2, seed=9)
        report = check_theorem_c(phi, psi)
        assert report.passed
        assert report.details["inner_class"] == "nonzero"
        assert report.details["conv_class"] == "nonzero"
        assert report.details["inner_scaled"] > 1e-6
        assert report.details["conv_scaled"] > 1e-6

    def test_zero_function_pairing(self, z6):
        phi = random_pd(z6, 2, seed=10)
        zero = scale(0.0, phi)
        report = check_theorem_c(phi, zero)
        assert report.passed

    def test_classifier_band(self):
        assert classify_magnitude(5e-11, 1e-10) == "zero"
        assert classify_magnitude(5e-9, 1e-10) == "indeterminate"
        assert classify_magnitude(2e-8, 1e-10) == "nonzero"

    def test_contradiction_detected(self, z2):
        # forged report inputs: inner zero but convolution large cannot occur
        # for genuine pairs, so drive the classifier directly
        assert classify_magnitude(0.0, 1e-10) != classify_magnitude(1.0, 1e-10)

    def test_nan_inner_product_fails_with_reason(self, d4, monkeypatch):
        # classify_magnitude(nan) is "indeterminate", which alone would pass the trial
        monkeypatch.setattr(godement.theorems, "inner", lambda a, b: complex(float("nan"), 0.0))
        report = check_theorem_c(random_pd(d4, 2, seed=14), random_pd(d4, 2, seed=15))
        assert not report.passed
        assert np.isnan(report.worst_residual)
        assert "non-finite" in report.details["failure"]
        assert report.details["indeterminate_trials"] == 0
        assert report.counterexample is not None

    def test_nan_convolution_magnitude_fails(self, d4, monkeypatch):
        real_convolve, real_norm = godement.theorems.convolve, godement.theorems.l2_norm
        products = []

        def convolve_spy(a, b):
            products.append(real_convolve(a, b))
            return products[-1]

        monkeypatch.setattr(godement.theorems, "convolve", convolve_spy)
        monkeypatch.setattr(godement.theorems, "l2_norm",
                            lambda a: float("nan") if any(a is p for p in products) else real_norm(a))
        report = check_theorem_c(random_pd(d4, 2, seed=16), random_pd(d4, 2, seed=17))
        assert not report.passed and np.isnan(report.worst_residual)
        assert "convolution nan" in report.details["failure"]

    def test_nan_fails_the_trial_and_the_suite(self, s3, monkeypatch):
        monkeypatch.setattr(godement.theorems, "inner", lambda a, b: complex(float("nan"), 0.0))
        report, _ = godement.theorems._trial_c(s3, 2, 18, SuiteConfig())
        assert not report.passed and np.isnan(report.worst_residual)
        result = run_suite(SuiteConfig(groups=("s3",), dims=(1,), trials=1))
        assert not [r for r in result["reports"] if r["theorem"] == "C"][0]["passed"]

    def test_perturbation_scales_linearly(self, d3):
        theta = random_pd(d3, 2, seed=11)
        ev = np.linalg.eigvalsh(conv_matrix(theta).data)
        low, high = build_orthogonal_pd_pair(theta, float((ev[0] + ev[-1]) / 2))
        noise1 = random_pd(d3, 2, seed=12)
        noise2 = random_pd(d3, 2, seed=13)
        n, order = 2, d3.order
        bound_const = n * np.sqrt(order) * (
            l2_norm(noise1) * l2_norm(high)
            + l2_norm(low) * l2_norm(noise2)
            + l2_norm(noise1) * l2_norm(noise2)
        )
        for eps in (1e-2, 1e-4, 1e-6):
            conv = convolve(add(low, scale(eps, noise1)), add(high, scale(eps, noise2)))
            assert l2_norm(conv) <= eps * bound_const + 1e-10


class TestInnerTrace:
    def test_random_pd_pairs(self, sample_groups):
        for grp in sample_groups:
            phi = random_pd(grp, 2, seed=14)
            psi = random_pd(grp, 2, seed=15)
            report = check_inner_trace(phi, psi)
            assert report.passed
            assert report.theorem == "lemma_2_1"

    def test_worked_values(self, z2):
        phi = phi_21(z2)
        report = check_inner_trace(phi, phi)
        assert report.passed
        assert report.details["inner"][0] == pytest.approx(5.0)
        assert report.details["trace_at_identity"][0] == pytest.approx(5.0)


class TestRunSuite:
    def test_small_suite_passes(self):
        config = SuiteConfig(groups=("cyclic:6", "dihedral:3"), dims=(1, 2), trials=4, seed=7, name="small")
        report = run_suite(config)
        assert report["passed"]
        assert report["suite"] == "small"
        assert report["seed"] == 7
        assert len(report["reports"]) == 2 * 2 * 4  # groups x dims x theorems
        for r in report["reports"]:
            assert r["trials"] == 4
            assert r["passed"]
            assert r["theorem"] in {"A", "B", "C", "lemma_2_1"}

    def test_empty_group_list(self):
        report = run_suite(SuiteConfig(groups=(), dims=(1,), trials=1, name="empty"))
        assert report["passed"]
        assert report["reports"] == []

    def test_deterministic(self):
        config = SuiteConfig(groups=("cyclic:6",), dims=(1,), trials=3, seed=11, name="det")
        first = json.dumps(run_suite(config), sort_keys=True)
        second = json.dumps(run_suite(config), sort_keys=True)
        assert first == second

    def test_threads_do_not_change_results(self, monkeypatch):
        config = SuiteConfig(groups=("dihedral:3",), dims=(1,), trials=4, seed=13, name="thr")
        monkeypatch.delenv("GODEMENT_SUITE_THREADS", raising=False)
        sequential = json.dumps(run_suite(config), sort_keys=True)
        monkeypatch.setenv("GODEMENT_SUITE_THREADS", "3")
        threaded = json.dumps(run_suite(config), sort_keys=True)
        assert sequential == threaded

    def test_merge_keeps_nan(self):
        aggregate = TheoremReport("A", 0, "cyclic:2", 1, 0.0, True)
        for worst in (0.5, float("nan"), 0.25):
            _merge(aggregate, TheoremReport("A", 1, "cyclic:2", 1, worst, True), None)
        assert np.isnan(aggregate.worst_residual)
        assert aggregate.trials == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(trials=0))
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(tol=0.0))

    def test_trial_rows_opt_in(self):
        config = SuiteConfig(groups=("cyclic:2",), dims=(1,), trials=3, seed=5, name="rows")
        lean = run_suite(config)
        assert "trial_rows" not in lean
        detailed = run_suite(config, collect_trials=True)
        assert len(detailed["trial_rows"]) == 4 * 3
        assert all(row["passed"] for row in detailed["trial_rows"])

import dataclasses
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import godement.fourier
import godement.operators
import godement.roots
import godement.theorems


def nan_star_gap(psi):
    """is_positive_definite with a NaN gap: Theorem A reads psi's star gap from it."""
    return dataclasses.replace(is_positive_definite(psi), hermitian_residual=float("nan"))

from godement import (
    MatFun,
    SpectralDecomposition,
    SpectrumSplitError,
    SuiteConfig,
    TheoremReport,
    add,
    build_orthogonal_pd_pair,
    check_inner_trace,
    check_tensor_nonneg,
    check_theorem_a,
    check_theorem_b,
    check_theorem_c,
    conv_matrix,
    convolve,
    decompose,
    delta_identity,
    gram_pd_check,
    inner,
    is_positive_definite,
    l2_norm,
    make_pd,
    matfun_from_json,
    matfun_to_json,
    matrix_coeff_fun,
    parse_group_spec,
    random_matfun,
    regular_rep,
    run_suite,
    scale,
    spectral_truncate,
    sqrt_iterative,
    sqrt_spectral,
    subtract,
    zero_matfun,
)
from godement.cli import main
from godement.theorems import _classify_magnitude, _in_range, _merge, derive_seed
from conftest import ARRAY_LEVEL_SPECS, phi_21, random_pd


class TestTheoremA:
    def test_delta(self, z6):
        phi = delta_identity(z6, 2)
        report = check_theorem_a(phi)
        assert report.passed
        assert report.theorem == "A"
        # delta is its own root: the iteration starts on it, and both roots are exact to rounding
        assert report.details["iterations"] == 0 and report.details["iterative_residual"] == 0.0
        assert report.details["spectral_residual"] <= 1e-14 * l2_norm(phi)
        assert report.details["agreement"] <= 1e-14 * l2_norm(phi)
        # worst_residual is a residual-to-tolerance ratio; the agreement bound
        # comes from the same rounding as the gap, so it reads about 0.5, not 0
        assert report.worst_residual < 1.0

    def test_zero_function(self, z6):
        # s = 0: both roots are exactly 0 and so is the agreement bound
        report = check_theorem_a(zero_matfun(z6, 2))
        assert report.passed, report.details
        assert report.worst_residual == 0.0 and report.details["agreement"] == 0.0

    @staticmethod
    def near_singular(s3, delta=1e-8, n=2, seed=11):
        """A valid PD input with lambda_min / ||H|| = 3e-10 at the defaults: the
        top half of the spectrum of a random theta plus delta times the bottom half."""
        theta = random_pd(s3, n, seed=seed)
        ev = godement.fourier.fourier_spectrum(theta, vectors=False).eigenvalues
        low, high = build_orthogonal_pd_pair(theta, (ev[0] + ev[-1]) / 2)
        return add(high, scale(delta, low))

    def test_near_singular_input_is_certified_pd(self, s3):
        cert = godement.operators.is_positive_definite(self.near_singular(s3))
        assert cert.ok and 0.0 < cert.min_eigenvalue < 1e-9 * cert.operator_norm

    @pytest.mark.parametrize("delta", [1e-2, 1e-5, 1e-8, 1e-10, 0.0])
    def test_near_singular_input_passes(self, s3, delta):
        # the roots differ by 5.4e-5 ||phi|| at delta = 1e-8, which a bound
        # proportional to ||phi|| failed; the derived bound scales with it
        report = check_theorem_a(self.near_singular(s3, delta))
        assert report.passed, report.details
        assert report.worst_residual < 1.0

    def test_unconverged_eigenvalue_just_above_the_floor_passes(self, s3):
        # the iteration stops after 5 steps with an eigenvalue at 1.3e-9 s barely
        # moved: there the gap is sqrt(lambda) and the bound lambda / sqrt(1e-9 s),
        # so the ratio reads sqrt(1e-9 s / lambda) = 0.88, below 1 for any lambda
        # above the floor, where the spectral root does not cut
        report = check_theorem_a(self.near_singular(s3, 1e-8, n=1, seed=100))
        assert report.passed, report.details
        assert report.details["iterations"] == 5 and 0.8 < report.worst_residual < 1.0

    @pytest.mark.parametrize("spec,n", [("s3", 1), ("z6", 2), ("q8", 2), ("d4", 1)])
    def test_agreement_ratio_stays_below_one_near_the_pd_floor(self, spec, n):
        # high + delta low down to the floor: the ratio of the roots' gap to the
        # bound their residuals give reads about 0.5 from delta = 1e-2 to 1e-6
        # and peaks at 0.877 on s3 n = 1, delta = 1e-8, after 5 steps
        ratios = []
        for delta in [10.0**-k for k in range(2, 11)] + [0.0]:
            phi = self.near_singular(parse_group_spec(spec), delta, n=n, seed=100)
            report = check_theorem_a(phi)
            assert report.passed, (delta, report.details)
            spectrum = godement.fourier.fourier_spectrum(phi, vectors=False)
            floor = max(float(spectrum.eigenvalues[0]), godement.operators.DEFAULT_PD_TOL * spectrum.operator_norm)
            d = report.details
            bound = (d["spectral_residual"] + d["iterative_residual"]) * l2_norm(phi) / np.sqrt(floor)
            ratios.append(d["agreement"] / bound if d["agreement"] else 0.0)
        assert len(ratios) == 10 and max(ratios) < 1.0, ratios

    def test_z2_worked_example(self, z2):
        report = check_theorem_a(phi_21(z2))
        assert report.passed

    def test_random_pass(self, d4):
        for seed in range(5):
            report = check_theorem_a(random_pd(d4, 2, seed=seed))
            assert report.passed, report.details

    def test_nan_residual_fails_with_reason(self, s3, monkeypatch):
        # l2_norm no longer overflows at 1e200, where this input once gave a NaN
        # residual; the NaN now comes from the residual's norm itself, taken on
        # the array psi*psi - phi
        phi = random_pd(s3, 2, seed=3)
        monkeypatch.setattr(godement.roots, "_l2", lambda values: float("nan"))
        report = check_theorem_a(phi)
        assert not report.passed
        assert "residual nan" in report.details["failure"]
        assert report.counterexample is not None

    def test_nan_check_fails_and_is_the_worst(self, d4, monkeypatch):
        # a NaN in any check, not only the first, is the worst and fails the trial
        monkeypatch.setattr(godement.theorems, "is_positive_definite", nan_star_gap)
        report = check_theorem_a(random_pd(d4, 2, seed=0))
        assert not report.passed
        assert report.details["failure"] == "star_gap"
        assert np.isnan(report.worst_residual)

    def test_one_spectrum_of_phi_per_trial(self, s3, monkeypatch):
        # the certificate and both roots share one spectrum of phi; psi has its
        # own, whose certificate also gives the star gap
        real = godement.fourier.fourier_spectrum
        seen = []

        def spy(a, vectors=True):
            seen.append(a)
            return real(a, vectors=vectors)

        def no_star_pass(a):
            raise AssertionError("hermitian_symmetry_residual called")

        for module in (godement.fourier, godement.operators, godement.roots, godement.theorems):
            if module.__dict__.get("fourier_spectrum") is real:
                monkeypatch.setattr(module, "fourier_spectrum", spy)
            if "hermitian_symmetry_residual" in module.__dict__:
                monkeypatch.setattr(module, "hermitian_symmetry_residual", no_star_pass)
        phi = random_pd(s3, 2, seed=3)
        assert check_theorem_a(phi).passed
        assert len(seen) == 2
        assert seen[0] is phi
        assert np.array_equal(seen[1].values, sqrt_spectral(phi).psi.values)
        # the public roots certify phi themselves, once each
        seen.clear()
        sqrt_spectral(phi)
        sqrt_iterative(phi, tol=1e-9)
        assert len(seen) == 2 and seen[0] is phi and seen[1] is phi

    @pytest.mark.parametrize("c", [1.0, 1e-150])
    def test_star_gap_is_relative(self, z2, c, monkeypatch):
        real = godement.theorems._spectral_root

        def with_star_gap(phi, spectrum, tol, phi_norm):
            # i eps at the identity gives a star gap of 2 eps = 5e-10 ||psi||: five
            # times the tolerance, but small enough that psi stays PD; the
            # residual is that of the perturbed root, which keeps it within the
            # agreement bound
            result = real(phi, spectrum, tol, phi_norm)
            values = result.psi.values.copy()
            values[phi.group.identity] += 0.5j * 5e-10 * l2_norm(result.psi)
            psi = MatFun(phi.group, phi.n, values)
            return dataclasses.replace(result, psi=psi, residual=godement.roots._kernel_residual(psi, phi, phi_norm))

        phi = scale(c, phi_21(z2))
        assert check_theorem_a(phi).passed
        monkeypatch.setattr(godement.theorems, "_spectral_root", with_star_gap)
        report = check_theorem_a(phi)
        assert not report.passed
        assert report.details["failure"] == "star_gap"
        assert report.worst_residual == pytest.approx(5.0)

    @pytest.mark.parametrize("c", [1.0, 1e-150])
    def test_trace_bound_is_relative(self, z2, c, monkeypatch):
        real = godement.theorems._iterative_root

        def overshooting(phi, spectrum, tol, phi_norm):
            # one more trace value with v^2 = Tr phi(e) (1 + 1e-9)
            result = real(phi, spectrum, tol, phi_norm)
            top = np.sqrt(np.trace(phi.values[phi.group.identity]).real * (1.0 + 1e-9))
            return dataclasses.replace(result, monotone_trace=result.monotone_trace + (top,))

        phi = scale(c, phi_21(z2))
        monkeypatch.setattr(godement.theorems, "_iterative_root", overshooting)
        report = check_theorem_a(phi)
        assert not report.passed
        assert report.details["failure"] == "trace_bound"

    @pytest.mark.parametrize("name", ["tol", "iter_tol"])
    @pytest.mark.parametrize("bad", [0.0, -1e-9, float("nan"), float("inf")])
    def test_bad_tolerance_raises_before_any_work(self, s3, monkeypatch, name, bad):
        # an invalid argument is the caller's error, not a failed theorem with phi as its counterexample
        monkeypatch.setattr(godement.theorems, "_certified_spectrum", lambda *a, **k: pytest.fail("work was done"))
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            check_theorem_a(random_pd(s3, 2, seed=1), **{name: bad})

    def test_non_finite_root_fails_with_counterexample(self, s3, monkeypatch):
        # a root whose entries overflow is refused by MatFun: a failed theorem, not an input error
        def overflowing(phi, spectrum, tol, phi_norm):
            return MatFun(phi.group, phi.n, np.full(phi.values.shape, np.inf))

        monkeypatch.setattr(godement.theorems, "_spectral_root", overflowing)
        report = check_theorem_a(random_pd(s3, 2, seed=1))
        assert not report.passed
        assert "phi" in report.counterexample
        assert "finite" in report.details["failure"]

    def test_non_pd_input_fails_with_counterexample(self, z2):
        phi = MatFun(z2, 1, np.array([[[1.0]], [[2.0]]], dtype=complex))
        report = check_theorem_a(phi)
        assert not report.passed
        assert report.counterexample is not None
        assert "phi" in report.counterexample
        assert "not positive definite" in report.details["failure"]

    def test_each_tolerance_is_used(self, s3):
        # a tolerance no root can meet fails the theorem through the root it governs
        phi = random_pd(s3, 2, seed=1)
        assert "spectral square root residual" in check_theorem_a(phi, tol=1e-300).details["failure"]
        assert "no convergence" in check_theorem_a(phi, iter_tol=1e-300).details["failure"]


# (case number, function, parameters): a case keeps its number, and so its
# id, when a function before it is retired (7 and 10 were)
SIGNATURES = [
    (0, check_theorem_a, ["phi", "tol", "iter_tol"]),
    (1, check_theorem_b, ["phi", "psi"]),
    (2, check_theorem_c, ["phi", "psi"]),
    (3, check_inner_trace, ["phi", "psi"]),
    (4, check_tensor_nonneg, ["p1", "u1s", "p2", "u2s"]),
    (5, sqrt_spectral, ["phi", "tol"]),
    (6, sqrt_iterative, ["phi", "tol"]),
    (8, spectral_truncate, ["a", "t"]),
    (9, gram_pd_check, ["a"]),
    (11, decompose, ["op"]),
    (12, SpectralDecomposition.certificate, ["self"]),
    (13, is_positive_definite, ["a"]),
]


@pytest.mark.parametrize("check, params", [case[1:] for case in SIGNATURES],
                         ids=[f"{check.__name__}-params{k}" for k, check, _ in SIGNATURES])
def test_checks_take_only_the_tolerances_they_use(check, params):
    # Theorem A's agreement bound is derived and the pair checks judge at
    # _PAIR_TOL; the two root tolerances left are each used (test_each_tolerance_is_used).
    # Every PD verdict is at DEFAULT_PD_TOL, so certify, sqrt and truncate agree on it.
    assert list(inspect.signature(check).parameters) == params


def loop_trace_checks(trace, phi_trace):
    """Theorem A's trace checks as loops over the trace: the reference."""
    dip_floor = -1e-12 * max(trace, default=0.0)
    monotone = all(trace[i + 1] - trace[i] >= dip_floor for i in range(len(trace) - 1))
    bounded = all(v * v <= phi_trace * (1.0 + 1e-12) for v in trace)
    return monotone, bounded


@pytest.mark.parametrize("spec", ARRAY_LEVEL_SPECS + ("s5",))
def test_random_pd_is_make_pd_of_random_matfun_bitwise(spec):
    grp = parse_group_spec(spec)
    for n in (1, 2, 3):
        seed = derive_seed(2024, "A", grp.name, n, 0)
        got = godement.theorems._random_pd(grp, n, seed)
        assert got.values.tobytes() == make_pd(random_matfun(grp, n, seed)).values.tobytes(), (spec, n)


class TestArrayLevelQuantities:
    # the checks compute these on arrays; each equals, bit for bit, its
    # expression on MatFuns

    @pytest.mark.parametrize("spec", ARRAY_LEVEL_SPECS)
    def test_theorem_a(self, spec):
        grp = parse_group_spec(spec)
        for n in (1, 2, 3):
            phi = random_pd(grp, n, seed=derive_seed("A", spec, n))
            report = check_theorem_a(phi)
            spectrum = godement.fourier.fourier_spectrum(phi)
            spectral = godement.roots._spectral_root(phi, spectrum, 1e-8, l2_norm(phi))
            iterative = godement.roots._iterative_root(phi, spectrum, 1e-9, l2_norm(phi))
            assert report.details["agreement"] == l2_norm(subtract(spectral.psi, iterative.psi)), (spec, n)
            residual = l2_norm(subtract(convolve(spectral.psi, spectral.psi), phi)) / l2_norm(phi)
            assert report.details["spectral_residual"] == residual, (spec, n)

    def test_trace_checks_match_the_loops(self):
        rng = np.random.default_rng(3)
        traces = [(), (1.0,), (float("nan"),), (1.0, float("nan"), 2.0), (0.0, 0.0)]
        for _ in range(300):
            steps = rng.uniform(-1e-11, 1.0, size=rng.integers(1, 40)) * rng.choice([1e-8, 1.0, 1e8])
            trace = np.cumsum(steps)
            if trace.size > 1 and rng.random() < 0.5:  # a step down just inside or well outside the floor
                i = rng.integers(1, trace.size)
                trace[i] = trace[i - 1] - rng.choice([1e-13, 1e-6]) * trace.max()
            traces.append(tuple(float(v) for v in trace))
        seen = set()
        for trace in traces:
            peak = max(trace, default=1.0)
            for phi_trace in (peak * peak * (1.0 - 1e-13), peak * peak, peak * peak * (1.0 + 2e-12), 0.0):
                got = godement.theorems._trace_checks(trace, phi_trace)
                assert got == loop_trace_checks(trace, phi_trace), (trace, phi_trace)
                seen.add(got)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_trace_checks_are_the_numpy_expression(self):
        # _trace_checks runs on Python floats; it gives the verdicts of the
        # numpy expression it replaced, NaN, infinities and ties included
        def numpy_checks(trace, phi_trace):
            trace = np.asarray(trace, dtype=np.float64)
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and squares past the range
                monotone = (np.diff(trace) >= -1e-12 * trace.max(initial=0.0)).all()
                bounded = (trace * trace <= phi_trace * (1.0 + 1e-12)).all()
            return bool(monotone), bool(bounded)

        nan, inf = float("nan"), float("inf")
        traces = [(), (0.0,), (2.0,), (nan,), (inf,), (-inf,), (1e200,), (1.0, 1.0), (2.0, 2.0, 2.0), (0.0, -0.0),
                  (-0.0, 0.0), (1.0, nan), (nan, 1.0), (1.0, nan, 2.0), (nan, nan), (inf, inf), (1.0, inf),
                  (inf, 1.0), (-inf, 1.0), (1.0, -inf), (-inf, -inf), (-1.0, -2.0), (-2.0, -2.0), (-1.0, -0.5, -0.5), (3.0, 3.0 - 3e-12),
                  (3.0, 3.0 - 3e-13), (1.0, 2.0, 2.0, 3.0)]
        seen = set()
        for trace in traces:
            for phi_trace in (0.0, 1.0, 4.0, 9.0, 1e300, inf, nan, -1.0):
                got = godement.theorems._trace_checks(trace, phi_trace)
                assert got == numpy_checks(trace, phi_trace), (trace, phi_trace)
                assert all(type(v) is bool for v in got)
                seen.add(got)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("spec", ARRAY_LEVEL_SPECS)
    def test_pair_checks(self, spec):
        grp = parse_group_spec(spec)
        for n in (1, 2, 3):
            phi = random_pd(grp, n, seed=derive_seed("phi", spec, n))
            psi = random_pd(grp, n, seed=derive_seed("psi", spec, n))
            # in range as given, and brought into range by powers of two
            for a, b in ((phi, psi), (scale(1e200, phi), scale(1e-200, psi))):
                (a_u, a_norm, a_unit), (b_u, b_norm, b_unit) = _in_range(a), _in_range(b)
                product = convolve(a_u, b_u)
                conv_scaled = l2_norm(product) / max(a_norm * b_norm, 1e-300)
                assert check_theorem_c(a, b).details["conv_scaled"] == conv_scaled, (spec, n)
                rhs = complex(np.trace(product.values[grp.identity])) * a_unit * b_unit
                assert check_inner_trace(a, b).details["trace_at_identity"] == [rhs.real, rhs.imag], (spec, n)


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


    def test_nan_inner_product_fails(self, d4, monkeypatch):
        # max(0.0, nan) is 0.0, so a NaN real part must not go through max()
        monkeypatch.setattr(godement.theorems, "inner", lambda a, b: complex(float("nan"), 0.0))
        report = check_theorem_b(random_pd(d4, 2, seed=1), random_pd(d4, 2, seed=2))
        assert not report.passed
        assert np.isnan(report.worst_residual)
        assert report.counterexample is not None


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

    def test_split_inside_a_cluster_rejected(self):
        # on z3 the eigenvalues 1, 1 + 5e-11 and 1 + 1e-10 are one cluster to
        # the cut, which keeps all three at mid-spectrum: no high piece is left
        ev = np.array([1.0, 1.0 + 5e-11, 1.0 + 1e-10])
        theta = MatFun(parse_group_spec("z3"), 1, np.fft.ifft(ev).reshape(3, 1, 1))
        with pytest.raises(SpectrumSplitError, match="leaves 3 of 3 eigenvalues below"):
            build_orthogonal_pd_pair(theta, float((ev[0] + ev[-1]) / 2))

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
        assert _classify_magnitude(5e-11, 1e-10) == "zero"
        assert _classify_magnitude(5e-9, 1e-10) == "indeterminate"
        assert _classify_magnitude(2e-8, 1e-10) == "nonzero"

    def test_contradiction_detected(self, z2):
        # forged report inputs: inner zero but convolution large cannot occur
        # for genuine pairs, so drive the classifier directly
        assert _classify_magnitude(0.0, 1e-10) != _classify_magnitude(1.0, 1e-10)

    def test_nan_inner_product_fails_with_reason(self, d4, monkeypatch):
        # _classify_magnitude(nan) is "indeterminate", which alone would pass the trial
        monkeypatch.setattr(godement.theorems, "inner", lambda a, b: complex(float("nan"), 0.0))
        report = check_theorem_c(random_pd(d4, 2, seed=14), random_pd(d4, 2, seed=15))
        assert not report.passed
        assert np.isnan(report.worst_residual)
        assert "non-finite" in report.details["failure"]
        assert report.details["indeterminate_trials"] == 0
        assert report.counterexample is not None

    def test_nan_convolution_magnitude_fails(self, d4, monkeypatch):
        # the convolution's norm is the one taken on an array; the pair's norms are on MatFuns
        monkeypatch.setattr(godement.theorems, "_l2", lambda values: float("nan"))
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


class TestPairChecksAtAnyScale:
    # Theorem B, C and the trace lemma judge ratios homogeneous in each
    # function, so a verdict must not change when phi or psi is scaled
    SCALES = (1e-200, 1e-160, 1.0, 1e160, 1e200)

    @pytest.fixture
    def pair(self, s3):
        return random_pd(s3, 2, seed=40), random_pd(s3, 2, seed=41)

    def test_theorem_b(self, pair):
        phi, psi = pair
        base, negative = check_theorem_b(phi, psi), check_theorem_b(phi, scale(-1.0, psi))
        assert base.passed and not negative.passed
        for c in self.SCALES:
            for other in (c, 1.0 / c):
                assert check_theorem_b(scale(c, phi), scale(other, psi)).passed, (c, other)
                report = check_theorem_b(scale(c, phi), scale(-other, psi))
                assert not report.passed, (c, other)
                assert report.worst_residual == pytest.approx(negative.worst_residual, rel=1e-12)
            if 1e-300 < c * c < 1e300:  # the inner product itself is representable
                report = check_theorem_b(scale(c, phi), scale(c, psi))
                assert report.details["inner_real"] == pytest.approx(c * c * base.details["inner_real"], rel=1e-12)

    def test_theorem_c(self, s3, pair):
        phi, psi = pair
        theta = random_pd(s3, 2, seed=42)
        ev = np.linalg.eigvalsh(conv_matrix(theta).data)
        low, high = build_orthogonal_pd_pair(theta, float((ev[0] + ev[-1]) / 2))
        overlap = check_theorem_c(phi, psi)
        for c in self.SCALES:
            for other in (c, 1.0 / c):
                report = check_theorem_c(scale(c, low), scale(other, high))
                assert report.passed, (c, other)
                assert (report.details["inner_class"], report.details["conv_class"]) == ("zero", "zero")
                report = check_theorem_c(scale(c, phi), scale(other, psi))
                assert report.passed, (c, other)
                assert (report.details["inner_class"], report.details["conv_class"]) == ("nonzero", "nonzero")
                for key in ("inner_scaled", "conv_scaled"):
                    assert report.details[key] == pytest.approx(overlap.details[key], rel=1e-12)

    def test_inner_trace(self, pair):
        phi, psi = pair
        for c in self.SCALES:
            for other in (c, 1.0 / c):
                report = check_inner_trace(scale(c, phi), scale(other, psi))
                assert report.passed and report.worst_residual <= 1e-2, (c, other)


# the suite's groups and s4, whose Fourier blocks have two sizes besides 1
SCALE_SPECS = ("z6", "d4", "q8", "s3", "s4")


@given(spec=st.sampled_from(SCALE_SPECS), n=st.integers(1, 3), k=st.integers(-100, 100),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_verdicts_do_not_depend_on_scale(tmp_path_factory, spec, n, k, seed):
    # every check, and certify on a file, gives phi and 10^k phi the same
    # verdict, on inputs that pass and on inputs that fail
    grp, c = parse_group_spec(spec), 10.0 ** k
    phi, psi = random_pd(grp, n, seed), random_pd(grp, n, seed + 1)
    ev = godement.fourier.fourier_spectrum(phi, vectors=False).eigenvalues
    low, high = build_orthogonal_pd_pair(phi, float((ev[0] + ev[-1]) / 2))
    indefinite = subtract(low, high)  # Hermitian, with eigenvalues of both signs

    def verdicts(f):  # f(a) is a at the scale under test
        return {
            "A": check_theorem_a(f(phi)).passed,
            "A indefinite": check_theorem_a(f(indefinite)).passed,
            "B": check_theorem_b(f(phi), psi).passed,
            "B negative": check_theorem_b(f(phi), scale(-1.0, psi)).passed,
            "C orthogonal": check_theorem_c(f(low), high).details["inner_class"],
            "C overlapping": check_theorem_c(f(phi), psi).details["conv_class"],
            "lemma": check_inner_trace(f(phi), psi).passed,
            "PD": godement.operators.is_positive_definite(f(phi)).verdict,
            "PD indefinite": godement.operators.is_positive_definite(f(indefinite)).verdict,
            "certify": certify(f(phi)),
            "certify indefinite": certify(f(indefinite)),
        }

    path = tmp_path_factory.getbasetemp() / "scale-property.json"

    def certify(a):
        path.write_text(json.dumps(matfun_to_json(a)))
        return main(["certify", str(path), "--out", str(path.with_suffix(".out.json"))])

    base = verdicts(lambda a: a)
    assert base == {"A": True, "A indefinite": False, "B": True, "B negative": False, "C orthogonal": "zero",
                    "C overlapping": "nonzero", "lemma": True, "PD": "positive_definite",
                    "PD indefinite": "not_positive_definite", "certify": 0, "certify indefinite": 1}
    assert verdicts(lambda a: scale(c, a)) == base, c


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
        # an empty grid once passed with no reports, having verified nothing
        with pytest.raises(ValueError, match="^no groups given$"):
            run_suite(SuiteConfig(groups=(), dims=(1,), trials=1, name="empty"))

    def test_empty_dimension_list(self):
        with pytest.raises(ValueError, match="^no dimensions given$"):
            run_suite(SuiteConfig(groups=("s3",), dims=(), trials=1, name="empty"))

    @pytest.mark.parametrize("field, value, message", [
        ("trials", 1.5, "trials must be an int >= 1, got 1.5"),
        ("trials", True, "trials must be an int >= 1, got True"),
        ("trials", 0, "trials must be an int >= 1, got 0"),
        ("dims", (1.0,), "dimensions must be ints >= 1, got (1.0,)"),
        ("dims", (2, np.int64(1)), "dimensions must be ints >= 1, got (2, np.int64(1))"),
        ("dims", (1, 0), "dimensions must be ints >= 1, got (1, 0)"),
    ], ids=["trials-float", "trials-bool", "trials-zero", "dims-float", "dims-numpy", "dims-zero"])
    def test_counts_must_be_ints_before_any_trial(self, monkeypatch, field, value, message):
        # trials=1.5 and dims=(1.0,) once raised TypeError after trials had started
        built = []
        monkeypatch.setattr(godement.theorems, "parse_group_spec", built.append)
        config = dataclasses.replace(SuiteConfig(groups=("s3",), dims=(1,), trials=1), **{field: value})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_suite(config)
        assert built == []

    def test_every_spec_is_checked_before_any_trial(self, monkeypatch):
        built = []
        monkeypatch.setattr(godement.theorems, "parse_group_spec", built.append)
        with pytest.raises(ValueError, match="nope"):
            run_suite(SuiteConfig(groups=("s3", "nope"), dims=(1,), trials=1))
        assert built == []

    @pytest.mark.parametrize("spec", ["trivial", "cyclic:1", "z1xz1"])
    def test_one_eigenvalue_cells_are_refused_before_any_table(self, monkeypatch, spec):
        # |G| n = 1 ran every Theorem A and B trial, then Theorem C's split raised
        built = []
        monkeypatch.setattr(godement.theorems, "parse_group_spec", built.append)
        with pytest.raises(ValueError, match="operator has one eigenvalue, and Theorem C needs two"):
            run_suite(SuiteConfig(groups=("s3", spec), dims=(1, 2), trials=1))
        assert built == []

    def test_a_factor_its_builder_refuses_is_checked_before_any_trial(self, monkeypatch):
        # the orders come from groups._spec_order, which raises as the builder would
        built = []
        monkeypatch.setattr(godement.theorems, "parse_group_spec", built.append)
        with pytest.raises(ValueError, match="dihedral parameter must be >= 2, got 1"):
            run_suite(SuiteConfig(groups=("s3", "d1"), dims=(1,), trials=1))
        assert built == []

    def test_one_element_groups_run_from_n_two(self):
        result = run_suite(SuiteConfig(groups=("trivial",), dims=(2,), trials=2))
        assert result["passed"] and len(result["reports"]) == 4

    def test_trial_seeds_are_derive_seed(self, monkeypatch):
        # each trial's inputs are drawn from derive_seed(suite seed, theorem, group, n, trial)
        seen = []
        for theorem, fn in list(godement.theorems._TRIALS.items()):
            monkeypatch.setitem(godement.theorems._TRIALS, theorem,
                                lambda g, n, seed, cfg, theorem=theorem, fn=fn: seen.append((theorem, g.name, n, seed))
                                or fn(g, n, seed, cfg))
        config = SuiteConfig(groups=("z2", "s3"), dims=(1, 2), trials=12, seed=-31)
        run_suite(config)
        assert len(seen) == 2 * 2 * 4 * 12
        trials = {}
        for theorem, name, n, seed in seen:
            t = trials.setdefault((theorem, name, n), 0)
            trials[(theorem, name, n)] += 1
            assert seed == derive_seed(config.seed, theorem, name, n, t)

    def test_deterministic(self):
        config = SuiteConfig(groups=("cyclic:6",), dims=(1,), trials=3, seed=11, name="det")
        first = json.dumps(run_suite(config), sort_keys=True)
        second = json.dumps(run_suite(config), sort_keys=True)
        assert first == second

    def test_merge_keeps_nan(self):
        aggregate = TheoremReport("A", 0, "cyclic:2", 1, 0.0, True)
        for worst in (0.5, float("nan"), 0.25):
            _merge(aggregate, TheoremReport("A", 1, "cyclic:2", 1, worst, True))
        assert np.isnan(aggregate.worst_residual)
        assert aggregate.trials == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(trials=0))
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                run_suite(SuiteConfig(tol=tol))

    def test_trial_rows_opt_in(self):
        config = SuiteConfig(groups=("cyclic:2",), dims=(1,), trials=3, seed=5, name="rows")
        lean = run_suite(config)
        assert "trial_rows" not in lean
        detailed = run_suite(config, collect_trials=True)
        assert len(detailed["trial_rows"]) == 4 * 3
        assert all(row["passed"] for row in detailed["trial_rows"])
        for row in detailed["trial_rows"]:
            if row["theorem"] == "A":
                assert isinstance(row["iterations"], int) and row["iterations"] > 0
            else:
                assert row["iterations"] is None

    def test_replays_with_the_matfun_draw(self, monkeypatch):
        # recorded seeds replay: the suite's raw-array draw is make_pd(random_matfun(...))
        fast = json.dumps(run_suite(SuiteConfig(trials=5, seed=206)), sort_keys=True)
        monkeypatch.setattr(godement.theorems, "_random_pd", lambda g, n, seed: make_pd(random_matfun(g, n, seed)))
        assert json.dumps(run_suite(SuiteConfig(trials=5, seed=206)), sort_keys=True) == fast

    def test_passing_trials_serialize_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(godement.theorems, "matfun_to_json", lambda a: calls.append(a))
        assert run_suite(SuiteConfig(groups=("s3",), dims=(1, 2), trials=2, seed=8))["passed"]
        assert calls == []

    @pytest.mark.parametrize("theorem", ["A", "B", "C", "lemma_2_1"])
    def test_a_passing_trial_hands_back_no_counterexample(self, theorem):
        report, counterexample = godement.theorems._TRIALS[theorem](parse_group_spec("s3"), 2, 7, SuiteConfig())
        assert report.passed and counterexample is None and report.counterexample is None

    @pytest.mark.parametrize("theorem, patch, inputs", [
        ("A", ("is_positive_definite", nan_star_gap), 1),
        ("B", ("inner", lambda a, b: complex(float("nan"), 0.0)), 2),
        ("C", ("inner", lambda a, b: complex(float("nan"), 0.0)), 3),
    ])
    def test_a_failing_trial_serializes_each_input_once(self, monkeypatch, theorem, patch, inputs):
        # the check that fails writes the counterexample, and _merge keeps it as written
        monkeypatch.setattr(godement.theorems, *patch)
        calls = []
        monkeypatch.setattr(godement.theorems, "matfun_to_json", lambda f: calls.append(f) or matfun_to_json(f))
        aggregate = TheoremReport(theorem, 0, "symmetric:3", 2, 0.0, True)
        report, counterexample = godement.theorems._TRIALS[theorem](parse_group_spec("s3"), 2, 7, SuiteConfig())
        _merge(aggregate, report)
        assert not aggregate.passed and len(calls) == inputs == len(counterexample)
        assert aggregate.counterexample is counterexample is report.counterexample

    def test_counterexample_is_the_serialized_inputs_and_replays(self, monkeypatch):
        # a NaN inner product fails B, C and Lemma 2.1; a NaN star gap fails A
        monkeypatch.setattr(godement.theorems, "inner", lambda a, b: complex(float("nan"), 0.0))
        monkeypatch.setattr(godement.theorems, "is_positive_definite", nan_star_gap)
        config = SuiteConfig(groups=("s3",), dims=(2,), trials=2, seed=9)
        result = run_suite(config)
        grp = parse_group_spec("s3")
        replay = {
            "A": lambda f: check_theorem_a(f["phi"]),
            "B": lambda f: check_theorem_b(f["phi"], f["psi"]),
            "C": lambda f: check_theorem_c(f["phi"], f["psi"]),
            "lemma_2_1": lambda f: check_inner_trace(f["phi"], f["psi"]),
        }
        assert {r["theorem"] for r in result["reports"]} == set(replay)
        names = {"A": ["phi"], "B": ["phi", "psi"], "C": ["theta", "phi", "psi"], "lemma_2_1": ["phi", "psi"]}
        for r in result["reports"]:
            assert not r["passed"]
            # the first failing trial is trial 0, regenerated from its coordinates
            seed = derive_seed(config.seed, r["theorem"], grp.name, 2, 0)
            _, counterexample = godement.theorems._TRIALS[r["theorem"]](grp, 2, seed, config)
            assert json.dumps(r["counterexample"], sort_keys=True) == json.dumps(counterexample, sort_keys=True)
            # its inputs are the suite's draws, A's at the trial seed and the others' at seeds derived by name
            inputs = {name: make_pd(random_matfun(grp, 2, seed if r["theorem"] == "A" else derive_seed(seed, name)))
                      for name in names[r["theorem"]]}
            expected = {name: matfun_to_json(f) for name, f in inputs.items()}
            assert json.dumps(r["counterexample"], sort_keys=True) == json.dumps(expected, sort_keys=True)
            loaded = {name: matfun_from_json(obj) for name, obj in r["counterexample"].items()}
            assert all(np.array_equal(loaded[name].values, f.values) for name, f in inputs.items())
            assert not replay[r["theorem"]](loaded).passed

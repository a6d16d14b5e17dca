import inspect
import math

import numpy as np
import pytest

import godement.roots
from godement import (
    ConvergenceError,
    MatFun,
    NotPositiveDefiniteError,
    add,
    build_orthogonal_pd_pair,
    check_theorem_a,
    conv_matrix,
    convolve,
    delta_identity,
    hermitian_symmetry_residual,
    is_positive_definite,
    l2_norm,
    parse_group_spec,
    scale,
    spectral_truncate,
    sqrt_iterative,
    sqrt_spectral,
    subtract,
    zero_matfun,
)
from godement.cli import build_parser
from conftest import phi_21, random_pd
from dense_oracle import pd_order_leq

SQRT3 = np.sqrt(3.0)

STANDARD_SPECS = ("trivial", "z2", "z6", "z24", "klein", "d3", "d4", "d12", "q8",
                  "s3", "s4", "z2xz3", "z3xq8", "z2xd6")


def reference_newton_schulz(phi: MatFun, tol: float, iterates: list | None = None):
    """The coupled Newton-Schulz iteration step by step on the dense
    convolution matrix A = C_phi / s, with np.linalg: the oracle of
    sqrt_iterative.  Returns (psi values, steps, monotone trace), and appends
    every iterate Y_k (k >= 1) as a matrix to iterates when given."""
    grp, n, e = phi.group, phi.n, phi.group.identity
    s = is_positive_definite(phi).operator_norm
    a = conv_matrix(phi).data / s
    eye = np.eye(a.shape[0])
    y, z = a, eye
    trace = []
    for k in range(100):
        if np.linalg.norm(y @ y - a) <= tol * np.linalg.norm(a):
            # the block column at the identity holds the function: C[x, e] = psi(x)
            return np.sqrt(s) * y[:, e * n:(e + 1) * n].reshape(grp.order, n, n), k, np.array(trace)
        t = (3.0 * eye - z @ y) / 2.0
        y, z = y @ t, t @ z
        # ||C_f||_F^2 = |G| ||f||_2^2
        trace.append(np.sqrt(s) * np.linalg.norm(y) / np.sqrt(grp.order))
        if iterates is not None:
            iterates.append(y)
    raise AssertionError("reference loop did not converge within 100 steps")


def predicted_steps(phi: MatFun, tol: float) -> int:
    """ceil(log_{9/4}(1 / l) + log2 ln(1 / tol)), l = max(lambda_min / s, 1e-9)."""
    cert = is_positive_definite(phi)
    lam = max(cert.min_eigenvalue / cert.operator_norm, 1e-9)
    return math.ceil(math.log(1.0 / lam) / math.log(9.0 / 4.0) + math.log2(math.log(1.0 / tol)))


def rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def conv_residual(psi: MatFun, phi: MatFun) -> float:
    return l2_norm(subtract(convolve(psi, psi), phi)) / l2_norm(phi)


class TestSqrtSpectral:
    def test_delta_is_its_own_root(self, d3):
        delta = delta_identity(d3, 2)
        result = sqrt_spectral(delta)
        assert l2_norm(subtract(result.psi, delta)) <= 1e-12
        assert result.residual <= 1e-12

    def test_scaled_delta(self, z6):
        phi = scale(9.0, delta_identity(z6, 2))
        result = sqrt_spectral(phi)
        assert l2_norm(subtract(result.psi, scale(3.0, delta_identity(z6, 2)))) <= 1e-10

    def test_z2_closed_form(self, z2):
        result = sqrt_spectral(phi_21(z2))
        assert np.allclose(
            result.psi.values.ravel(), [(SQRT3 + 1) / 2, (SQRT3 - 1) / 2], atol=1e-12
        )
        psi0, psi1 = result.psi.values.ravel().real
        assert psi0**2 + psi1**2 == pytest.approx(2.0)
        assert 2 * psi0 * psi1 == pytest.approx(1.0)

    def test_contract_on_random_inputs(self, sample_groups):
        for grp in sample_groups:
            for n in (1, 2):
                phi = random_pd(grp, n, seed=5 + n)
                result = sqrt_spectral(phi)
                assert result.method == "spectral"
                assert result.residual <= 1e-8
                assert conv_residual(result.psi, phi) <= 1e-8
                assert is_positive_definite(result.psi).ok
                assert hermitian_symmetry_residual(result.psi) <= 1e-10 * l2_norm(result.psi)

    def test_rejects_non_pd(self, z2):
        phi = MatFun(z2, 1, np.array([[[1.0]], [[2.0]]], dtype=complex))
        with pytest.raises(NotPositiveDefiniteError):
            sqrt_spectral(phi)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_tol_that_is_not_positive_and_finite(self, d4, monkeypatch, tol):
        # a NaN tol exited 1 from the CLI and an infinite one passed any residual
        monkeypatch.setattr(godement.roots, "_certified_spectrum", lambda *a, **k: pytest.fail("work was done"))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            sqrt_spectral(random_pd(d4, 2, seed=11), tol=tol)

    def test_zero_function(self, z2):
        result = sqrt_spectral(zero_matfun(z2, 2))
        assert l2_norm(result.psi) == 0.0


    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_extreme_scales_pass(self, s3):
        # the residual's norms once overflowed to inf / inf = NaN from about 1e154
        phi = random_pd(s3, 2, seed=3)
        for c in (1e-200, 1e200):
            assert sqrt_spectral(scale(c, phi)).residual <= 1e-8
            assert sqrt_iterative(scale(c, phi), tol=1e-8).residual <= 1e-8

    def test_nonfinite_residual_fails(self, s3, monkeypatch):
        phi = random_pd(s3, 2, seed=3)
        # the residual's norm is taken on the array psi*psi - phi
        monkeypatch.setattr(godement.roots, "_l2", lambda values: float("nan"))
        with pytest.raises(ConvergenceError, match="nan"):
            sqrt_spectral(phi)

    def test_rank_deficient_orthogonal_pieces(self):
        # each piece of an orthogonal pair has a kernel of rounding-level
        # eigenvalues; their square roots would break equivariance
        for spec in ("d3", "q8", "s3", "s4"):
            grp = parse_group_spec(spec)
            for n in (1, 2, 3):
                for seed in range(10):
                    theta = random_pd(grp, n, seed=seed)
                    ev = np.linalg.eigvalsh(conv_matrix(theta).data)
                    for piece in build_orthogonal_pd_pair(theta, float((ev[0] + ev[-1]) / 2)):
                        result = sqrt_spectral(piece)
                        assert result.residual <= 1e-8
                        assert is_positive_definite(result.psi).ok


class TestSqrtIterative:
    def test_delta_converges_to_itself(self, z6):
        # Y_0 = phi~ is already the root: no step is taken
        for c in (1.0, 4.0):
            result = sqrt_iterative(scale(c, delta_identity(z6, 2)), tol=1e-10)
            assert l2_norm(subtract(result.psi, scale(np.sqrt(c), delta_identity(z6, 2)))) <= 1e-12
            assert result.iterations == 0 and result.monotone_trace == ()

    def test_z2_matches_spectral_quickly(self, z2):
        phi = phi_21(z2)
        spectral = sqrt_spectral(phi)
        result = sqrt_iterative(phi, tol=1e-9)
        # eigenvalues {1, 3}: lambda_min / s = 1/3
        assert result.iterations <= predicted_steps(phi, 1e-9) == 6
        assert l2_norm(subtract(result.psi, spectral.psi)) <= 1e-8

    def test_monotone_trace_and_bound(self, d4):
        phi = random_pd(d4, 2, seed=8)
        result = sqrt_iterative(phi, tol=1e-9)
        trace = np.asarray(result.monotone_trace)
        assert len(trace) == result.iterations
        assert np.all(np.diff(trace) >= -1e-12 * trace.max())
        bound = float(np.trace(phi.values[d4.identity]).real)
        assert np.all(trace**2 <= bound + 1e-8)
        # strictly increasing while far from the fixed point
        head = trace[: len(trace) // 2]
        assert np.all(np.diff(head) > 0)

    def test_iterates_properties(self, z6):
        # on the reference iterates Y_k: PD, Y_k^2 <= phi~, increasing in the PD order
        phi = random_pd(z6, 1, seed=9)
        iterates: list[np.ndarray] = []
        reference_newton_schulz(phi, tol=1e-9, iterates=iterates)
        assert len(iterates) >= 5
        a = conv_matrix(phi).data / np.linalg.norm(conv_matrix(phi).data, 2)
        floor = -1e-12

        def least(m):
            return np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]

        for k, y in enumerate(iterates):
            assert least(y) >= floor
            assert least(a - y @ y) >= floor
            if k + 1 < len(iterates):
                assert least(iterates[k + 1] - y) >= floor

    def test_method_agreement_random(self, sample_groups):
        for grp in sample_groups:
            phi = random_pd(grp, 2, seed=10)
            spectral = sqrt_spectral(phi)
            iterative = sqrt_iterative(phi, tol=1e-9)
            assert l2_norm(subtract(spectral.psi, iterative.psi)) <= 1e-6 * l2_norm(phi)

    @pytest.mark.parametrize("spec, n", [("d4", 2), ("s5", 1)], ids=["dense", "blocks"])
    def test_non_convergence_raises(self, spec, n):
        # a tol below rounding is never met: the loop stops at its cap, the
        # predicted count plus the margin, and says the residual and both
        # counts, on the convolution kernel (side 16) and the blocks (side 120)
        phi = random_pd(parse_group_spec(spec), n, seed=11)
        predicted = predicted_steps(phi, 1e-20)
        cap = predicted + godement.roots._CAP_MARGIN
        with pytest.raises(ConvergenceError, match=rf"residual \S+ after {cap} steps, {predicted} predicted"):
            sqrt_iterative(phi, tol=1e-20)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_tol_that_is_not_positive_and_finite(self, d4, monkeypatch, tol):
        monkeypatch.setattr(godement.roots, "_certified_spectrum", lambda *a, **k: pytest.fail("work was done"))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            sqrt_iterative(random_pd(d4, 2, seed=11), tol=tol)

    def test_rejects_non_pd(self, z2):
        phi = MatFun(z2, 1, np.array([[[1.0]], [[2.0]]], dtype=complex))
        with pytest.raises(NotPositiveDefiniteError):
            sqrt_iterative(phi)

    @pytest.mark.parametrize("spec, seed", [("q8", 14), ("s3", 9), ("s3", 18)])
    def test_default_cap_is_the_suites(self, spec, seed):
        # the three default-grid inputs (seeds 0-24, n = 1, 2) that took the
        # monotone step more than 500 steps: sqrt_iterative and Theorem A run
        # the same loop with the same derived cap
        phi = random_pd(parse_group_spec(spec), 2, seed)
        result = sqrt_iterative(phi, tol=1e-9)
        report = check_theorem_a(phi)
        assert report.passed and report.details["iterations"] == result.iterations
        assert result.iterations <= predicted_steps(phi, 1e-9)

    def test_one_cap_for_every_caller(self):
        # the cap is derived from the spectrum; no caller can set one
        assert "max_iter" not in inspect.signature(sqrt_iterative).parameters
        assert "max_iter" not in inspect.signature(check_theorem_a).parameters
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sqrt", "phi.json", "--max-iter", "5"])

    @pytest.mark.parametrize("spec, n, product", [("d4", 2, "dot"), ("s5", 1, "matmul")], ids=["dense", "blocks"])
    def test_nonfinite_step_raises_at_once(self, monkeypatch, spec, n, product):
        # below side 64 the products are np.dot on gathered convolution
        # matrices; side 120 steps on the Fourier blocks, whose products are np.matmul
        calls = []

        def nan_product(a, b, out):
            calls.append(1)
            out[...] = np.nan
            return out

        class NanProducts:
            """numpy as the roots module sees it, except that every product of the route is NaN."""

            def __getattr__(self, name):
                return nan_product if name == product else getattr(np, name)

        phi = random_pd(parse_group_spec(spec), n, seed=12)
        monkeypatch.setattr(godement.roots, "np", NanProducts())
        with pytest.raises(ConvergenceError, match="non-finite residual after 0 steps"):
            sqrt_iterative(phi)
        assert len(calls) == 1

    def test_block_root_failing_kernel_recheck_raises(self, monkeypatch):
        phi = random_pd(parse_group_spec("s5"), 1, seed=13)
        assert sqrt_iterative(phi, tol=1e-9).residual <= 1e-9
        gaps = []

        def off_by_a_percent(psi, target, target_norm):
            gaps.append(1)
            return 1e-2

        monkeypatch.setattr(godement.roots, "_kernel_residual", off_by_a_percent)
        with pytest.raises(ConvergenceError, match="1.000e-02 exceeds 1.000e-09 on the convolution kernel"):
            sqrt_iterative(phi, tol=1e-9)
        assert gaps == [1]

    def test_dense_root_below_side_64_skips_the_recheck(self, monkeypatch):
        # the dense algebra's residual is already taken on the convolution kernel
        monkeypatch.setattr(godement.roots, "_kernel_residual", lambda *a: pytest.fail("rechecked"))
        assert sqrt_iterative(random_pd(parse_group_spec("z2xs4"), 1, seed=13), tol=1e-9).residual <= 1e-9

    @pytest.mark.parametrize("spec", STANDARD_SPECS + ("s5",))
    def test_matches_reference_loop(self, spec):
        grp = parse_group_spec(spec)
        for n in (1, 2, 3):
            phi = random_pd(grp, n, seed=40 + n)
            psi, iterations, trace = reference_newton_schulz(phi, tol=1e-9)
            result = sqrt_iterative(phi, tol=1e-9)
            assert result.iterations == iterations, (spec, n)
            assert rel(result.psi.values, psi) <= 1e-12, (spec, n)
            assert np.all(np.abs(np.asarray(result.monotone_trace) - trace) <= 1e-12 * trace), (spec, n)

    def test_recorded_iterates_match_reference_loop(self, s3):
        # the trace holds ||psi_k||_2 of every reference iterate Y_k, read off
        # its block column at the identity, and the last iterate is the root
        phi = random_pd(s3, 2, seed=7)
        iterates: list[np.ndarray] = []
        psi, iterations, _ = reference_newton_schulz(phi, tol=1e-9, iterates=iterates)
        result = sqrt_iterative(phi, tol=1e-9)
        assert result.iterations == iterations == len(iterates)
        e, n = s3.identity, phi.n
        root_scale = np.sqrt(is_positive_definite(phi).operator_norm)
        funcs = [root_scale * y[:, e * n:(e + 1) * n].reshape(s3.order, n, n) for y in iterates]
        norms = np.array([np.linalg.norm(f) for f in funcs])
        trace = np.asarray(result.monotone_trace)
        assert np.all(np.abs(norms - trace) <= 1e-12 * trace)
        assert rel(result.psi.values, funcs[-1]) <= 1e-12
        assert np.array_equal(funcs[-1], psi)

    @pytest.mark.parametrize("spec, n", [("s4", 3), ("z2xs4", 2), ("s5", 1), ("s5", 2), ("s5", 3),
                                         ("z2xs5", 1), ("z2xs5", 2)])
    def test_block_route_matches_reference_loop(self, spec, n):
        # from side 64 the loop steps on the stacked Fourier blocks, and each
        # root it returns is rechecked once on the convolution kernel
        phi = random_pd(parse_group_spec(spec), n, seed=60 + n)
        psi, iterations, trace = reference_newton_schulz(phi, tol=1e-9)
        result = sqrt_iterative(phi, tol=1e-9)
        assert result.iterations == iterations
        assert rel(result.psi.values, psi) <= 1e-12
        assert np.all(np.abs(np.asarray(result.monotone_trace) - trace) <= 1e-12 * trace)
        assert result.residual <= 1e-9 and conv_residual(result.psi, phi) <= 1e-9 * (1 + 1e-6)

    @pytest.mark.parametrize("spec", ["z6", "d4", "q8", "s3"])
    def test_steps_within_prediction(self, spec):
        # the cells of the default suite grid
        grp = parse_group_spec(spec)
        for n in (1, 2):
            for seed in range(25):
                phi = random_pd(grp, n, seed)
                for tol in (1e-8, 1e-9):
                    result = sqrt_iterative(phi, tol=tol)
                    assert result.iterations <= predicted_steps(phi, tol), (n, seed, tol)
                    assert result.residual <= tol

    @pytest.mark.parametrize("spec", ["s3", "q8", "s4"])
    def test_rank_deficient_and_near_singular_inputs_converge(self, spec):
        # a spectral cut has a kernel, where Z grows by 3/2 a step; adding
        # 1e-8 of the rest makes it near singular instead
        grp = parse_group_spec(spec)
        theta = random_pd(grp, 2, seed=90)
        ev = np.linalg.eigvalsh(conv_matrix(theta).data)
        low, high = build_orthogonal_pd_pair(theta, float((ev[0] + ev[-1]) / 2))
        for phi in (low, high, add(high, scale(1e-8, low))):
            result = sqrt_iterative(phi, tol=1e-9)
            assert result.residual <= 1e-9 and conv_residual(result.psi, phi) <= 1e-9
            assert result.iterations <= predicted_steps(phi, 1e-9)
        for cut in (low, high):
            gap = l2_norm(subtract(sqrt_iterative(cut, tol=1e-9).psi, sqrt_spectral(cut).psi))
            assert gap <= 1e-8 * np.sqrt(l2_norm(cut))

    def test_zero_function(self, z2):
        result = sqrt_iterative(zero_matfun(z2, 2))
        assert l2_norm(result.psi) == 0.0
        assert result.iterations == 0

    def test_projection_with_exact_zero_eigenvalue(self, z2):
        # eigenvalues {0, 1} exactly: a projection is its own root, so its
        # residual is 0 at step 0, whatever floor the prediction puts under
        # lambda_min = 0
        phi = MatFun(z2, 1, np.array([[[0.5]], [[0.5]]], dtype=complex))
        result = sqrt_iterative(phi)
        assert result.iterations == 0
        assert np.array_equal(result.psi.values, phi.values)


class TestTruncationSequence:
    """spectral_truncate at ascending thresholds: the cuts increase toward phi
    in the PD order and commute."""

    def test_single_threshold_at_top(self, d3):
        phi = random_pd(d3, 2, seed=12)
        top = float(np.linalg.eigvalsh(conv_matrix(phi).data)[-1])
        only = spectral_truncate(phi, top)
        assert l2_norm(subtract(only, phi)) <= 1e-10 * l2_norm(phi)

    def test_z2_worked_example(self, z2):
        phi = phi_21(z2)
        cuts = [spectral_truncate(phi, t) for t in (2.0, 3.0)]
        assert np.allclose(cuts[0].values.ravel(), [0.5, -0.5], atol=1e-12)
        assert np.allclose(cuts[1].values.ravel(), [2.0, 1.0], atol=1e-12)

    def test_chain_is_monotone_commuting_convergent(self, q8):
        phi = random_pd(q8, 2, seed=13)
        ev = np.linalg.eigvalsh(conv_matrix(phi).data)
        thresholds = sorted(set(np.quantile(ev, [0.25, 0.5, 0.75, 1.0]).tolist()))
        cuts = [spectral_truncate(phi, t) for t in thresholds]
        mats = [conv_matrix(c).data for c in cuts]
        norm = np.linalg.norm(conv_matrix(phi).data, 2)
        for i in range(len(cuts)):
            assert pd_order_leq(cuts[i], phi)
            for j in range(i + 1, len(cuts)):
                assert pd_order_leq(cuts[i], cuts[j])
                commutator = mats[i] @ mats[j] - mats[j] @ mats[i]
                assert np.linalg.norm(commutator) <= 1e-10 * norm**2
        assert l2_norm(subtract(cuts[-1], phi)) <= 1e-10 * l2_norm(phi)

    def test_norm_monotonicity_along_chain(self, d4):
        phi = random_pd(d4, 2, seed=14)
        ev = np.linalg.eigvalsh(conv_matrix(phi).data)
        cuts = [spectral_truncate(phi, float(t)) for t in np.quantile(ev, [0.3, 0.6, 0.9, 1.0])]
        for i in range(len(cuts) - 1):
            for j in range(i + 1, len(cuts)):
                ni, nj = l2_norm(cuts[i]), l2_norm(cuts[j])
                assert nj**2 >= ni**2 - 1e-9 * nj**2
                assert l2_norm(subtract(cuts[j], cuts[i])) ** 2 <= nj**2 - ni**2 + 1e-9 * nj**2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_threshold_that_is_not_finite(self, z6, bad):
        with pytest.raises(ValueError, match="threshold must be finite"):
            spectral_truncate(random_pd(z6, 1, seed=15), bad)

    def test_rejects_non_pd(self, z2):
        phi = MatFun(z2, 1, np.array([[[1.0]], [[2.0]]], dtype=complex))
        with pytest.raises(NotPositiveDefiniteError):
            spectral_truncate(phi, 1.0)

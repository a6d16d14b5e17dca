import dataclasses
import inspect

import numpy as np
import pytest

import godement.roots
from godement import (
    ConvergenceError,
    MatFun,
    NotPositiveDefiniteError,
    PolySpec,
    build_orthogonal_pd_pair,
    build_symmetric,
    check_theorem_a,
    conv_matrix,
    convolve,
    delta_identity,
    hermitian_symmetry_residual,
    is_positive_definite,
    l2_norm,
    parse_group_spec,
    pd_order_leq,
    poly_apply,
    scale,
    sqrt_iterative,
    sqrt_spectral,
    subtract,
    truncation_sequence,
    zero_matfun,
)
from godement.cli import build_parser
from godement.fourier import fourier_basis
from godement.matfun import _conv_kernel
from conftest import phi_21, random_pd

SQRT3 = np.sqrt(3.0)

STANDARD_SPECS = ("trivial", "z2", "z6", "z24", "klein", "d3", "d4", "d12", "q8",
                  "s3", "s4", "z2xz3", "z3xq8", "z2xd6")


def reference_iterative(phi: MatFun, max_iter: int, tol: float, iterates: list | None = None):
    """The monotone iteration step by step on X_k, with the convolution
    kernel and np.linalg.norm: the oracle of both step routes in roots.
    Returns (psi values, iterations, monotone trace), and appends the
    values of every iterate sqrt(s) X_k to iterates when given."""
    s = is_positive_definite(phi).operator_norm
    sqrt_s = float(np.sqrt(s))
    target = (1.0 / s) * phi.values
    denom = float(np.linalg.norm(target))
    x = np.zeros_like(target)
    trace = []
    for k in range(1, max_iter + 1):
        gap = target - _conv_kernel(phi.group, x, x)
        if float(np.linalg.norm(gap)) / denom <= tol:
            return sqrt_s * x, k - 1, np.array(trace)
        x = x + 0.5 * gap
        trace.append(sqrt_s * float(np.linalg.norm(x)))
        if iterates is not None:
            iterates.append(sqrt_s * x)
    raise AssertionError(f"reference loop did not converge within {max_iter} steps")


def on_blocks(phi: MatFun) -> bool:
    return phi.group.order * phi.n >= godement.roots._BLOCK_MIN_SIDE


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
        delta = delta_identity(z6, 2)
        result = sqrt_iterative(delta, max_iter=100, tol=1e-10)
        assert l2_norm(subtract(result.psi, delta)) <= 1e-9
        # the single spectral point follows p_k(1) -> 1 from below
        p, expected = 0.0, []
        for _ in range(result.iterations):
            p = p + 0.5 * (1.0 - p * p)
            expected.append(p * np.sqrt(2 * 2))  # sqrt(n) * sqrt(n)... norm of p*delta_(n=2)
        trace = list(result.monotone_trace)[: len(expected)]
        assert np.allclose(trace, [e / np.sqrt(2) for e in expected], atol=1e-12)

    def test_z2_matches_spectral_quickly(self, z2):
        phi = phi_21(z2)
        spectral = sqrt_spectral(phi)
        result = sqrt_iterative(phi, max_iter=60, tol=1e-9)
        assert result.iterations <= 60
        assert l2_norm(subtract(result.psi, spectral.psi)) <= 1e-8

    def test_monotone_trace_and_bound(self, d4):
        phi = random_pd(d4, 2, seed=8)
        result = sqrt_iterative(phi, max_iter=100_000, tol=1e-9)
        trace = np.asarray(result.monotone_trace)
        assert np.all(np.diff(trace) >= -1e-12 * trace.max())
        bound = float(np.trace(phi.values[d4.identity]).real)
        assert np.all(trace**2 <= bound + 1e-8)
        # strictly increasing while far from the fixed point
        head = trace[: len(trace) // 2]
        assert np.all(np.diff(head) > 0)

    def test_iterates_properties(self, z6):
        phi = random_pd(z6, 1, seed=9)
        result = sqrt_iterative(phi, max_iter=5000, tol=1e-9, record_iterates=True)
        normalized = scale(1.0 / np.linalg.norm(conv_matrix(phi).data, 2), phi)
        iterates = result.iterates
        assert iterates
        sqrt_s = np.sqrt(np.linalg.norm(conv_matrix(phi).data, 2))
        for k, psi_k in enumerate(iterates[:25]):
            x_k = scale(1.0 / sqrt_s, psi_k)
            assert is_positive_definite(x_k).ok
            assert pd_order_leq(convolve(x_k, x_k), normalized)
            if k + 1 < len(iterates):
                x_next = scale(1.0 / sqrt_s, iterates[k + 1])
                assert pd_order_leq(x_k, x_next)

    def test_method_agreement_random(self, sample_groups):
        for grp in sample_groups:
            phi = random_pd(grp, 2, seed=10)
            spectral = sqrt_spectral(phi)
            iterative = sqrt_iterative(phi, max_iter=200_000, tol=1e-9)
            assert l2_norm(subtract(spectral.psi, iterative.psi)) <= 1e-6 * l2_norm(phi)

    def test_non_convergence_raises(self, d4):
        phi = random_pd(d4, 2, seed=11)
        with pytest.raises(ConvergenceError):
            sqrt_iterative(phi, max_iter=3, tol=1e-12)

    def test_rejects_non_pd(self, z2):
        phi = MatFun(z2, 1, np.array([[[1.0]], [[2.0]]], dtype=complex))
        with pytest.raises(NotPositiveDefiniteError):
            sqrt_iterative(phi)

    @pytest.mark.parametrize("spec, seed", [("q8", 14), ("s3", 9), ("s3", 18)])
    def test_default_cap_is_the_suites(self, spec, seed):
        # the three default-grid inputs (seeds 0-24, n = 1, 2) that need more
        # than 500 steps converge at the defaults, which share the suite's cap
        result = sqrt_iterative(random_pd(parse_group_spec(spec), 2, seed))
        assert result.iterations > 500 and result.residual <= 1e-8

    def test_one_cap_for_every_caller(self):
        cap = godement.roots._MAX_ITER
        assert inspect.signature(sqrt_iterative).parameters["max_iter"].default == cap
        assert inspect.signature(check_theorem_a).parameters["max_iter"].default == cap
        assert build_parser().parse_args(["sqrt", "phi.json"]).max_iter == cap

    def test_nonfinite_step_raises_at_once(self, d4, monkeypatch):
        calls = []

        class NanProducts:
            """numpy as the roots module sees it, except that every product is NaN."""

            def __getattr__(self, name):
                return getattr(np, name)

            def dot(self, a, b, out):
                calls.append(1)
                out[...] = np.nan
                return out

        monkeypatch.setattr(godement.roots, "np", NanProducts())
        with pytest.raises(ConvergenceError, match="non-finite residual at step 1"):
            sqrt_iterative(random_pd(d4, 2, seed=12), max_iter=1000)
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", STANDARD_SPECS + ("s5",))
    def test_matches_reference_loop(self, spec):
        grp = parse_group_spec(spec)
        for n in (1, 2, 3):
            phi = random_pd(grp, n, seed=40 + n)
            psi, iterations, trace = reference_iterative(phi, max_iter=200_000, tol=1e-9)
            result = sqrt_iterative(phi, max_iter=200_000, tol=1e-9)
            # the dense route does the reference's arithmetic up to powers of
            # two; the block route rounds in another basis
            psi_tol, trace_tol = (1e-13, 1e-13) if on_blocks(phi) else (1e-15, 1e-14)
            assert result.iterations == iterations
            assert np.linalg.norm(result.psi.values - psi) <= psi_tol * np.linalg.norm(psi)
            assert len(result.monotone_trace) == len(trace)
            assert np.all(np.abs(np.asarray(result.monotone_trace) - trace) <= trace_tol * trace)

    def test_recorded_iterates_match_reference_loop(self, s3):
        phi = random_pd(s3, 2, seed=7)
        psi, iterations, trace = reference_iterative(phi, max_iter=200_000, tol=1e-9)
        result = sqrt_iterative(phi, max_iter=200_000, tol=1e-9, record_iterates=True)
        assert len(result.iterates) == iterations
        norms = np.array([l2_norm(x) for x in result.iterates])
        assert np.all(np.abs(norms - trace) <= 1e-14 * trace)
        assert np.linalg.norm(result.iterates[-1].values - psi) <= 1e-15 * np.linalg.norm(psi)

    def test_zero_function(self, z2):
        result = sqrt_iterative(zero_matfun(z2, 2))
        assert l2_norm(result.psi) == 0.0
        assert result.iterations == 0

    @pytest.mark.parametrize("spec, n", [("s4", 3), ("z2xs4", 2), ("s5", 1), ("s5", 2), ("s5", 3),
                                         ("z2xs5", 1), ("z2xs5", 2)])
    def test_block_route_matches_reference_loop(self, spec, n, monkeypatch):
        def no_dense(*args):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(godement.roots, "_dense_steps", no_dense)
        phi = random_pd(parse_group_spec(spec), n, seed=60 + n)
        expected: list[np.ndarray] = []
        psi, iterations, trace = reference_iterative(phi, max_iter=200_000, tol=1e-9, iterates=expected)
        result = sqrt_iterative(phi, max_iter=200_000, tol=1e-9, record_iterates=True)
        assert result.iterations == iterations == len(result.iterates)
        assert rel(result.psi.values, psi) <= 1e-13
        assert np.all(np.abs(np.asarray(result.monotone_trace) - trace) <= 1e-13 * trace)
        assert max(rel(got.values, want) for got, want in zip(result.iterates, expected)) <= 1e-13
        assert np.array_equal(result.iterates[-1].values, result.psi.values)
        assert result.residual <= 1e-9 and conv_residual(result.psi, phi) <= 1e-9 * (1 + 1e-6)

    @pytest.mark.parametrize("spec", ["z6", "d4", "q8", "s3"])
    def test_small_operators_take_dense_route(self, spec, monkeypatch):
        # the cells of the default suite grid: blocks of side <= 8 lose to one gather
        def no_blocks(*args):
            raise AssertionError("block route taken")

        monkeypatch.setattr(godement.roots, "_block_steps", no_blocks)
        for n in (1, 2):
            phi = random_pd(parse_group_spec(spec), n, seed=70 + n)
            assert not on_blocks(phi)
            assert sqrt_iterative(phi, tol=1e-9).residual <= 1e-9
            assert check_theorem_a(phi).passed

    def test_block_root_checked_on_the_kernel(self, monkeypatch):
        # a basis whose inverse maps blocks back wrongly still certifies phi and
        # converges on the blocks; only the convolution kernel sees the error
        grp = build_symmetric(4)  # fresh: the corrupted basis must not reach the shared table
        phi = random_pd(grp, 3, seed=80)
        assert on_blocks(phi)
        basis = fourier_basis(grp)
        inverse = basis.inverse.copy()
        inverse[:, -1] *= 1.0 + 1e-6
        monkeypatch.setitem(grp._fourier_cache, "basis", dataclasses.replace(basis, inverse=inverse))
        with pytest.raises(ConvergenceError, match="convolution kernel"):
            sqrt_iterative(phi, tol=1e-9)
        monkeypatch.setitem(grp._fourier_cache, "basis", basis)
        assert sqrt_iterative(phi, tol=1e-9).residual <= 1e-9


class TestTruncationSequence:
    def test_single_threshold_at_top(self, d3):
        phi = random_pd(d3, 2, seed=12)
        top = float(np.linalg.eigvalsh(conv_matrix(phi).data)[-1])
        (only,) = truncation_sequence(phi, [top])
        assert l2_norm(subtract(only, phi)) <= 1e-10 * l2_norm(phi)

    def test_z2_worked_example(self, z2):
        phi = phi_21(z2)
        cuts = truncation_sequence(phi, [2.0, 3.0])
        assert np.allclose(cuts[0].values.ravel(), [0.5, -0.5], atol=1e-12)
        assert np.allclose(cuts[1].values.ravel(), [2.0, 1.0], atol=1e-12)

    def test_chain_is_monotone_commuting_convergent(self, q8):
        phi = random_pd(q8, 2, seed=13)
        ev = np.linalg.eigvalsh(conv_matrix(phi).data)
        thresholds = sorted(set(np.quantile(ev, [0.25, 0.5, 0.75, 1.0]).tolist()))
        cuts = truncation_sequence(phi, thresholds)
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
        cuts = truncation_sequence(phi, np.quantile(ev, [0.3, 0.6, 0.9, 1.0]).tolist())
        for i in range(len(cuts) - 1):
            for j in range(i + 1, len(cuts)):
                ni, nj = l2_norm(cuts[i]), l2_norm(cuts[j])
                assert nj**2 >= ni**2 - 1e-9 * nj**2
                assert l2_norm(subtract(cuts[j], cuts[i])) ** 2 <= nj**2 - ni**2 + 1e-9 * nj**2

    def test_rejects_unsorted(self, z6):
        with pytest.raises(ValueError, match="ascending"):
            truncation_sequence(random_pd(z6, 1, seed=15), [3.0, 1.0])

    def test_rejects_non_pd(self, z2):
        phi = MatFun(z2, 1, np.array([[[1.0]], [[2.0]]], dtype=complex))
        with pytest.raises(NotPositiveDefiniteError):
            truncation_sequence(phi, [1.0])


class TestPolyApply:
    def test_identity_poly(self, d3):
        phi = random_pd(d3, 2, seed=16)
        out = poly_apply(phi, PolySpec((0.0, 1.0)))
        assert l2_norm(subtract(out, phi)) == 0.0

    def test_square_poly(self, d3):
        phi = random_pd(d3, 2, seed=17)
        out = poly_apply(phi, PolySpec((0.0, 0.0, 1.0)))
        assert l2_norm(subtract(out, convolve(phi, phi))) <= 1e-12 * l2_norm(out)

    def test_z2_square_example(self, z2):
        out = poly_apply(phi_21(z2), PolySpec((0.0, 0.0, 1.0)))
        assert np.allclose(out.values.ravel(), [5.0, 4.0])

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            PolySpec((1.0, 1.0))
        with pytest.raises(ValueError, match="constant"):
            PolySpec(())

    def test_operator_functional_calculus(self, q8):
        phi = random_pd(q8, 2, seed=18)
        coeffs = (0.0, 1.5, -0.25, 0.0, 0.125)
        out = poly_apply(phi, PolySpec(coeffs))
        L = conv_matrix(phi).data
        expected = np.zeros_like(L)
        power = L.copy()
        for c in coeffs[1:]:
            expected += c * power
            power = power @ L
        assert np.linalg.norm(conv_matrix(out).data - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_quadratic_divisible_family_approaches_identity_map(self, d3):
        # q_k(t) = t (1 - (1-t)^k) has zero constant and linear coefficients,
        # stays in [0, t] on [0, 1], and q_k -> t uniformly.
        phi = random_pd(d3, 1, seed=19)
        phi = scale(1.0 / np.linalg.norm(conv_matrix(phi).data, 2), phi)
        import math

        # expanded monomial coefficients are only stable for modest k
        errors = []
        for k in (2, 4, 8, 16):
            coeffs = np.zeros(k + 2)
            for j in range(k + 1):
                coeffs[j + 1] -= math.comb(k, j) * (-1.0) ** j
            coeffs[1] += 1.0
            assert coeffs[0] == 0.0 and abs(coeffs[1]) < 1e-12
            q_phi = poly_apply(phi, PolySpec(tuple(coeffs)))
            assert is_positive_definite(q_phi, tol=1e-8).ok
            assert pd_order_leq(q_phi, phi, tol=1e-8)
            errors.append(l2_norm(subtract(q_phi, phi)))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] <= 0.5 * errors[0]

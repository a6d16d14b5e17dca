import types
from collections import Counter

import numpy as np
import pytest

import godement.fourier
import godement.matfun
import godement.operators
import godement.roots
import godement.theorems
from godement import (
    ConvMatrix,
    EquivarianceError,
    MatFun,
    NotPositiveDefiniteError,
    add,
    build_cyclic,
    build_dihedral,
    build_orthogonal_pd_pair,
    build_quaternion,
    build_symmetric,
    conv_matrix,
    convolve,
    decompose,
    delta_identity,
    direct_product,
    extract_kernel,
    gram_pd_check,
    hermitian_symmetry_residual,
    is_positive_definite,
    l2_norm,
    parse_group_spec,
    random_matfun,
    scale,
    spectral_truncate,
    sqrt_spectral,
    star,
    subtract,
)
from godement.fourier import fourier_basis
from godement.groups import _generating_set, _word_plan
from godement.matfun import _complex_normals
from godement.theorems import SuiteConfig, _trial_c
from conftest import ARRAY_LEVEL_SPECS, phi_21, random_pd, relabeled_s3
from dense_oracle import (brute_commutant_residual, pd_order_leq, projector_leq, right_translation_matrix,
                          scalar_conv_index)


def vector_action(a: MatFun, u: np.ndarray) -> np.ndarray:
    """sum_y a(x y^-1) u(y) on a (|G|, n) vector function, as a double loop."""
    group = a.group
    out = np.zeros_like(u)
    for x in range(group.order):
        for y in range(group.order):
            out[x] += a.values[group.mult[x, group.inv[y]]] @ u[y]
    return out


class TestConvMatrix:
    def test_delta_gives_identity(self, d3):
        assert np.allclose(conv_matrix(delta_identity(d3, 2)).data, np.eye(12))

    def test_z2_example(self, z2):
        L = conv_matrix(phi_21(z2))
        assert np.allclose(L.data, [[2, 1], [1, 2]])

    def test_linearity(self, d4):
        a = random_matfun(d4, 2, seed=1)
        b = random_matfun(d4, 2, seed=2)
        assert np.allclose(
            conv_matrix(add(a, b)).data, conv_matrix(a).data + conv_matrix(b).data
        )

    def test_blocks_depend_only_on_product(self, s3):
        a = random_matfun(s3, 2, seed=3)
        L = conv_matrix(a)
        for x in range(s3.order):
            for y in range(s3.order):
                assert np.array_equal(L.data[2 * x:2 * x + 2, 2 * y:2 * y + 2], a.values[s3.mult[x, s3.inv[y]]])

    def test_homomorphism(self, sample_groups):
        for grp in sample_groups:
            a = random_matfun(grp, 2, seed=4)
            b = random_matfun(grp, 2, seed=5)
            lhs = conv_matrix(convolve(a, b)).data
            rhs = conv_matrix(a).data @ conv_matrix(b).data
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)

    def test_star_is_adjoint(self, sample_groups):
        for grp in sample_groups:
            a = random_matfun(grp, 2, seed=6)
            assert np.allclose(conv_matrix(star(a)).data, conv_matrix(a).data.conj().T)

    def test_apply_agrees_with_direct_summation(self, d3):
        a = random_matfun(d3, 2, seed=7)
        u = _complex_normals(8, (d3.order, 2))[0]
        # flattened with index element * n + component
        via_matrix = conv_matrix(a).data @ u.reshape(-1)
        via_sum = vector_action(a, u).reshape(-1)
        assert np.linalg.norm(via_matrix - via_sum) <= 1e-12 * np.linalg.norm(via_sum)

    @pytest.mark.parametrize("spec, n", [pytest.param(spec, n, id=f"{n}-{spec}") for spec, n in (
        ("s5", 2), ("z2xs5", 2), ("s5", 3), ("z2xs5", 3), ("z2xs5", 1), ("z300", 1),
        ("s3", 2), ("q8", 2), ("s4", 3), ("s5", 1), ("custom", 2))])
    def test_element_blocked_operator_is_the_index_gather_bitwise(self, spec, n):
        # at every size, conv_matrix is gathered a block of whole elements at a time
        # along the table of x y^-1; it is the same array the scalar index gathers,
        # its block column at e is a again, and neither call caches a per-n index
        build = {"s5": lambda: build_symmetric(5), "z2xs5": lambda: direct_product(build_cyclic(2), build_symmetric(5)),
                 "z300": lambda: build_cyclic(300), "s3": lambda: build_symmetric(3), "q8": build_quaternion,
                 "s4": lambda: build_symmetric(4), "custom": relabeled_s3}[spec]
        grp = build()
        a = random_matfun(grp, n, seed=19)
        got = conv_matrix(a).data
        want = a.values.reshape(-1)[scalar_conv_index(grp, n)]
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert extract_kernel(ConvMatrix(grp, n, got)).values.tobytes() == a.values.tobytes()
        assert not any(isinstance(key, int) for key in grp._cache), list(grp._cache)


class TestCertification:
    def test_delta_certificate(self, z6):
        cert = is_positive_definite(delta_identity(z6, 2))
        assert cert.ok and cert.verdict == "positive_definite"
        assert cert.min_eigenvalue == pytest.approx(1.0)
        assert cert.operator_norm == pytest.approx(1.0)

    def test_z2_pd_example(self, z2):
        cert = is_positive_definite(phi_21(z2))
        assert cert.ok
        ev = np.linalg.eigvalsh(conv_matrix(phi_21(z2)).data)
        assert np.allclose(ev, [1.0, 3.0])

    def test_z2_not_pd_example(self, z2):
        phi = MatFun(z2, 1, np.array([[[1.0]], [[2.0]]], dtype=complex))
        cert = is_positive_definite(phi)
        assert cert.verdict == "not_positive_definite"
        assert np.allclose(np.linalg.eigvalsh(conv_matrix(phi).data), [-1.0, 3.0])

    def test_not_hermitian_verdict(self, z2):
        vals = np.zeros((2, 2, 2), dtype=complex)
        vals[0] = np.array([[1.0, 1.0], [0.0, 1.0]])  # non-Hermitian at identity
        cert = is_positive_definite(MatFun(z2, 2, vals))
        assert cert.verdict == "not_hermitian"
        assert not cert.ok

    def test_zero_function_is_pd(self, z2):
        cert = is_positive_definite(MatFun(z2, 1, np.zeros((2, 1, 1), dtype=complex)))
        assert cert.ok


class TestGramCheck:
    def test_delta(self, d3):
        assert gram_pd_check(delta_identity(d3, 2))

    def test_z2_not_pd(self, z2):
        assert not gram_pd_check(MatFun(z2, 1, np.array([[[1.0]], [[2.0]]], dtype=complex)))

    def test_agrees_with_operator_certificate(self, z6, d3):
        # 200 random samples: PD constructions, raw noise, symmetrized noise
        count = 0
        for grp in (z6, d3):
            for n in (1, 2):
                for seed in range(25):
                    phi = random_pd(grp, n, seed=seed)
                    noise = random_matfun(grp, n, seed=1000 + seed)
                    sym = scale(0.5, add(noise, star(noise)))
                    for f in (phi, noise, sym, add(phi, scale(0.05, sym))):
                        count += 1
                        assert gram_pd_check(f) == is_positive_definite(f).ok
        assert count >= 200

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", ARRAY_LEVEL_SPECS)
    def test_gram_matrix_is_the_operator_relabeled_by_inversion(self, spec, n):
        # block (i^-1, j^-1) of the convolution matrix is a(i^-1 j), so the
        # pointwise Gram matrix is a permutation similarity of it, bit for bit
        g = parse_group_spec(spec)
        a = random_matfun(g, n, seed=7)
        gram = np.zeros((g.order * n, g.order * n), dtype=complex)
        for i in range(g.order):
            for j in range(g.order):
                gram[i * n:(i + 1) * n, j * n:(j + 1) * n] = a.values[g.mult[g.inv[i], j]]
        p = (g.inv[:, None] * n + np.arange(n)).reshape(-1)
        assert np.array_equal(gram, conv_matrix(a).data[np.ix_(p, p)])


class TestHermitianSymmetry:
    def test_pd_outputs_are_symmetric(self, sample_groups):
        for grp in sample_groups:
            assert hermitian_symmetry_residual(random_pd(grp, 2, seed=9)) <= 1e-12

    def test_star_symmetrization(self, d4):
        a = random_matfun(d4, 2, seed=10)
        sym = scale(0.5, add(a, star(a)))
        assert hermitian_symmetry_residual(sym) <= 1e-12

    def test_nonsymmetric_delta_value(self, z2):
        mat = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        vals = np.zeros((2, 2, 2), dtype=complex)
        vals[0] = mat
        residual = hermitian_symmetry_residual(MatFun(z2, 2, vals))
        assert residual == pytest.approx(np.linalg.norm(mat - mat.conj().T))


class TestRightTranslation:
    def test_identity_element_exact(self, s3):
        L = conv_matrix(random_matfun(s3, 2, seed=11)).data
        r = right_translation_matrix(s3, 2, s3.identity)
        assert np.array_equal(r, np.eye(12))
        assert np.linalg.norm(r @ L @ r.conj().T - L) == 0.0

    def test_unitary_and_inverse(self, d4):
        for x in range(d4.order):
            r = right_translation_matrix(d4, 2, x)
            rinv = right_translation_matrix(d4, 2, int(d4.inv[x]))
            assert np.allclose(r @ r.conj().T, np.eye(16))
            assert np.allclose(r @ rinv, np.eye(16))

    def test_right_action_homomorphism(self, s3):
        for x in (1, 3, 5):
            for y in (2, 4):
                lhs = right_translation_matrix(s3, 1, x) @ right_translation_matrix(s3, 1, y)
                rhs = right_translation_matrix(s3, 1, int(s3.mult[x, y]))
                assert np.array_equal(lhs, rhs)

    def test_equivariance_for_every_element(self, s3):
        a = random_matfun(s3, 2, seed=12)
        assert brute_commutant_residual(conv_matrix(a)) <= 1e-12

    def test_matrix_conjugation_agrees_with_fast_path(self, d3):
        a = random_matfun(d3, 2, seed=13)
        L = conv_matrix(a).data
        x = 4
        r = right_translation_matrix(d3, 2, x)
        rinv = right_translation_matrix(d3, 2, int(d3.inv[x]))
        assert np.allclose(r @ L @ rinv, L)

    def test_out_of_range(self, z2):
        with pytest.raises(ValueError):
            right_translation_matrix(z2, 1, 5)


class TestExtractKernel:
    def test_identity_gives_delta(self, d3):
        op = ConvMatrix(d3, 2, np.eye(12, dtype=complex))
        out = extract_kernel(op)
        assert l2_norm(subtract(out, delta_identity(d3, 2))) == 0.0

    def test_round_trip(self, d3):
        a = random_matfun(d3, 2, seed=14)
        out = extract_kernel(conv_matrix(a))
        assert np.array_equal(out.values, a.values)

    def test_sqrt_kernel_closed_form(self, z2):
        # sqrt of [[2,1],[1,2]] via the 2x2 circulant eigensystem:
        # eigenpairs (3, (1,1)/sqrt2), (1, (1,-1)/sqrt2)
        s3_ = np.sqrt(3.0)
        root = s3_ * np.full((2, 2), 0.5) + 1.0 * np.array([[0.5, -0.5], [-0.5, 0.5]])
        out = extract_kernel(ConvMatrix(z2, 1, root.astype(complex)))
        assert np.allclose(out.values.ravel(), [(s3_ + 1) / 2, (s3_ - 1) / 2], atol=1e-12)

    def test_non_equivariant_rejected(self, z2):
        bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)  # diag, not circulant
        with pytest.raises(EquivarianceError):
            extract_kernel(ConvMatrix(z2, 1, bad))

    def test_verdict_is_scale_invariant(self, s3):
        # a random 12 x 12 matrix does not commute with the right translations;
        # at 1e200 the squares of its entries overflow unless they are scaled first
        bad = np.random.default_rng(5).standard_normal((12, 12)).astype(complex)
        good = conv_matrix(random_matfun(s3, 2, seed=5)).data
        for c in (1.0, 1e-12, 1e200):
            with pytest.raises(EquivarianceError):
                extract_kernel(ConvMatrix(s3, 2, c * bad))
            assert np.array_equal(extract_kernel(ConvMatrix(s3, 2, c * good)).values, (c * good)[:, :2].reshape(6, 2, 2))

    def test_commutant_residual_zero_for_conv_matrices(self, q8):
        a = random_matfun(q8, 2, seed=15)
        assert brute_commutant_residual(conv_matrix(a)) == 0.0

    @pytest.mark.parametrize("spec", ["s3", "q8", "z2xd6"])
    @pytest.mark.parametrize("c", [1.0, 1e-12])
    def test_single_moved_entry_rejected(self, spec, c):
        # one entry moved by 1e-6 ||op||_F, inside the block column at e (which
        # moves the kernel) or outside it, is 100 times the tolerance
        grp = parse_group_spec(spec)
        size, cols = 2 * grp.order, slice(2 * grp.identity, 2 * grp.identity + 2)
        good = c * conv_matrix(random_matfun(grp, 2, seed=17)).data
        for entry in ((size - 1, cols.start), (0, cols.stop % size)):
            bad = good.copy()
            bad[entry] += 1e-6 * np.linalg.norm(good)
            with pytest.raises(EquivarianceError):
                extract_kernel(ConvMatrix(grp, 2, bad))
        assert np.array_equal(extract_kernel(ConvMatrix(grp, 2, good)).values, good[:, cols].reshape(grp.order, 2, 2))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_entry_that_is_not_finite_rejected(self, s3, value):
        # the entry lies outside the block column at e, so the kernel is finite
        data = conv_matrix(random_matfun(s3, 2, seed=18)).data.copy()
        data[0, 11] = value
        with pytest.raises(EquivarianceError):
            extract_kernel(ConvMatrix(s3, 2, data))


class TestSpectralTruncate:
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_threshold_that_is_not_finite(self, d3, t):
        with pytest.raises(ValueError, match="threshold must be finite"):
            spectral_truncate(random_pd(d3, 2, seed=16), t)

    def test_above_spectrum_is_identity_map(self, d3):
        phi = random_pd(d3, 2, seed=16)
        top = float(np.linalg.eigvalsh(conv_matrix(phi).data)[-1])
        assert l2_norm(subtract(spectral_truncate(phi, top), phi)) <= 1e-10 * l2_norm(phi)

    def test_below_spectrum_is_zero(self, z6):
        phi = add(random_pd(z6, 1, seed=17), scale(0.5, delta_identity(z6, 1)))
        bottom = float(np.linalg.eigvalsh(conv_matrix(phi).data)[0])
        assert bottom > 0
        cut = spectral_truncate(phi, bottom / 2)
        assert l2_norm(cut) <= 1e-10 * l2_norm(phi)

    def test_z2_worked_example(self, z2):
        phi = phi_21(z2)
        cut = spectral_truncate(phi, 2.0)
        assert np.allclose(cut.values.ravel(), [0.5, -0.5], atol=1e-12)
        assert np.allclose(conv_matrix(cut).data, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_claim_projector_times_operator(self, sample_groups):
        for grp in sample_groups:
            phi = random_pd(grp, 2, seed=18)
            L = conv_matrix(phi)
            sd = decompose(L)
            norm = np.linalg.norm(L.data, 2)
            for t in np.quantile(sd.eigenvalues, [0.2, 0.5, 0.8]):
                cut = spectral_truncate(phi, float(t))
                target = projector_leq(sd, float(t)) @ L.data
                assert np.linalg.norm(conv_matrix(cut).data - target) <= 1e-10 * norm

    def test_monotone_in_threshold_and_below_input(self, d4):
        phi = random_pd(d4, 2, seed=19)
        ev = np.linalg.eigvalsh(conv_matrix(phi).data)
        cuts = [spectral_truncate(phi, t) for t in np.quantile(ev, [0.3, 0.6, 1.0])]
        assert pd_order_leq(cuts[0], cuts[1])
        assert pd_order_leq(cuts[1], cuts[2])
        for cut in cuts:
            assert pd_order_leq(cut, phi)
            assert is_positive_definite(cut).ok

    def test_requires_pd(self, z2):
        phi = MatFun(z2, 1, np.array([[[1.0]], [[2.0]]], dtype=complex))
        with pytest.raises(NotPositiveDefiniteError):
            spectral_truncate(phi, 1.0)


class TestPdOrder:
    """The dense order test of the monotone-cut tests (dense_oracle.pd_order_leq)."""

    def test_reflexive(self, z6):
        phi = random_pd(z6, 2, seed=20)
        assert pd_order_leq(phi, phi)

    def test_z2_example(self, z2):
        phi = phi_21(z2)
        phi_prime = MatFun(z2, 1, np.array([[[3.0]], [[1.0]]], dtype=complex))
        assert pd_order_leq(phi, phi_prime)
        diff = subtract(phi_prime, phi)
        assert np.allclose(np.linalg.eigvalsh(conv_matrix(diff).data), [1.0, 1.0])

    def test_strict_failure(self, z2):
        phi = phi_21(z2)
        assert not pd_order_leq(phi, scale(0.5, phi))


class TestSpectralDecomposition:
    def test_invariants(self, sample_groups):
        for grp in sample_groups:
            phi = random_pd(grp, 2, seed=21)
            L = conv_matrix(phi)
            sd = decompose(L)
            size = grp.order * 2
            u = sd.eigenvectors
            assert np.linalg.norm(u.conj().T @ u - np.eye(size)) <= 1e-10 * size
            assert list(sd.eigenvalues) == sorted(sd.eigenvalues)
            recon = (u * sd.eigenvalues) @ u.conj().T
            assert np.linalg.norm(recon - L.data) <= 1e-10 * np.linalg.norm(L.data)

    def test_rejects_non_hermitian(self, z2):
        # a non-Hermitian operator decomposes as its Hermitian part, and the
        # one verdict rejects it
        phi = MatFun(z2, 1, np.array([[[1.0]], [[1j]]]))
        sd = decompose(conv_matrix(phi))
        assert sd.certificate().verdict == "not_hermitian"
        data = conv_matrix(phi).data
        assert np.array_equal(sd.hermitian, (data + data.conj().T) / 2)

    def test_hermitian_check_is_scale_invariant(self, s3):
        a = random_matfun(s3, 2, seed=5)  # its convolution matrix is far from Hermitian
        phi = random_pd(s3, 2, seed=5)
        for c in (1.0, 1e-12):
            assert decompose(conv_matrix(scale(c, a))).certificate().verdict == "not_hermitian"
            assert decompose(conv_matrix(scale(c, phi))).certificate().ok

    def test_projector_edges(self, z2):
        sd = decompose(conv_matrix(phi_21(z2)))
        assert np.allclose(projector_leq(sd, 3.0), np.eye(2))
        assert np.allclose(projector_leq(sd, 0.5), np.zeros((2, 2)))


class TestOperatorNorm:
    def test_matches_top_eigenvalue_for_pd(self, d3):
        phi = random_pd(d3, 2, seed=22)
        top = float(np.linalg.eigvalsh(conv_matrix(phi).data)[-1])
        assert np.linalg.norm(conv_matrix(phi).data, 2) == pytest.approx(top)

    def test_moderation_bound_on_action(self, d3):
        # finite operator norm bounds the convolution action in L2
        phi = random_pd(d3, 2, seed=23)
        bound = np.linalg.norm(conv_matrix(phi).data, 2)
        for seed in range(5):
            u = _complex_normals(seed, (d3.order, 2))[0]
            out = vector_action(phi, u)
            assert np.linalg.norm(out) <= bound * np.linalg.norm(u) * (1 + 1e-12)

    def test_entrywise_moderation_is_equivalent(self, d3):
        # each scalar entry acts boundedly iff the matrix function does
        phi = random_pd(d3, 2, seed=24)
        for i in range(2):
            for j in range(2):
                entry = MatFun(d3, 1, phi.values[:, i:i + 1, j:j + 1])
                assert np.isfinite(np.linalg.norm(conv_matrix(entry).data, 2))


def old_verdict(data: np.ndarray, tol: float = 1e-9) -> str:
    """The certificate as two SVD 2-norms and eigvalsh computed it."""
    norm = np.linalg.norm(data, 2)
    gap = np.linalg.norm(data - data.conj().T, 2)
    if gap > tol * norm:
        return "not_hermitian"
    min_eig = np.linalg.eigvalsh((data + data.conj().T) / 2.0)[0]
    return "positive_definite" if min_eig >= -tol * norm else "not_positive_definite"


def verdict_inputs(groups):
    """PD, Hermitian indefinite and non-Hermitian functions on each group."""
    for grp in groups:
        for n in (1, 2):
            for seed in range(3):
                a = random_matfun(grp, n, seed=100 + seed)
                yield random_pd(grp, n, seed=200 + seed)
                yield add(a, star(a))
                yield a


class TestSinglePass:
    """Every MatFun spectral call solves small Fourier blocks, batched per
    block size, after one basis eigh per group table."""

    class CountingLinalg:
        """np.linalg recording (function, matrix side) per call; a 2-norm counts as an svd."""

        def __init__(self):
            self.calls = []

        def __getattr__(self, name):
            fn = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                order = kwargs.get("ord", args[1] if len(args) > 1 else None)
                if name == "norm" and order in (2, -2, "nuc"):
                    self.calls.append(("svd", None))
                elif name in ("eigh", "eigvalsh", "svd", "eig", "eigvals"):
                    self.calls.append((name, np.shape(args[0])[-1]))
                return fn(*args, **kwargs)

            return counted

    @pytest.fixture
    def calls(self, monkeypatch):
        linalg = self.CountingLinalg()
        proxy = types.SimpleNamespace(**{k: getattr(np, k) for k in dir(np) if not k.startswith("__")})
        proxy.linalg = linalg
        for module in (godement.operators, godement.fourier, godement.roots, godement.theorems):
            monkeypatch.setattr(module, "np", proxy)
        return linalg.calls

    @staticmethod
    def solves(calls, name):
        return [side for fn, side in calls if fn == name]

    def test_sqrt_spectral_batched_block_eigh(self, calls, s3):
        phi = random_pd(s3, 2, seed=30)
        fourier_basis(s3)
        calls.clear()
        sqrt_spectral(phi)
        # S3 has invariant subspaces of dimensions 1 and 2: blocks of side 2 and 4
        assert sorted(self.solves(calls, "eigh")) == [2, 4]
        assert self.solves(calls, "eigvalsh") == [] and self.solves(calls, "svd") == []

    def test_truncations_one_spectrum_each(self, calls, d4):
        phi = random_pd(d4, 2, seed=31)
        fourier_basis(d4)
        calls.clear()
        for t in (1.0, 0.5, 2.0):
            spectral_truncate(phi, t)
        sizes = len(fourier_basis(d4).classes)
        assert len(self.solves(calls, "eigh")) == 3 * sizes
        assert self.solves(calls, "eigvalsh") == [] and self.solves(calls, "svd") == []

    def test_certificate_batched_block_eigvalsh(self, calls, q8):
        phi = random_pd(q8, 2, seed=32)
        fourier_basis(q8)
        calls.clear()
        assert is_positive_definite(phi).ok
        # Q8: four characters and one real 4-dimensional subspace (quaternionic type)
        assert sorted(self.solves(calls, "eigvalsh")) == [2, 8]
        assert self.solves(calls, "eigh") == [] and self.solves(calls, "svd") == []

    def test_no_operator_sized_eigensolve(self, calls):
        grp = parse_group_spec("s4")
        phi = random_pd(grp, 3, seed=34)
        fourier_basis(grp)
        calls.clear()
        ev = is_positive_definite(phi)
        sqrt_spectral(phi)
        for t in (ev.operator_norm / 4, ev.operator_norm / 2):
            spectral_truncate(phi, t)
        build_orthogonal_pd_pair(phi, ev.operator_norm / 2)
        is_positive_definite(subtract(phi, scale(0.5, phi)))
        _trial_c(grp, 3, 35, SuiteConfig())
        sides = [side for fn, side in calls if fn in ("eigh", "eigvalsh")]
        # the largest S4 subspace has dimension 3: blocks of side 9, never 72
        assert max(sides) == 3 * 3 < grp.order * 3
        assert self.solves(calls, "svd") == []

    def test_basis_one_eigh_per_table_cached(self, calls):
        # fresh tables: parse_group_spec shares one table per spec
        first, second = build_dihedral(6), build_dihedral(6)
        phi = random_pd(first, 2, seed=36)
        is_positive_definite(phi)
        sides = self.solves(calls, "eigh")
        basis = fourier_basis(first)
        # one eigh of side |G| splits R^G into isotypic components, one per
        # type here, and one eigh per component splits it into copies
        assert sides[0] == first.order and sum(sides[1:]) == first.order
        assert len(sides) - 1 == sum(len(c.reps) for c in basis.classes)
        calls.clear()
        is_positive_definite(phi)
        assert self.solves(calls, "eigh") == []
        sqrt_spectral(phi)
        assert len(self.solves(calls, "eigh")) == len(basis.classes)  # the blocks, one batch per size
        assert fourier_basis(first) is basis
        # the cache lives on the table instance, not on its spec string
        calls.clear()
        is_positive_definite(MatFun(second, 2, phi.values))
        assert self.solves(calls, "eigh") == sides

    def test_gram_and_order_use_no_svd(self, calls, z6):
        phi = random_pd(z6, 2, seed=33)
        assert gram_pd_check(phi)
        assert is_positive_definite(subtract(phi, scale(0.5, phi))).ok
        assert self.solves(calls, "svd") == []


class TestVerdict:
    def test_matches_svd_formula(self, sample_groups):
        seen = Counter()
        for phi in verdict_inputs(sample_groups):
            verdict = is_positive_definite(phi).verdict
            assert verdict == old_verdict(conv_matrix(phi).data)
            assert gram_pd_check(phi) == (verdict == "positive_definite")
            seen[verdict] += 1
        assert set(seen) == {"positive_definite", "not_positive_definite", "not_hermitian"}

    def test_decomposition_certificate_is_the_certificate(self, sample_groups):
        for phi in verdict_inputs(sample_groups):
            cert = is_positive_definite(phi)
            from_sd = decompose(conv_matrix(phi)).certificate()
            assert from_sd.verdict == cert.verdict
            assert from_sd.operator_norm == pytest.approx(cert.operator_norm, rel=1e-12)
            # sqrt(|G|) ||a - a*||_F here, ||C - C^H||_F there: equal up to summation order
            assert from_sd.hermitian_residual == pytest.approx(cert.hermitian_residual, rel=1e-12)

    def test_hermitian_gap_is_frobenius(self, z2):
        vals = np.zeros((2, 2, 2), dtype=complex)
        vals[0] = np.array([[1.0, 1.0], [0.0, 1.0]])
        data = conv_matrix(MatFun(z2, 2, vals)).data
        gap = is_positive_definite(MatFun(z2, 2, vals)).hermitian_residual
        assert gap == pytest.approx(np.linalg.norm(data - data.conj().T))
        assert gap >= np.linalg.norm(data - data.conj().T, 2)

    def test_scale_invariant(self, sample_groups):
        for phi in verdict_inputs(sample_groups[::2]):
            verdict = is_positive_definite(phi).verdict
            for c in (1e-150, 1e-100, 1.0, 1e100, 1e200):
                assert is_positive_definite(scale(c, phi)).verdict == verdict, c


class TestCommutantOnGenerators:
    SPECS = ["z6", "d4", "q8", "s3", "s4", "z2xd6", "z24"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_bound_dominates_all_elements(self, spec):
        # extract_kernel's residual ||op - C||_F, with C the convolution matrix of
        # op's block column at e, bounds the commutant residual of every element
        # by twice itself, since C commutes with every right translation
        grp = parse_group_spec(spec)
        rg = np.random.default_rng(34)
        size = grp.order * 2
        cols = slice(2 * grp.identity, 2 * grp.identity + 2)
        for data in (rg.standard_normal((size, size)) + 1j * rg.standard_normal((size, size)),
                     conv_matrix(random_matfun(grp, 2, seed=35)).data + 1e-6 * rg.standard_normal((size, size))):
            op = ConvMatrix(grp, 2, data)
            rebuilt = conv_matrix(MatFun(grp, 2, data[:, cols].reshape(grp.order, 2, 2))).data
            assert brute_commutant_residual(op) <= 2.0 * np.linalg.norm(data - rebuilt) * (1 + 1e-12)
            with pytest.raises(EquivarianceError):
                extract_kernel(op)

    @pytest.mark.parametrize("spec", ["d4", "q8", "s3", "s4", "z2xd6"])
    def test_average_over_all_but_last_generator_rejected(self, spec):
        grp = parse_group_spec(spec)
        gens, _ = _generating_set(grp)
        levels = _word_plan(grp, np.concatenate([gens[:-1], grp.inv[gens[:-1]]]))
        members = sorted([grp.identity, *(int(h) for fresh, _, _ in levels for h in fresh)])
        rg = np.random.default_rng(36)
        size = grp.order
        data = rg.standard_normal((size, size)) + 1j * rg.standard_normal((size, size))
        translates = [right_translation_matrix(grp, 1, h) for h in members]
        averaged = sum(r @ data @ r.conj().T for r in translates) / len(translates)
        # commutes with every generator but the last, so only the last one catches it
        for x in gens[:-1]:
            r = right_translation_matrix(grp, 1, int(x))
            assert np.linalg.norm(r @ averaged @ r.conj().T - averaged) <= 1e-12 * np.linalg.norm(averaged)
        with pytest.raises(EquivarianceError):
            extract_kernel(ConvMatrix(grp, 1, averaged))

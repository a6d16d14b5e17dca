"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from godement import (
    MatFun,
    add,
    build_cyclic,
    build_dihedral,
    build_orthogonal_pd_pair,
    build_quaternion,
    build_symmetric,
    conv_matrix,
    convolve,
    decompose,
    gram_pd_check,
    hermitian_symmetry_residual,
    inner,
    is_positive_definite,
    l2_norm,
    make_pd,
    matrix_coeff_fun,
    pd_order_leq,
    random_matfun,
    regular_rep,
    scale,
    spectral_truncate,
    sqrt_iterative,
    sqrt_spectral,
    star,
    subtract,
    tensor_product,
    translation_commutant_residual,
)
from godement.reps import check_tensor_nonneg
from godement.theorems import derive_seed

ACCEPTANCE_SEED = 20240831


def corpus_groups():
    return [
        build_cyclic(2),
        build_cyclic(6),
        build_dihedral(2),
        build_dihedral(3),
        build_dihedral(4),
        build_quaternion(),
        build_symmetric(3),
        build_symmetric(4),
    ]


@pytest.fixture(scope="module")
def corpus():
    """>= 500 random PD functions over eight groups, n in {1, 2, 3}."""
    out = []
    for grp in corpus_groups():
        for n in (1, 2, 3):
            for trial in range(21):
                seed = derive_seed(ACCEPTANCE_SEED, "corpus", grp.name, n, trial)
                out.append(make_pd(random_matfun(grp, n, seed)))
    assert len(out) >= 500
    return out


_spectral_cache: dict[int, object] = {}


def spectral_root(phi: MatFun):
    key = id(phi)
    if key not in _spectral_cache:
        _spectral_cache[key] = sqrt_spectral(phi, tol=1e-8)
    return _spectral_cache[key]


def test_criterion_1_theorem_a_spectral(corpus):
    start = time.time()
    for phi in corpus:
        result = spectral_root(phi)
        assert result.residual <= 1e-8
        assert is_positive_definite(result.psi).ok
        assert hermitian_symmetry_residual(result.psi) <= 1e-10 * max(l2_norm(result.psi), 1.0)
    elapsed = time.time() - start
    assert elapsed <= 120.0
    print(f"\nACCEPTANCE 1 PASS: spectral square roots on {len(corpus)} PD functions, "
          f"residual <= 1e-8, psi PD and star-fixed, {elapsed:.1f}s")


def test_criterion_2_method_agreement(corpus):
    worst = 0.0
    for phi in corpus:
        spectral = spectral_root(phi)
        iterative = sqrt_iterative(phi, tol=1e-9)
        agreement = l2_norm(subtract(spectral.psi, iterative.psi))
        assert agreement <= 1e-6 * l2_norm(phi)
        worst = max(worst, agreement / l2_norm(phi))
        trace = np.asarray(iterative.monotone_trace)
        if trace.size:
            assert np.all(np.diff(trace) >= -1e-12 * trace.max())
            bound = float(np.trace(phi.values[phi.group.identity]).real)
            assert np.all(trace**2 <= bound + 1e-8)
    print(f"\nACCEPTANCE 2 PASS: iterative matches spectral on {len(corpus)} inputs, "
          f"worst relative gap {worst:.2e} <= 1e-6; traces monotone and bounded")


def test_criterion_3_theorem_b():
    groups = corpus_groups()
    trials = 0
    for k in range(1000):
        grp = groups[k % len(groups)]
        n = 1 + (k // len(groups)) % 3
        phi = make_pd(random_matfun(grp, n, derive_seed(ACCEPTANCE_SEED, "b-phi", k)))
        psi = make_pd(random_matfun(grp, n, derive_seed(ACCEPTANCE_SEED, "b-psi", k)))
        value = inner(phi, psi)
        bound = 1e-10 * l2_norm(phi) * l2_norm(psi)
        assert value.real >= -bound
        assert abs(value.imag) <= bound
        trials += 1
    assert trials == 1000
    print("\nACCEPTANCE 3 PASS: 1000 random PD pairs have real nonnegative pairing "
          "within 1e-10 scale")


def _orthogonal_pair(grp, n, seed):
    theta = make_pd(random_matfun(grp, n, seed))
    ev = np.linalg.eigvalsh(conv_matrix(theta).data)
    return theta, build_orthogonal_pd_pair(theta, float((ev[0] + ev[-1]) / 2))


def test_criterion_4_theorem_c():
    groups = corpus_groups()

    # (a) constructed orthogonal pairs: both sides vanish
    for k in range(200):
        grp = groups[k % len(groups)]
        n = 1 + k % 2
        _, (low, high) = _orthogonal_pair(grp, n, derive_seed(ACCEPTANCE_SEED, "c-orth", k))
        bound = 1e-10 * l2_norm(low) * l2_norm(high)
        assert abs(inner(low, high)) <= bound
        assert l2_norm(convolve(low, high)) <= bound

    # (b) independent random pairs: both sides strictly positive
    for k in range(200):
        grp = groups[k % len(groups)]
        n = 1 + k % 2
        phi = make_pd(random_matfun(grp, n, derive_seed(ACCEPTANCE_SEED, "c-phi", k)))
        psi = make_pd(random_matfun(grp, n, derive_seed(ACCEPTANCE_SEED, "c-psi", k)))
        floor = 1e-6 * l2_norm(phi) * l2_norm(psi)
        assert abs(inner(phi, psi)) > floor
        assert l2_norm(convolve(phi, psi)) > floor

    # (c) perturbed orthogonal pairs: convolution norm is O(eps)
    grp = build_dihedral(3)
    _, (low, high) = _orthogonal_pair(grp, 2, derive_seed(ACCEPTANCE_SEED, "c-eps"))
    noise1 = make_pd(random_matfun(grp, 2, derive_seed(ACCEPTANCE_SEED, "c-n1")))
    noise2 = make_pd(random_matfun(grp, 2, derive_seed(ACCEPTANCE_SEED, "c-n2")))
    slope = (
        2 * np.sqrt(grp.order)
        * (l2_norm(noise1) * l2_norm(high) + l2_norm(low) * l2_norm(noise2)
           + l2_norm(noise1) * l2_norm(noise2))
    )
    previous = np.inf
    for eps in (1e-2, 1e-4, 1e-6):
        value = l2_norm(convolve(add(low, scale(eps, noise1)), add(high, scale(eps, noise2))))
        assert value <= slope * eps + 1e-10
        assert value < previous
        previous = value
    print("\nACCEPTANCE 4 PASS: 200 orthogonal pairs vanish at 1e-10 scale, 200 random "
          "pairs exceed 1e-6 scale, perturbed pairs scale as O(eps)")


def test_criterion_5_truncation_machinery():
    groups = corpus_groups()
    for k in range(100):
        grp = groups[k % len(groups)]
        n = 1 + k % 2
        phi = make_pd(random_matfun(grp, n, derive_seed(ACCEPTANCE_SEED, "trunc", k)))
        op = conv_matrix(phi)
        sd = decompose(op)
        norm = float(np.linalg.norm(op.data, 2))
        thresholds = [float(t) for t in np.quantile(sd.eigenvalues, [0.15, 0.35, 0.55, 0.75, 1.0])]
        cuts = [spectral_truncate(phi, t) for t in thresholds]
        for t, cut in zip(thresholds, cuts):
            target = sd.projector_leq(t) @ op.data
            assert np.linalg.norm(conv_matrix(cut).data - target) <= 1e-10 * norm
        for i in range(len(cuts) - 1):
            assert pd_order_leq(cuts[i], cuts[i + 1])
        for cut in cuts:
            assert pd_order_leq(cut, phi)
        # right translations commute with the operator, every group element
        assert translation_commutant_residual(op) <= 1e-12 * max(norm, 1.0)
    print("\nACCEPTANCE 5 PASS: 100 PD functions x 5 thresholds satisfy the projector "
          "identity at 1e-10, chains are PD-monotone, translations commute at 1e-12")


def test_criterion_6_algebra_identities():
    groups = corpus_groups()

    def draw(tag, k, n):
        grp = groups[k % len(groups)]
        return random_matfun(grp, n, derive_seed(ACCEPTANCE_SEED, tag, k))

    for k in range(200):
        n = 1 + k % 2
        a, b, c = draw("alg-a", k, n), draw("alg-b", k, n), draw("alg-c", k, n)

        # convolution operator is multiplicative
        lhs = conv_matrix(convolve(a, b)).data
        rhs = conv_matrix(a).data @ conv_matrix(b).data
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)

        # star goes to the conjugate transpose
        assert np.linalg.norm(
            conv_matrix(star(a)).data - conv_matrix(a).data.conj().T
        ) <= 1e-12 * max(np.linalg.norm(conv_matrix(a).data), 1.0)

        # associativity
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert l2_norm(subtract(left, right)) <= 1e-10 * max(l2_norm(left), 1.0)

        # pairing equals the trace of the convolution at the identity (PD pair)
        phi, psi = make_pd(a), make_pd(b)
        trace = complex(np.trace(convolve(phi, psi).values[phi.group.identity]))
        assert abs(inner(phi, psi) - trace) <= 1e-10 * l2_norm(phi) * l2_norm(psi)

        # the two positivity definitions agree
        sym = scale(0.5, add(c, star(c)))
        for f in (phi, c, sym):
            assert gram_pd_check(f) == is_positive_definite(f).ok
    print("\nACCEPTANCE 6 PASS: operator homomorphism, star adjoint, trace identity, "
          "associativity, and dual PD verdicts agree on 200 random draws each")


def test_criterion_7_worked_closed_form():
    z2 = build_cyclic(2)
    phi = MatFun(z2, 1, np.array([[[2.0]], [[1.0]]], dtype=complex))
    sqrt3 = np.sqrt(3.0)

    op = conv_matrix(phi)
    assert np.allclose(op.data, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(op.data), [1.0, 3.0], atol=1e-12)

    psi = sqrt_spectral(phi).psi
    assert np.allclose(psi.values.ravel(), [(sqrt3 + 1) / 2, (sqrt3 - 1) / 2], atol=1e-12)
    assert l2_norm(subtract(convolve(psi, psi), phi)) <= 1e-12

    cut = spectral_truncate(phi, 2.0)
    assert np.allclose(cut.values.ravel(), [0.5, -0.5], atol=1e-12)
    assert np.allclose(conv_matrix(cut).data, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    low, high = build_orthogonal_pd_pair(phi, 2.0)
    assert np.allclose(low.values.ravel(), [0.5, -0.5], atol=1e-12)
    assert np.allclose(high.values.ravel(), [1.5, 1.5], atol=1e-12)
    assert abs(inner(low, high)) <= 1e-12
    assert l2_norm(convolve(low, high)) <= 1e-12
    print("\nACCEPTANCE 7 PASS: two-element worked pipeline reproduced to 1e-12")


def test_criterion_8_tensor_nonnegativity():
    def vectors(dim, seed, count=3):
        rg = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        return (rg.standard_normal((count, dim)) + 1j * rg.standard_normal((count, dim))) / np.sqrt(2)

    reps = []
    for grp in (build_dihedral(3), build_symmetric(3)):
        reg = regular_rep(grp)
        squared = tensor_product(reg, reg)
        reps.extend([(grp.name, reg, reg), (grp.name, reg, squared), (grp.name, squared, reg)])

    trials = 0
    for k in range(34):
        for label, p1, p2 in reps:
            u1 = vectors(p1.dim, derive_seed(ACCEPTANCE_SEED, "t7-u1", label, p1.dim, k))
            u2 = vectors(p2.dim, derive_seed(ACCEPTANCE_SEED, "t7-u2", label, p2.dim, k))
            report = check_tensor_nonneg(p1, u1, p2, u2)
            assert report.passed, report.details
            direct = report.details["direct_sum"]
            assert direct[0] >= -1e-10
            via = report.details["via_pairing"]
            scale_ = max(
                l2_norm(matrix_coeff_fun(p1, u1)) * l2_norm(matrix_coeff_fun(p2, u2)), 1.0
            )
            assert abs(complex(*direct) - complex(*via)) <= 1e-10 * scale_
            trials += 1
    assert trials >= 200
    print(f"\nACCEPTANCE 8 PASS: {trials} vector tuples over regular and tensor "
          "representations give nonnegative sums agreeing with the pairing route at 1e-10")

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import godement.reps
from godement import (
    UnitaryRep,
    build_cyclic,
    check_tensor_nonneg,
    conjugate,
    convolve,
    delta_identity,
    gram_pd_check,
    hermitian_symmetry_residual,
    homomorphism_residual,
    inner,
    is_positive_definite,
    l2_norm,
    matrix_coeff_fun,
    parse_group_spec,
    regular_rep,
    subtract,
    tensor_product,
    unitarity_residual,
)


def trivial_rep(group) -> UnitaryRep:
    return UnitaryRep(group, 1, np.ones((group.order, 1, 1)))


def random_vectors(count: int, dim: int, seed: int) -> np.ndarray:
    rg = np.random.default_rng(seed)
    return (rg.standard_normal((count, dim)) + 1j * rg.standard_normal((count, dim))) / np.sqrt(2)


class TestRegularRep:
    def test_z2_matrices(self, z2):
        reg = regular_rep(z2)
        assert np.allclose(reg.matrices[0], np.eye(2))
        assert np.allclose(reg.matrices[1], [[0, 1], [1, 0]])

    def test_character(self, d3):
        reg = regular_rep(d3)
        char = np.trace(reg.matrices, axis1=1, axis2=2)
        assert char[d3.identity] == pytest.approx(6)
        assert np.allclose(char[1:], 0.0)

    def test_invariants_s3(self, s3):
        reg = regular_rep(s3)
        assert unitarity_residual(reg) <= 1e-10
        assert homomorphism_residual(reg) <= 1e-10
        assert np.allclose(reg.matrices[s3.identity], np.eye(6))

    @pytest.mark.parametrize("spec", ["s3", "q8", "z2xd6"])
    def test_matches_a_loop_over_elements(self, spec):
        grp = parse_group_spec(spec)
        want = np.zeros((grp.order, grp.order, grp.order))
        for g in range(grp.order):
            for h in range(grp.order):
                want[g, grp.mult[g, h], h] = 1.0  # M(g) e_h = e_{g h}
        assert np.array_equal(regular_rep(grp).matrices, want)

    def test_size_limit_is_inclusive(self, q8, monkeypatch):
        size = q8.order * q8.order**2 * 16
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", size)
        assert regular_rep(q8).dim == 8
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", size - 1)
        with pytest.raises(ValueError, match="limit"):
            regular_rep(q8)


class TestTensorProduct:
    def test_with_trivial_rep(self, d3):
        reg = regular_rep(d3)
        out = tensor_product(reg, trivial_rep(d3))
        assert out.dim == reg.dim
        assert np.allclose(out.matrices, reg.matrices)

    def test_trace_multiplicative(self, q8):
        reg = regular_rep(q8)
        out = tensor_product(reg, reg)
        char = np.trace(reg.matrices, axis1=1, axis2=2)
        assert np.allclose(np.trace(out.matrices, axis1=1, axis2=2), char * char)

    def test_z2_regular_squared_character(self, z2):
        out = tensor_product(regular_rep(z2), regular_rep(z2))
        assert np.allclose(np.trace(out.matrices, axis1=1, axis2=2), [4.0, 0.0])

    def test_invariants_preserved(self, d3):
        out = tensor_product(regular_rep(d3), regular_rep(d3))
        assert unitarity_residual(out) <= 1e-10
        assert homomorphism_residual(out) <= 1e-10

    def test_group_mismatch(self, z2, z6):
        with pytest.raises(ValueError, match="group mismatch"):
            tensor_product(regular_rep(z2), regular_rep(z6))

    def test_oversized_product_is_refused_before_allocating(self):
        # s5 regular x regular would take 371 GiB
        reg = regular_rep(parse_group_spec("s5"))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the 2 GiB limit"):
                tensor_product(reg, reg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_size_limit_is_inclusive(self, q8, monkeypatch):
        reg = regular_rep(q8)
        size = q8.order * (reg.dim * reg.dim) ** 2 * 16
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", size)
        assert tensor_product(reg, reg).dim == 64
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", size - 1)
        with pytest.raises(ValueError, match="limit"):
            tensor_product(reg, reg)


class TestMatrixCoeff:
    def test_trivial_rep_constant_one(self, z6):
        out = matrix_coeff_fun(trivial_rep(z6), np.array([[1.0 + 0j]]))
        assert np.allclose(out.values, 1.0)
        assert is_positive_definite(out).ok

    def test_z3_regular_delta_vector(self):
        z3 = build_cyclic(3)
        reg = regular_rep(z3)
        e0 = np.zeros((1, 3), dtype=complex)
        e0[0, 0] = 1.0
        out = matrix_coeff_fun(reg, e0)
        assert np.allclose(out.values, delta_identity(z3, 1).values)
        assert is_positive_definite(out).ok
        # idempotent under convolution
        assert l2_norm(subtract(convolve(out, out), out)) <= 1e-12

    def test_random_vectors_pd_both_ways(self, d3):
        reg = regular_rep(d3)
        for seed in range(5):
            out = matrix_coeff_fun(reg, random_vectors(2, 6, seed))
            assert is_positive_definite(out).ok
            assert gram_pd_check(out)
            assert hermitian_symmetry_residual(out) <= 1e-10

    def test_tensor_coefficients_pd(self, s3):
        rep = tensor_product(regular_rep(s3), regular_rep(s3))
        out = matrix_coeff_fun(rep, random_vectors(3, 36, seed=5))
        assert is_positive_definite(out).ok

    @pytest.mark.parametrize("tensor", [False, True], ids=["regular", "regular-x-regular"])
    def test_matches_a_loop_over_elements(self, s3, tensor):
        rep = regular_rep(s3)
        rep = tensor_product(rep, rep) if tensor else rep
        u = random_vectors(3, rep.dim, seed=8)
        basis = u.T  # U, whose columns are the vectors
        want = np.stack([basis.conj().T @ m @ basis for m in rep.matrices])
        got = matrix_coeff_fun(rep, u).values
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_dimension_mismatch(self, d3):
        with pytest.raises(ValueError, match="does not match dim"):
            matrix_coeff_fun(regular_rep(d3), random_vectors(2, 5, seed=6))


class TestTensorNonneg:
    def test_trivial_elementary_tensor(self, z6):
        triv = trivial_rep(z6)
        one = np.array([[1.0 + 0j]])
        report = check_tensor_nonneg(triv, one, triv, one)
        assert report.passed
        assert report.details["direct_sum"][0] == pytest.approx(6.0)

    def test_zero_vectors(self, d3):
        reg = regular_rep(d3)
        u1 = random_vectors(2, 6, seed=7)
        zeros = np.zeros((2, 6), dtype=complex)
        report = check_tensor_nonneg(reg, u1, reg, zeros)
        assert report.passed
        assert report.details["direct_sum"][0] == pytest.approx(0.0)

    def test_random_regular_pairs(self, s3):
        reg = regular_rep(s3)
        for seed in range(10):
            report = check_tensor_nonneg(
                reg, random_vectors(3, 6, 2 * seed), reg, random_vectors(3, 6, 2 * seed + 1)
            )
            assert report.passed
            assert report.details["direct_sum"][0] >= -1e-10

    def test_agreement_with_pairing_route(self, d3):
        reg = regular_rep(d3)
        u1 = random_vectors(2, 6, seed=8)
        u2 = random_vectors(2, 6, seed=9)
        report = check_tensor_nonneg(reg, u1, reg, u2)
        phi1 = matrix_coeff_fun(reg, u1)
        phi2 = matrix_coeff_fun(reg, u2)
        direct = complex(*report.details["direct_sum"])
        assert direct == pytest.approx(inner(phi1, conjugate(phi2)))

    def test_conjugate_coefficient_function_is_pd(self, d3):
        # the pairing route relies on entrywise conjugates staying PD
        out = conjugate(matrix_coeff_fun(regular_rep(d3), random_vectors(2, 6, seed=10)))
        assert is_positive_definite(out).ok

    def test_count_mismatch(self, d3):
        reg = regular_rep(d3)
        with pytest.raises(ValueError, match="counts differ"):
            check_tensor_nonneg(reg, random_vectors(2, 6, 1), reg, random_vectors(3, 6, 2))

    @pytest.mark.parametrize("c1, c2", [
        (1e-30, 1e-30), (1e-3, 1e-3), (1.0, 1.0), (1e30, 1e30),
        (2.0**-530, 1.0), (2.0**530, 1.0), (2.0**-260, 2.0**-260), (2.0**260, 2.0**260),
    ], ids=["1e-30", "0.001", "1.0", "1e+30", "u1-2^-530", "u1-2^530", "both-2^-260", "both-2^260"])
    def test_verdict_does_not_depend_on_scale(self, s3, c1, c2):
        reg = regular_rep(s3)
        square = tensor_product(reg, reg)
        base = check_tensor_nonneg(reg, random_vectors(2, 6, 2), square, random_vectors(2, 36, 3))
        report = check_tensor_nonneg(reg, c1 * random_vectors(2, 6, 2), square, c2 * random_vectors(2, 36, 3))
        assert base.passed and report.passed
        if max(c1, c2, 1 / c1, 1 / c2) <= 1e30:
            # the residuals are relative to ||phi1|| ||phi2||, which scales as c1^2 c2^2 with the sums
            direct = complex(*report.details["direct_sum"])
            assert direct == pytest.approx(c1**2 * c2**2 * complex(*base.details["direct_sum"]), rel=1e-12)
            assert report.worst_residual <= 1e-2
        if math.frexp(c1)[0] == math.frexp(c2)[0] == 0.5:
            # a power of two is divided out exactly, also where the coefficient
            # functions or their pairing would underflow or overflow
            assert report.worst_residual == base.worst_residual

    def test_non_representations_are_refused_before_any_work(self, s3):
        # -I at every element is unitary but no homomorphism (its tensor sum
        # with I is negative, and matrix_coeff_fun of it is not PD), and so is
        # a regular rep with two rows of matrices swapped; a non-unitary
        # homomorphism is refused too.  None of them can be built, so no check
        # or coefficient function ever sees one.
        eye = np.broadcast_to(np.eye(2, dtype=complex), (s3.order, 2, 2))
        swapped = regular_rep(s3).matrices.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        for dim, mats in ((2, -eye), (s3.order, swapped)):
            with pytest.raises(ValueError, match="not a unitary representation: homomorphism_residual"):
                UnitaryRep(s3, dim, mats)
        z2 = build_cyclic(2)
        flip = np.array([[1.0, 1.0], [0.0, -1.0]])  # flip @ flip = I
        mats = np.stack([np.eye(2), flip])
        assert homomorphism_residual(SimpleNamespace(group=z2, dim=2, matrices=mats)) == 0.0
        with pytest.raises(ValueError, match="not a unitary representation: unitarity_residual"):
            UnitaryRep(z2, 2, mats)

    def test_a_rep_passed_twice_is_checked_once(self, s3, monkeypatch):
        # checked once, at construction: check_tensor_nonneg measures nothing
        calls = []
        real = godement.reps.unitarity_residual
        monkeypatch.setattr(godement.reps, "unitarity_residual", lambda rep: calls.append(rep) or real(rep))
        reg, other = regular_rep(s3), regular_rep(s3)
        assert calls == [reg, other]
        check_tensor_nonneg(reg, random_vectors(2, 6, 4), reg, random_vectors(2, 6, 5))
        check_tensor_nonneg(reg, random_vectors(2, 6, 4), other, random_vectors(2, 6, 5))
        assert calls == [reg, other]


def all_pairs_homomorphism_residual(rep: UnitaryRep) -> float:
    """max over all pairs (a, b) of ||M(a) M(b) - M(a b)||_F: the reference."""
    mats, mult = rep.matrices, rep.group.mult
    return max(float(np.linalg.norm(mats[a] @ mats[b] - mats[mult[a, b]]))
               for a in range(rep.group.order) for b in range(rep.group.order))


@pytest.mark.parametrize("spec", ["z2", "z6", "d3", "q8", "s3", "d4"])
def test_homomorphism_residual_bounds_every_pair(spec):
    grp = parse_group_spec(spec)
    reg = regular_rep(grp)
    rng = np.random.default_rng(7)
    swapped = reg.matrices.copy()
    a, b = rng.choice(grp.order, 2, replace=False)
    swapped[[a, b]] = swapped[[b, a]]  # permutation matrices, so still unitary
    # UnitaryRep refuses the last two, so they go in as plain namespaces
    for rep in (reg, tensor_product(reg, trivial_rep(grp)),
                SimpleNamespace(group=grp, dim=grp.order, matrices=swapped),
                SimpleNamespace(group=grp, dim=grp.order, matrices=-reg.matrices)):
        exact = all_pairs_homomorphism_residual(rep)
        bound = homomorphism_residual(rep)
        assert exact <= bound and (bound == 0.0) == (exact == 0.0), (spec, exact, bound)


class TestDirectSumWithoutKronecker:
    @pytest.mark.parametrize("spec", ["s3", "d4"])
    def test_matches_materialized_tensor_product(self, spec):
        grp = parse_group_spec(spec)
        reg = regular_rep(grp)
        rep = tensor_product(reg, reg)
        for p1, p2, seed in ((reg, reg, 10), (rep, reg, 11), (reg, trivial_rep(grp), 12)):
            u1s = random_vectors(2, p1.dim, seed)
            u2s = random_vectors(2, p2.dim, seed + 100)
            big = tensor_product(p1, p2)
            u = sum(np.kron(v1, v2) for v1, v2 in zip(u1s, u2s))
            expected = complex(np.einsum("i,gij,j->", np.conj(u), big.matrices, u))
            got = complex(*check_tensor_nonneg(p1, u1s, p2, u2s).details["direct_sum"])
            assert abs(got - expected) <= 1e-12 * abs(expected)

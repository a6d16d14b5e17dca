import numpy as np
import pytest

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
    rep_to_json,
    subtract,
    tensor_product,
    trivial_rep,
    unitarity_residual,
)


def random_vectors(count: int, dim: int, seed: int) -> np.ndarray:
    rg = np.random.default_rng(seed)
    return (rg.standard_normal((count, dim)) + 1j * rg.standard_normal((count, dim))) / np.sqrt(2)


class TestRegularRep:
    def test_z2_matrices(self, z2):
        reg = regular_rep(z2)
        assert np.allclose(reg.at(0), np.eye(2))
        assert np.allclose(reg.at(1), [[0, 1], [1, 0]])

    def test_character(self, d3):
        reg = regular_rep(d3)
        char = reg.character()
        assert char[d3.identity] == pytest.approx(6)
        assert np.allclose(char[1:], 0.0)

    def test_invariants_s3(self, s3):
        reg = regular_rep(s3)
        assert unitarity_residual(reg) <= 1e-10
        assert homomorphism_residual(reg) <= 1e-10
        assert np.allclose(reg.at(s3.identity), np.eye(6))


class TestTensorProduct:
    def test_with_trivial_rep(self, d3):
        reg = regular_rep(d3)
        out = tensor_product(reg, trivial_rep(d3))
        assert out.dim == reg.dim
        assert np.allclose(out.matrices, reg.matrices)

    def test_trace_multiplicative(self, q8):
        reg = regular_rep(q8)
        out = tensor_product(reg, reg)
        assert np.allclose(out.character(), reg.character() * reg.character())

    def test_z2_regular_squared_character(self, z2):
        out = tensor_product(regular_rep(z2), regular_rep(z2))
        assert np.allclose(out.character(), [4.0, 0.0])

    def test_invariants_preserved(self, d3):
        out = tensor_product(regular_rep(d3), regular_rep(d3))
        assert unitarity_residual(out) <= 1e-10
        assert homomorphism_residual(out) <= 1e-10

    def test_group_mismatch(self, z2, z6):
        with pytest.raises(ValueError, match="group mismatch"):
            tensor_product(regular_rep(z2), regular_rep(z6))


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

    @pytest.mark.parametrize("c", [1e-30, 1e-3, 1.0, 1e30])
    def test_verdict_does_not_depend_on_scale(self, s3, c):
        # -I and I at every element: unitary, not a homomorphism, which the
        # check does not verify, so their tensor sum is negative at any scale
        eye = np.broadcast_to(np.eye(2, dtype=complex), (s3.order, 2, 2))
        minus, plus = UnitaryRep(s3, 2, -eye), UnitaryRep(s3, 2, eye)
        u1, u2 = random_vectors(2, 2, seed=0), random_vectors(2, 2, seed=1)
        report = check_tensor_nonneg(minus, c * u1, plus, c * u2)
        assert not report.passed and report.details["direct_sum"][0] < 0.0
        reg = regular_rep(s3)
        assert check_tensor_nonneg(reg, c * random_vectors(2, 6, 2), reg, c * random_vectors(2, 6, 3)).passed


class TestJson:
    def test_layout(self, z2):
        reg = regular_rep(z2)
        obj = rep_to_json(reg)
        assert set(obj) == {"group_id", "dim", "matrices"}
        assert obj["dim"] == 2
        assert obj["matrices"][1][0][1] == [1.0, 0.0]


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

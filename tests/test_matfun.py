import json
import sys
import threading

import numpy as np
import pytest

from godement import (
    GroupTable,
    MatFun,
    VecFun,
    add,
    conv_matrix,
    convolve,
    convolve_vec,
    delta_identity,
    group_to_json,
    inner,
    is_positive_definite,
    l1_norm,
    l2_norm,
    make_pd,
    matfun_from_json,
    matfun_to_json,
    parse_group_spec,
    random_matfun,
    random_vecfun,
    scale,
    star,
    subtract,
    zero_matfun,
)
from godement.matfun import _conv_index
from conftest import phi_21, random_pd, relabeled_s3

REL = 1e-10


def rel_close(a: MatFun, b: MatFun, tol: float = REL) -> bool:
    denom = max(l2_norm(a), l2_norm(b), 1e-300)
    return l2_norm(subtract(a, b)) <= tol * denom


class TestConvolve:
    def test_delta_is_unit(self, d3):
        a = random_matfun(d3, 2, seed=3)
        delta = delta_identity(d3, 2)
        assert rel_close(convolve(delta, a), a)
        assert rel_close(convolve(a, delta), a)

    def test_z2_scalar_example(self, z2):
        phi = phi_21(z2)
        out = convolve(phi, phi)
        # direct double sum over the two elements
        expected = [2 * 2 + 1 * 1, 2 * 1 + 1 * 2]
        assert np.allclose(out.values.ravel(), expected)

    def test_group_mismatch(self, z2, z6):
        with pytest.raises(ValueError, match="group mismatch"):
            convolve(random_matfun(z2, 1, 0), random_matfun(z6, 1, 0))

    def test_dim_mismatch(self, z6):
        with pytest.raises(ValueError, match="dimension mismatch"):
            convolve(random_matfun(z6, 1, 0), random_matfun(z6, 2, 0))

    def test_associativity(self, sample_groups):
        for grp in sample_groups:
            a = random_matfun(grp, 2, seed=11)
            b = random_matfun(grp, 2, seed=12)
            c = random_matfun(grp, 2, seed=13)
            assert rel_close(convolve(convolve(a, b), c), convolve(a, convolve(b, c)))

    def test_matches_brute_force(self, d3):
        a = random_matfun(d3, 2, seed=21)
        b = random_matfun(d3, 2, seed=22)
        out = convolve(a, b)
        for x in d3.elements():
            acc = np.zeros((2, 2), dtype=complex)
            for g in d3.elements():
                acc += a.values[g] @ b.values[d3.mul(d3.invert(g), x)]
            assert np.allclose(out.values[x], acc, atol=1e-12)


# one spec per family and product shape, orders 1..24
STANDARD_SPECS = ("trivial", "z2", "z6", "z24", "klein", "d3", "d4", "d12", "q8",
                  "s3", "s4", "z2xz3", "z3xq8", "z2xd6")


def naive_convolve(group: GroupTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_g a(g) b(g^-1 x) as a double loop; b is (|G|, n, n) or (|G|, n)."""
    out = np.zeros_like(b)
    for x in group.elements():
        for g in group.elements():
            out[x] += a[g] @ b[group.mul(group.invert(g), x)]
    return out


class TestKernel:
    @pytest.mark.parametrize("spec", STANDARD_SPECS + ("custom",))
    def test_matches_double_loop(self, spec):
        grp = relabeled_s3() if spec == "custom" else parse_group_spec(spec)
        assert grp.order <= 24
        for n in (1, 2, 3):
            a = random_matfun(grp, n, seed=31)
            b = random_matfun(grp, n, seed=32)
            u = random_vecfun(grp, n, seed=33)
            expected = naive_convolve(grp, a.values, b.values)
            got = convolve(a, b).values
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
            expected_vec = naive_convolve(grp, a.values, u.values)
            got_vec = convolve_vec(a, u).values
            assert np.linalg.norm(got_vec - expected_vec) <= 1e-13 * np.linalg.norm(expected_vec)

    def test_index_cached_per_table_not_per_order(self):
        tables = [parse_group_spec(spec) for spec in ("z8", "d4", "q8")]
        pairs = [(random_matfun(t, 2, seed=41), random_matfun(t, 2, seed=42)) for t in tables]
        outs = [convolve(a, b).values for a, b in pairs]
        indices = [_conv_index(t, 2) for t in tables]
        for t, index in zip(tables, indices):
            assert _conv_index(t, 2) is index
        for i in range(3):
            for j in range(i):
                assert not np.array_equal(indices[i], indices[j])
        # interleaved use leaves every table with its own product
        for t, (a, b), out in zip(tables, pairs, outs):
            assert np.array_equal(convolve(a, b).values, out)
            expected = naive_convolve(t, a.values, b.values)
            assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_index_first_build_race(self):
        # more threads than cores race on the first build of a fresh table's index
        def race(grp: GroupTable) -> list[np.ndarray]:
            barrier = threading.Barrier(8)
            got = []

            def worker():
                barrier.wait(timeout=10)
                got.append(_conv_index(grp, 3))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            return got

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                grp = parse_group_spec("s4")
                got = race(grp)
                assert len(got) == 8
                assert all(index is got[0] for index in got)
                assert _conv_index(grp, 3) is got[0]
        finally:
            sys.setswitchinterval(old_interval)
        a, b = random_matfun(grp, 3, seed=43), random_matfun(grp, 3, seed=44)
        expected = naive_convolve(grp, a.values, b.values)
        assert np.linalg.norm(convolve(a, b).values - expected) <= 1e-13 * np.linalg.norm(expected)


class TestStar:
    def test_delta_fixed(self, d4):
        delta = delta_identity(d4, 2)
        assert rel_close(star(delta), delta)

    def test_involution(self, sample_groups):
        for grp in sample_groups:
            a = random_matfun(grp, 2, seed=31)
            assert rel_close(star(star(a)), a, tol=0.0)

    def test_pd_functions_are_star_fixed(self, sample_groups):
        for grp in sample_groups:
            phi = random_pd(grp, 2, seed=32)
            assert rel_close(star(phi), phi, tol=1e-12)

    def test_anti_homomorphism(self, q8):
        a = random_matfun(q8, 2, seed=33)
        b = random_matfun(q8, 2, seed=34)
        assert rel_close(star(convolve(a, b)), convolve(star(b), star(a)))


class TestInner:
    def test_self_inner_is_squared_mass(self, s3):
        a = random_matfun(s3, 2, seed=41)
        val = inner(a, a)
        assert abs(val.imag) < 1e-12
        assert val.real == pytest.approx(np.sum(np.abs(a.values) ** 2))
        assert val.real == pytest.approx(l2_norm(a) ** 2)

    def test_z2_example(self, z2):
        phi = phi_21(z2)
        psi = MatFun(z2, 1, np.array([[[1.0]], [[0.0]]], dtype=complex))
        assert inner(phi, psi) == pytest.approx(2.0)

    def test_conjugate_symmetry(self, d3):
        a = random_matfun(d3, 2, seed=42)
        b = random_matfun(d3, 2, seed=43)
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))

    def test_trace_identity_for_pd_pairs(self, sample_groups):
        for grp in sample_groups:
            phi = random_pd(grp, 2, seed=44)
            psi = random_pd(grp, 2, seed=45)
            trace = np.trace(convolve(phi, psi).values[grp.identity])
            scale_ = l2_norm(phi) * l2_norm(psi)
            assert abs(inner(phi, psi) - trace) <= 1e-10 * scale_

    def test_cauchy_schwarz(self, sample_groups):
        for grp in sample_groups:
            a = random_matfun(grp, 2, seed=46)
            b = random_matfun(grp, 2, seed=47)
            assert abs(inner(a, b)) <= l2_norm(a) * l2_norm(b) * (1 + 1e-12)


class TestLinearOps:
    def test_add_subtract_scale(self, z6):
        a = random_matfun(z6, 2, seed=51)
        assert l2_norm(add(a, scale(-1.0, a))) == 0.0
        assert rel_close(subtract(a, a), zero_matfun(z6, 2), tol=0.0)
        assert l2_norm(scale(2.0, a)) == pytest.approx(2 * l2_norm(a))

    def test_l2_of_delta(self, d4):
        assert l2_norm(delta_identity(d4, 3)) == pytest.approx(np.sqrt(3))

    def test_l1_example(self, z2):
        assert l1_norm(phi_21(z2)) == pytest.approx(3.0)

    def test_l1_submultiplicative(self, sample_groups):
        for grp in sample_groups:
            a = random_matfun(grp, 2, seed=52)
            b = random_matfun(grp, 2, seed=53)
            assert l1_norm(convolve(a, b)) <= l1_norm(a) * l1_norm(b) * (1 + 1e-12)

    def test_entrywise_young_bound(self, sample_groups):
        for grp in sample_groups:
            a = random_matfun(grp, 2, seed=54)
            b = random_matfun(grp, 2, seed=55)
            bound = l2_norm(a) * l2_norm(b) * (1 + 1e-12)
            assert np.max(np.abs(convolve(a, b).values)) <= bound


class TestDelta:
    def test_conv_matrix_is_identity(self, q8):
        L = conv_matrix(delta_identity(q8, 2))
        assert np.allclose(L.data, np.eye(16))


class TestRandomAndPd:
    def test_deterministic_per_seed(self, d3):
        a = random_matfun(d3, 2, seed=99)
        b = random_matfun(d3, 2, seed=99)
        c = random_matfun(d3, 2, seed=100)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_make_pd_of_delta(self, z6):
        delta = delta_identity(z6, 2)
        assert rel_close(make_pd(delta), delta, tol=0.0)

    def test_make_pd_certifies(self, z6):
        for seed in range(100):
            phi = random_pd(z6, 2, seed=seed)
            assert is_positive_definite(phi).ok, seed

    def test_entries_standard_complex_gaussian_scale(self, s3):
        a = random_matfun(s3, 3, seed=7)
        # E|z|^2 = 1 per entry; loose sanity band
        mean_sq = np.mean(np.abs(a.values) ** 2)
        assert 0.5 < mean_sq < 1.8


class TestVecFun:
    def test_apply_matches_definition(self, d3):
        a = random_matfun(d3, 2, seed=61)
        u = random_vecfun(d3, 2, seed=62)
        out = convolve_vec(a, u)
        for x in d3.elements():
            acc = np.zeros(2, dtype=complex)
            for g in d3.elements():
                acc += a.values[g] @ u.values[d3.mul(d3.invert(g), x)]
            assert np.allclose(out.values[x], acc, atol=1e-12)

    def test_flat_round_trip(self, d3):
        u = random_vecfun(d3, 2, seed=63)
        again = VecFun.from_flat(d3, 2, u.flat())
        assert np.array_equal(u.values, again.values)

    def test_rejects_nonfinite(self, z2):
        with pytest.raises(ValueError, match="finite"):
            VecFun(z2, 1, np.array([[np.inf], [0.0]], dtype=complex))


class TestValidation:
    def test_rejects_nan(self, z2):
        vals = np.zeros((2, 1, 1), dtype=complex)
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            MatFun(z2, 1, vals)

    def test_rejects_bad_shape(self, z2):
        with pytest.raises(ValueError, match="shape"):
            MatFun(z2, 2, np.zeros((2, 1, 1), dtype=complex))


class TestJson:
    def test_round_trip(self, d4):
        phi = random_pd(d4, 2, seed=71)
        obj = json.loads(json.dumps(matfun_to_json(phi)))
        again = matfun_from_json(obj)
        assert again.group.name == d4.name
        assert np.allclose(again.values, phi.values)

    def test_schema_layout(self, z2):
        phi = phi_21(z2)
        obj = matfun_to_json(phi)
        assert set(obj) == {"group_id", "n", "values"}
        assert obj["group_id"] == "cyclic:2"
        assert obj["values"][0][0][0] == [2.0, 0.0]

    def test_explicit_group_override(self, z2):
        obj = matfun_to_json(phi_21(z2))
        again = matfun_from_json(obj, group=z2)
        assert again.group is z2

    def test_custom_table_round_trip(self):
        grp = relabeled_s3()
        phi = random_pd(grp, 2, seed=72)
        obj = json.loads(json.dumps(matfun_to_json(phi)))
        assert obj["group_id"] == "custom" and obj["group"] == group_to_json(grp)
        again = matfun_from_json(obj)
        assert again.group.same_table(grp) and again.group.name == "custom"
        assert np.array_equal(again.values, phi.values)
        assert again.group.identity == grp.identity != 0

    def test_standard_table_not_embedded(self, d4):
        assert "group" not in matfun_to_json(random_pd(d4, 1, seed=73))

    def test_embedded_table_must_be_a_group(self):
        obj = matfun_to_json(random_pd(relabeled_s3(), 1, seed=74))
        obj["group"]["mult"][1][2] = obj["group"]["mult"][1][3]
        with pytest.raises(ValueError, match="not a group"):
            matfun_from_json(obj)
        obj["group"] = {"order": 6}
        with pytest.raises(ValueError, match="malformed group"):
            matfun_from_json(obj)

    def test_malformed(self):
        with pytest.raises(ValueError):
            matfun_from_json({"n": 1})
        with pytest.raises(ValueError):
            matfun_from_json({"group_id": "cyclic:2", "n": 1, "values": [[[[1.0, 0.0]]]]})

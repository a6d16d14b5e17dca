import base64
import dataclasses
import json
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

import godement.cli
import godement.groups
import godement.matfun
from godement import (
    GroupTable,
    MatFun,
    add,
    build_cyclic,
    build_symmetric,
    check_inner_trace,
    check_theorem_c,
    conv_matrix,
    convolve,
    delta_identity,
    direct_product,
    group_to_json,
    inner,
    is_positive_definite,
    l2_norm,
    make_pd,
    matfun_from_json,
    matfun_to_json,
    parse_group_spec,
    random_matfun,
    scale,
    sqrt_iterative,
    sqrt_spectral,
    star,
    subtract,
    zero_matfun,
)
from godement.cli import main
from godement.groups import _standard_spec
from godement.matfun import (_adjoint, _complex_normals, _conv_index, _conv_kernel, _conv_operator, _frobenius,
                             _plain_norm, _power_of_two_unit)
from godement.theorems import _random_pd, derive_seed
from conftest import legacy_json, phi_21, random_pd, relabeled_s3

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
        for x in range(d3.order):
            acc = np.zeros((2, 2), dtype=complex)
            for g in range(d3.order):
                acc += a.values[g] @ b.values[d3.mult[d3.inv[g], x]]
            assert np.allclose(out.values[x], acc, atol=1e-12)


# one spec per family and product shape, orders 1..24
STANDARD_SPECS = ("trivial", "z2", "z6", "z24", "klein", "d3", "d4", "d12", "q8",
                  "s3", "s4", "z2xz3", "z3xq8", "z2xd6")


def naive_convolve(group: GroupTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_g a(g) b(g^-1 x) as a double loop; b is (|G|, n, n) or (|G|, n)."""
    out = np.zeros_like(b)
    for x in range(group.order):
        for g in range(group.order):
            out[x] += a[g] @ b[group.mult[group.inv[g], x]]
    return out


class TestKernel:
    @pytest.mark.parametrize("spec", STANDARD_SPECS + ("custom",))
    def test_matches_double_loop(self, spec):
        grp = relabeled_s3() if spec == "custom" else parse_group_spec(spec)
        assert grp.order <= 24
        for n in (1, 2, 3):
            a = random_matfun(grp, n, seed=31)
            b = random_matfun(grp, n, seed=32)
            u = _complex_normals(33, (grp.order, n))[0]
            expected = naive_convolve(grp, a.values, b.values)
            got = convolve(a, b).values
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
            expected_vec = naive_convolve(grp, a.values, u)
            got_vec = _conv_kernel(grp, a.values, u)
            assert np.linalg.norm(got_vec - expected_vec) <= 1e-13 * np.linalg.norm(expected_vec)

    @pytest.mark.parametrize("spec", STANDARD_SPECS + ("custom", "z9", "z2xs5"))
    def test_dot_is_the_matmul_bitwise(self, spec, monkeypatch):
        # _conv_kernel multiplies with np.dot, which costs less than @ on 2-D complex,
        # and gives the same bits when it gathers and multiplies in row blocks
        grp = relabeled_s3() if spec == "custom" else parse_group_spec(spec)
        for n in (1, 2, 3):
            side = grp.order * n
            a = random_matfun(grp, n, seed=34).values
            for b in (random_matfun(grp, n, seed=35).values, _complex_normals(36, (grp.order, n))[0]):
                want = (_conv_operator(grp, a) @ b.reshape(side, -1)).reshape(b.shape)
                # the budget (row blocks on z2xs5 at n = 2, 3); blocks of two rows
                # (the fewest); of three; of side - 2 and 2.  An odd side (z9 and
                # trivial at n = 3) and blocks of three on a side of 3k + 1 leave a
                # single last row, which joins the block before it.  n = 1 is
                # gathered whole at every budget.
                for budget in (godement.matfun._GATHER_BYTES, 0, 16 * 3 * side, 16 * (side - 2) * side):
                    with monkeypatch.context() as m:
                        m.setattr(godement.matfun, "_GATHER_BYTES", budget)
                        assert _conv_kernel(grp, a, b).tobytes() == want.tobytes(), (n, b.shape, budget)

    @pytest.mark.parametrize("spec", ("s5", "z2xs5"))
    def test_traced_peak_of_a_call_stays_under_a_mebibyte(self, spec):
        # numpy reports its buffers to tracemalloc; with the caches warm, no call
        # at n = 3 holds the (|G| n)^2 convolution matrix (2.0 MiB on s5 and
        # 7.9 MiB on z2xs5), only row blocks of at most _GATHER_BYTES
        grp = parse_group_spec(spec)
        f = random_matfun(grp, 3, seed=42)
        phi, psi = make_pd(f), make_pd(random_matfun(grp, 3, seed=43))
        calls = {"make_pd": lambda: make_pd(f), "sqrt_spectral": lambda: sqrt_spectral(phi),
                 "sqrt_iterative": lambda: sqrt_iterative(phi), "check_theorem_c": lambda: check_theorem_c(phi, psi),
                 "check_inner_trace": lambda: check_inner_trace(phi, psi)}
        for name, call in calls.items():
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (name, peak)

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
                grp = build_symmetric(4)  # fresh: parse_group_spec would share one built table
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
    @pytest.mark.parametrize("spec", STANDARD_SPECS + ("custom",))
    def test_adjoint_is_the_indexing_expression_bitwise(self, spec):
        grp = relabeled_s3() if spec == "custom" else parse_group_spec(spec)
        for n in (1, 2, 3):
            a = random_matfun(grp, n, seed=derive_seed("adjoint", spec, n)).values
            for values in (a, a.transpose(0, 2, 1)):  # a non-contiguous input gathers the same entries
                got = _adjoint(grp, values)
                want = np.conj(values[grp.inv]).transpose(0, 2, 1)
                assert got.flags.c_contiguous
                assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (spec, n)

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

    def test_l2_scales_at_extreme_magnitudes(self, s3):
        # the plain norm squares entries: it gave inf from about 1e154 on, and 0.0 at 1e-170
        phi = make_pd(random_matfun(s3, 2, seed=3))
        base = l2_norm(phi)
        assert base == float(np.linalg.norm(phi.values))  # ordinary inputs keep the plain result
        for c in (1e-200, 1e-170, 1e154, 1e200):
            assert abs(l2_norm(scale(c, phi)) - c * base) <= 4e-16 * c * base

    def test_plain_norm_is_numpy_norm_bitwise(self, s3):
        # suite output depends on the plain norm rounding as numpy.linalg.norm does
        base = make_pd(random_matfun(s3, 2, seed=3)).values
        arrays = [base, base * 1e100, base[:, :1, :], base.transpose(2, 1, 0), base[::2], np.zeros((3, 1, 1), complex)]
        arrays += [random_matfun(s3, n, seed=n).values for n in (1, 3, 4)]
        for values in arrays:
            assert _plain_norm(values) == float(np.linalg.norm(values))
            assert _frobenius(values) == float(np.linalg.norm(values))

    @pytest.mark.parametrize("peak", [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.0, np.nextafter(2.0, 0.0),
                                      np.finfo(np.float64).max, np.inf, np.nan])
    def test_power_of_two_unit_is_the_numpy_expression(self, peak):
        def numpy_unit(values):
            peak = float(np.max(np.abs(values), initial=0.0))
            return float(np.ldexp(1.0, int(np.frexp(peak)[1]) - 1)) if 0.0 < peak < np.inf else 1.0

        values = np.array([[[0.25]], [[-peak]], [[1j * peak / 2]]], dtype=complex)
        for arr in (values, values.real.copy(), values[1:2]):
            got = _power_of_two_unit(arr)
            assert type(got) is float
            assert got == numpy_unit(arr), arr

    def test_l2_of_nan_is_nan(self):
        # MatFun refuses NaN, so the input is a stand-in with the one attribute read
        values = np.zeros((2, 1, 1), dtype=complex)
        values[1, 0, 0] = np.nan
        assert np.isnan(l2_norm(types.SimpleNamespace(values=values)))

    def test_l1_submultiplicative(self, sample_groups):
        # Young's inequality for the entrywise l1 norm sum_g sum_ij |a(g)_ij|
        def l1(a):
            return float(np.sum(np.abs(a.values)))

        for grp in sample_groups:
            a = random_matfun(grp, 2, seed=52)
            b = random_matfun(grp, 2, seed=53)
            assert l1(convolve(a, b)) <= l1(a) * l1(b) * (1 + 1e-12)

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

    @pytest.mark.parametrize("spec", STANDARD_SPECS + ("custom", "s5", "z2xs5"))
    def test_make_pd_is_star_f_times_f_bitwise(self, spec):
        # s5 at n = 2, 3 and z2xs5 at n = 1-3 lie above _GATHER_BYTES
        grp = relabeled_s3() if spec == "custom" else parse_group_spec(spec)
        for n in (1, 2, 3):
            f = random_matfun(grp, n, seed=derive_seed(spec, n))
            assert make_pd(f).values.tobytes() == convolve(star(f), f).values.tobytes(), (spec, n)

    @pytest.mark.parametrize("spec", STANDARD_SPECS + ("custom", "s5", "z2xs5"))
    def test_draw_is_one_gather_of_the_adjoint_kernel_bitwise(self, spec):
        # the suite's draw convolves the adjoint of its raw draw as make_pd does,
        # within _GATHER_BYTES and above it
        grp = relabeled_s3() if spec == "custom" else parse_group_spec(spec)
        for n in (1, 2, 3):
            seed = derive_seed("draw", spec, n)
            f = random_matfun(grp, n, seed=seed).values
            want = _conv_kernel(grp, _adjoint(grp, f), f)
            assert _random_pd(grp, n, seed).values.tobytes() == want.tobytes(), n

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


def fresh_draws(seed: int, *shapes) -> list[np.ndarray]:
    """The reference stream: a new Generator(Philox) per seed, real then
    imaginary parts of each shape in turn."""
    rg = np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))
    return [(rg.standard_normal(shape) + 1j * rg.standard_normal(shape)) / np.sqrt(2.0) for shape in shapes]


STREAM_SEEDS = (0, 1, 2**63 + 5, 2**64 - 1, -3, derive_seed(2024, "A", "S3", 2, 0), derive_seed(7, "phi"),
                derive_seed(7, "psi"))


class TestStream:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64 + 5])
    def test_draws_are_the_complex_division_bitwise(self, seed):
        # one standard_normal((2, *shape)) per shape, divided as (re + 1j im) / sqrt(2);
        # two shapes in one call, as rep-demo draws them, and one long draw
        shapes = ((2, 36), (2, 36), (6, 2, 2), (40_000,))
        rg = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
        for got, shape in zip(_complex_normals(seed, *shapes), shapes):
            re, im = rg.standard_normal((2, *shape))
            want = (re + 1j * im) / np.sqrt(2.0)
            assert got.dtype == np.complex128 and got.shape == shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), (seed, shape)

    def test_draws_match_a_fresh_generator(self, s3):
        for seed in STREAM_SEEDS:
            for n in (1, 2, 3):
                assert np.array_equal(random_matfun(s3, n, seed).values, fresh_draws(seed, (6, n, n))[0]), seed
                assert np.array_equal(_complex_normals(seed, (6, n))[0], fresh_draws(seed, (6, n))[0]), seed

    @pytest.mark.parametrize("tensor", [False, True])
    def test_rep_demo_draws_match_a_fresh_generator(self, monkeypatch, capsys, tensor):
        seen = []
        real = godement.cli.check_tensor_nonneg

        def spy(rep1, u1, rep2, u2, **kwargs):
            seen.append((rep1.dim, u1, u2))
            return real(rep1, u1, rep2, u2, **kwargs)

        monkeypatch.setattr(godement.cli, "check_tensor_nonneg", spy)
        assert main(["rep-demo", "--group", "d3", "--n", "2", "--seed", "5"] + (["--tensor"] if tensor else [])) == 0
        capsys.readouterr()
        (dim, u1, u2), = seen
        # u1 then u2 from one stream, in that order
        want1, want2 = fresh_draws(derive_seed(5, "rep-demo"), (2, dim), (2, dim))
        assert np.array_equal(u1, want1) and np.array_equal(u2, want2)

    def test_interleaved_seeds_reproduce(self, d4):
        a = random_matfun(d4, 2, seed=2**63 + 5).values
        b = _complex_normals(17, (8, 3))[0]
        assert np.array_equal(random_matfun(d4, 2, seed=2**63 + 5).values, a)
        assert np.array_equal(_complex_normals(17, (8, 3))[0], b)
        assert not np.array_equal(random_matfun(d4, 2, seed=17).values, a)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_threads_draw_as_one_thread_does(self, s3, workers):
        # each thread has its own generator: concurrent draws match sequential ones
        seeds = [derive_seed(11, k) for k in range(40)]
        expected = [random_matfun(s3, 2, seed).values for seed in seeds]
        barrier = threading.Barrier(workers)
        got: dict[int, list[np.ndarray]] = {}

        def worker(w):
            barrier.wait(timeout=10)
            got[w] = [random_matfun(s3, 2, seed).values for seed in seeds[w::2] + seeds[::-1]]

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old_interval)
        for w in range(workers):
            want = expected[w::2] + expected[::-1]
            assert len(got[w]) == len(want)
            assert all(np.array_equal(x, y) for x, y in zip(got[w], want))


class TestVectorAction:
    def test_apply_matches_definition(self, d3):
        # the kernel on a (|G|, n) vector function: sum_g a(g) u(g^-1 x)
        a = random_matfun(d3, 2, seed=61)
        u = _complex_normals(62, (d3.order, 2))[0]
        out = _conv_kernel(d3, a.values, u)
        for x in range(d3.order):
            acc = np.zeros(2, dtype=complex)
            for g in range(d3.order):
                acc += a.values[g] @ u[d3.mult[d3.inv[g], x]]
            assert np.allclose(out[x], acc, atol=1e-12)


class TestValidation:
    def test_rejects_nan(self, z2):
        vals = np.zeros((2, 1, 1), dtype=complex)
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            MatFun(z2, 1, vals)

    def test_rejects_bad_shape(self, z2):
        with pytest.raises(ValueError, match="shape"):
            MatFun(z2, 2, np.zeros((2, 1, 1), dtype=complex))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_dimension_below_one(self, s3, n):
        # an n = 0 MatFun once reached is_positive_definite, which raised IndexError
        size = max(n, 0)
        with pytest.raises(ValueError, match=f"dimension n must be >= 1, got {n}"):
            MatFun(s3, n, np.zeros((6, size, size)))
        # the helpers check n before they allocate: a negative n once reached
        # numpy, which refused it with "negative dimensions are not allowed"
        for build in (zero_matfun, delta_identity, lambda g, n: random_matfun(g, n, 0)):
            with pytest.raises(ValueError, match=f"^MatFun dimension n must be >= 1, got {n}$"):
                build(s3, n)

    @pytest.mark.parametrize("n", [1.0, 2.5, "1", True, None])
    def test_rejects_dimension_that_is_not_an_integer(self, z2, n):
        # MatFun(g, 1.0, ...) once kept n = 1.0 and wrote a file its reader refused
        with pytest.raises(ValueError, match=f"^MatFun dimension n must be an integer, got {n!r}$"):
            MatFun(z2, n, np.zeros((2, 1, 1)))
        for build in (zero_matfun, delta_identity, lambda g, n: random_matfun(g, n, 0)):
            with pytest.raises(ValueError, match=f"^MatFun dimension n must be an integer, got {n!r}$"):
                build(z2, n)

    @pytest.mark.parametrize("build", [zero_matfun, delta_identity, lambda g, n: random_matfun(g, n, 0)],
                             ids=["zero_matfun", "delta_identity", "random_matfun"])
    def test_size_limit_is_checked_before_allocating(self, s3, monkeypatch, build):
        # n = 20000 on s3 once asked numpy for 35.8 GiB; a limit one byte below
        # the n = 2 function shows the refusal without a large array
        size = s3.order * 2 * 2 * 16
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", size)
        assert build(s3, 2).n == 2
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", size - 1)
        with pytest.raises(ValueError, match="GiB complex128 array, over the 0 GiB limit"):
            build(s3, 2)

    def test_convolution_operator_size_is_checked_before_its_index(self, monkeypatch):
        # make_pd on s3 at n = 3000 passed the 824 MiB draw's check and died in
        # numpy on the 2.41 GiB gather index; the index is cached per table and
        # n, so a fresh table shows the refusal at a limit one byte below n = 2
        s3 = build_symmetric(3)
        f = random_matfun(s3, 2, 0)
        size = 16 * (s3.order * 2) ** 2
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", size - 1)
        with pytest.raises(ValueError, match="convolution operator of dimension 2 on 6 elements needs"):
            make_pd(f)
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", size)
        assert np.array_equal(make_pd(f).values, convolve(star(f), f).values)

    def test_numpy_dimension_is_kept_as_a_plain_int(self, s3):
        # an np.int64 n once stayed on the MatFun, and json.dumps raised TypeError
        phi = random_matfun(s3, np.int64(2), 1)
        assert type(phi.n) is int and type(MatFun(s3, np.int32(2), phi.values).n) is int
        again = matfun_from_json(json.loads(json.dumps(matfun_to_json(phi))))
        assert again.n == 2 and np.array_equal(again.values, phi.values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
    def test_rejects_nonfinite_in_every_form(self, z2, bad):
        for vals in (np.array([[[0.0]], [[bad]]]), np.array([[[0.0]], [[bad]]], dtype=complex), [[[0.0]], [[bad]]]):
            with pytest.raises(ValueError, match="finite"):
                MatFun(z2, 1, vals)

    def test_converts_other_input(self, d3):
        ref = random_matfun(d3, 2, seed=5).values
        inputs = {
            "list": ref.tolist(),
            "float": ref.real.copy(),
            "int": np.arange(24).reshape(6, 2, 2),
            "python float": [[[float(k)] * 2] * 2 for k in range(6)],
            "fortran": np.asfortranarray(ref),
            "strided": np.concatenate([ref, ref], axis=2)[:, :, :2],
            "big-endian": ref.astype(">c16"),
        }
        for name, vals in inputs.items():
            got = MatFun(d3, 2, vals).values
            assert got.dtype == np.complex128 and got.flags.c_contiguous and not got.flags.writeable, name
            assert np.array_equal(got, np.asarray(vals, dtype=complex)), name
            if isinstance(vals, np.ndarray):
                assert vals.flags.writeable, name  # a converted input is copied, not frozen

    def test_wraps_complex_arrays_without_a_copy(self, d3):
        vals = random_matfun(d3, 2, seed=5).values.copy()
        a = MatFun(d3, 2, vals)
        assert a.values is vals and not vals.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.values[0, 0, 0] = 1.0


class TestJson:
    def test_round_trip(self, d4):
        phi = random_pd(d4, 2, seed=71)
        obj = json.loads(json.dumps(matfun_to_json(phi)))
        again = matfun_from_json(obj)
        assert again.group.name == d4.name
        assert np.array_equal(again.values, phi.values)

    def test_schema_layout(self, z2):
        phi = phi_21(z2)
        obj = matfun_to_json(phi)
        assert set(obj) == {"group_id", "n", "values_b64"}
        assert obj["group_id"] == "cyclic:2" and obj["n"] == 1
        data = base64.b64decode(obj["values_b64"], validate=True)
        assert data == phi.values.astype("<c16").tobytes() == np.array([2, 1], dtype="<c16").tobytes()
        assert len(obj["values_b64"]) == 44 and obj["values_b64"].endswith("=")

    # Entries whose shortest repr or sign a float format can lose: signed
    # zeros, the smallest subnormal, the largest magnitudes, a tiny imaginary part.
    EDGE_ENTRIES = [-0.0, 5e-324, 1e308, -1e308, 1e-300j, complex(-0.0, -0.0), complex(0.0, -0.0)]

    @pytest.mark.parametrize("spec", ["z2", "d4", "s3", "s5", "custom"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_layouts_load_bitwise(self, spec, n):
        grp = relabeled_s3() if spec == "custom" else parse_group_spec(spec)
        values = random_matfun(grp, n, seed=76).values.copy()
        edge = np.array(self.EDGE_ENTRIES[: values.size], dtype=complex)
        values.reshape(-1)[: edge.size] = edge
        phi = MatFun(grp, n, values)
        for obj in (matfun_to_json(phi), legacy_json(phi)):
            for loaded in (obj, json.loads(json.dumps(obj))):
                again = matfun_from_json(loaded)
                assert again.group.same_table(grp) and again.n == n
                assert again.values.tobytes() == phi.values.tobytes()

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

    def test_custom_table_not_shared(self):
        # only standard specs share one table per process; embedded tables are built per load
        obj = matfun_to_json(random_pd(relabeled_s3(), 1, seed=75))
        first, second = matfun_from_json(obj), matfun_from_json(obj)
        assert first.group is not second.group and first.group.same_table(second.group)

    def test_standard_table_not_embedded(self, d4):
        assert "group" not in matfun_to_json(random_pd(d4, 1, seed=73))
        # a table equal to its spec's standard one, cached or freshly built, writes no table
        for grp in (parse_group_spec("z2xs3"), build_symmetric(3), direct_product(build_cyclic(2), build_symmetric(3))):
            assert "group" not in matfun_to_json(random_pd(grp, 1, seed=73))

    def test_table_is_embedded_unless_it_is_its_specs_standard_table(self):
        # a relabeled S3 named symmetric:3 once lost its table and read back as
        # the standard S3, on which its values are not Hermitian
        relabeled = dataclasses.replace(relabeled_s3(), name="symmetric:3")
        phi = random_pd(relabeled, 2, seed=77)
        obj = json.loads(json.dumps(matfun_to_json(phi)))
        assert obj["group_id"] == "symmetric:3" and obj["group"] == group_to_json(relabeled)
        again = matfun_from_json(obj)
        assert again.group.same_table(relabeled) and again.values.tobytes() == phi.values.tobytes()
        assert is_positive_definite(again).ok
        # a spec that names a larger group, or one no builder makes, is no table's name
        for name in ("symmetric:4", "cyclic:200000", "symmetric:9", "dihedral:1", "dihedral:1x"):
            grp = dataclasses.replace(relabeled, name=name)
            assert matfun_to_json(random_pd(grp, 1, seed=78))["group"] == group_to_json(relabeled)

    def test_standard_spec_compares_orders_before_building(self, monkeypatch):
        # a name whose spec is far larger than the table never builds that spec's table
        built, parse = [], godement.groups.parse_group_spec
        monkeypatch.setattr(godement.groups, "parse_group_spec", lambda spec: built.append(spec) or parse(spec))
        for name in ("cyclic:16384", "dihedral:3000xcyclic:2", "symmetric:9"):
            assert _standard_spec(dataclasses.replace(relabeled_s3(), name=name)) is None
        assert built == []
        assert _standard_spec(parse_group_spec("s3")) == "symmetric:3"
        assert _standard_spec(dataclasses.replace(build_symmetric(3), name="S3")) == "symmetric:3"
        assert _standard_spec(dataclasses.replace(relabeled_s3(), name="s3")) is None
        # a spec given in place of the name, as the CLI's --group check gives it
        assert _standard_spec(build_symmetric(3), "S3") == "symmetric:3"
        assert _standard_spec(relabeled_s3(), "s3") is None and _standard_spec(relabeled_s3(), "z16384") is None

    def test_embedded_table_validation_memory(self):
        # validate_group once built two (|G|, |G|, |G|) arrays: 438 MB traced at order 300
        phi = MatFun(dataclasses.replace(build_cyclic(300), name="custom"), 1, np.ones((300, 1, 1)))
        obj = matfun_to_json(phi)
        tracemalloc.start()
        try:
            again = matfun_from_json(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.group.same_table(phi.group)
        assert peak < 32 * 2**20

    def test_embedded_table_must_be_a_group(self):
        obj = matfun_to_json(random_pd(relabeled_s3(), 1, seed=74))
        obj["group"]["mult"][1][2] = obj["group"]["mult"][1][3]
        with pytest.raises(ValueError, match="not a group"):
            matfun_from_json(obj)
        obj["group"] = {"order": 6}
        with pytest.raises(ValueError, match="malformed group"):
            matfun_from_json(obj)

    def test_embedded_table_with_a_fractional_entry_is_refused(self, tmp_path, capsys):
        # int() once truncated the 1.5 to 1, and certify passed the file
        obj = matfun_to_json(random_pd(relabeled_s3(), 1, seed=74))
        obj["group"]["mult"][0][0] += 0.5
        with pytest.raises(ValueError, match="^malformed group JSON: mult must hold JSON integers, not float$"):
            matfun_from_json(obj)
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(obj))
        assert main(["certify", str(path)]) == 2
        assert "malformed group JSON" in capsys.readouterr().err

    def test_malformed(self):
        with pytest.raises(ValueError):
            matfun_from_json({"n": 1})
        with pytest.raises(ValueError):
            matfun_from_json({"group_id": "cyclic:2", "n": 1, "values": [[[[1.0, 0.0]]]]})


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


_PHI21_B64 = _b64(np.array([2, 1], dtype="<c16").tobytes())


class TestMalformedValues:
    """A values_b64 that does not decode to |G| n^2 finite complex128 entries,
    or a file with both layouts or neither, is an input error, never a verdict."""

    CASES = {
        "url_safe_alphabet": _PHI21_B64[:-2] + "-=",
        "character_outside_alphabet": "@" + _PHI21_B64[1:],
        "non_ascii": "\u00e9" + _PHI21_B64[1:],
        "embedded_newline": _PHI21_B64[:20] + "\n" + _PHI21_B64[20:],
        "padding_missing": _PHI21_B64.rstrip("="),
        "padding_in_the_middle": _PHI21_B64[:4] + "=" + _PHI21_B64[5:],
        "number": 12,
        "null": None,
        "list": [_PHI21_B64],
        "bytes": _PHI21_B64.encode("ascii"),
        "sixteen_bytes_short": _b64(np.array([2], dtype="<c16").tobytes()),
        "sixteen_bytes_long": _b64(np.array([2, 1, 0], dtype="<c16").tobytes()),
        "empty": "",
        "nan": _b64(np.array([2, complex(np.nan, 0)], dtype="<c16").tobytes()),
        "inf": _b64(np.array([2, complex(0, np.inf)], dtype="<c16").tobytes()),
        "negative_inf": _b64(np.array([-np.inf, 1], dtype="<c16").tobytes()),
    }

    def test_well_formed_reference_loads(self, z2):
        # the cases below are edits of this object
        obj = {"group_id": "cyclic:2", "n": 1, "values_b64": _PHI21_B64}
        assert np.array_equal(matfun_from_json(obj).values, phi_21(z2).values)

    @staticmethod
    def assert_refused(obj, tmp_path, capsys, match):
        with pytest.raises(ValueError, match=match):
            matfun_from_json(obj)
        if isinstance(obj.get("values_b64"), bytes):
            return  # no JSON file can hold bytes
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["certify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "malformed MatFun JSON" in captured.err

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_values_b64(self, case, tmp_path, capsys):
        obj = {"group_id": "cyclic:2", "n": 1, "values_b64": self.CASES[case]}
        self.assert_refused(obj, tmp_path, capsys, "malformed MatFun JSON")

    @pytest.mark.parametrize("keys", [("values_b64", "values"), ()])
    def test_exactly_one_layout(self, keys, z2, tmp_path, capsys):
        both = {"values_b64": _PHI21_B64, "values": legacy_json(phi_21(z2))["values"]}
        obj = {"group_id": "cyclic:2", "n": 1, **{key: both[key] for key in keys}}
        self.assert_refused(obj, tmp_path, capsys, "malformed MatFun JSON: expected exactly one of values_b64 and values")

    @pytest.mark.parametrize("entry, refusal", [
        ("x", "values must hold JSON numbers, not str"),
        ("1.23", "values must hold JSON numbers, not str"),
        (False, "values must hold JSON numbers, not bool"),
        ([0.0], "values must hold JSON numbers, not list"),
        (1, None),
    ], ids=["string", "numeric-string", "bool", "ragged", "int"])
    def test_legacy_values_must_be_json_numbers(self, entry, refusal, z2, tmp_path, capsys):
        # numpy once parsed "1.23" and read false as 0.0, so certify passed such files
        obj = legacy_json(phi_21(z2))
        obj["values"][1][0][0][1] = entry  # the imaginary part of phi(1)
        if refusal is None:
            assert matfun_from_json(obj).values[1, 0, 0] == 1.0 + 1.0j
        else:
            self.assert_refused(obj, tmp_path, capsys, f"^malformed MatFun JSON: {refusal}$")

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_must_be_positive(self, n, tmp_path, capsys):
        # n = -1 squares to 1, so these 32 bytes would pass the length check
        obj = {"group_id": "cyclic:2", "n": n, "values_b64": _PHI21_B64 if n else ""}
        self.assert_refused(obj, tmp_path, capsys, "malformed MatFun JSON: n must be positive")

    @pytest.mark.parametrize("n", [1.9, "1", True])
    def test_n_must_be_an_integer(self, n, tmp_path, capsys):
        # int() once read each of these as n = 1
        obj = {"group_id": "cyclic:2", "n": n, "values_b64": _PHI21_B64}
        self.assert_refused(obj, tmp_path, capsys, "malformed MatFun JSON: n must be a JSON integer")

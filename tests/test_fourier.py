"""The Fourier block route against the dense convolution matrix as oracle."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import godement.fourier
import godement.groups
import godement.matfun
from godement import (
    ConvMatrix,
    build_dihedral,
    build_orthogonal_pd_pair,
    build_symmetric,
    conv_matrix,
    decompose,
    extract_kernel,
    gram_pd_check,
    is_positive_definite,
    parse_group_spec,
    random_matfun,
    scale,
    spectral_truncate,
    sqrt_spectral,
    subtract,
)
from godement.fourier import fourier_basis, fourier_spectrum
from godement.operators import _hermitian_split
from conftest import random_pd, relabeled_s3
from dense_oracle import projector_leq

CYCLIC = tuple(f"z{m}" for m in range(1, 25))
DIHEDRAL = tuple(f"d{m}" for m in range(2, 13))
PRODUCTS = (
    "z2xz2", "z2xz3", "z2xz4", "z2xz6", "z2xz8", "z2xz10", "z2xz12", "z3xz3", "z3xz6",
    "z3xz8", "z4xz4", "z4xz6", "z2xz2xz2", "z2xz2xz3", "z2xz3xz4", "z2xz2xs3",
    "z2xd3", "z2xd4", "z2xd5", "z2xd6", "z3xd3", "z3xd4", "z4xd3", "d3xz4",
    "z2xq8", "z3xq8", "q8xz3", "z2xs3", "z3xs3", "z4xs3", "klein", "kleinxs3",
)
STANDARD = CYCLIC + DIHEDRAL + ("q8", "s3", "s4") + PRODUCTS
LARGE = ("s5", "z2xs4")


def group_of(spec):
    return relabeled_s3() if spec == "custom" else parse_group_spec(spec)


def inputs(grp, n, seed=0):
    """A PD, a Hermitian indefinite and a non-Hermitian function."""
    phi, psi = random_pd(grp, n, seed=600 + seed), random_pd(grp, n, seed=650 + seed)
    return phi, subtract(phi, psi), random_matfun(grp, n, seed=500 + seed)


def dense_spectrum(a):
    herm, gap, unit = _hermitian_split(conv_matrix(a).data)
    return np.linalg.eigvalsh(herm) * unit, gap * unit


def dense_root(a, pd_tol=1e-9):
    sd = decompose(conv_matrix(a))
    ev = np.where(sd.eigenvalues <= pd_tol * sd.operator_norm, 0.0, sd.eigenvalues)
    op = (sd.eigenvectors * np.sqrt(ev)) @ sd.eigenvectors.conj().T
    return extract_kernel(ConvMatrix(a.group, a.n, op)).values


def dense_cut(a, t):
    sd = decompose(conv_matrix(a))
    e, n = a.group.identity, a.n
    column = (projector_leq(sd, t) @ sd.hermitian)[:, e * n:(e + 1) * n]
    return column.reshape(a.group.order, n, n)


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("spec", STANDARD + LARGE + ("custom",))
def test_spectrum_and_verdict_match_dense(spec):
    grp = group_of(spec)
    assert spec in LARGE or grp.order <= 24
    for n in (1, 2, 3):
        verdicts = set()
        for a in inputs(grp, n):
            ev, gap = dense_spectrum(a)
            spectrum = fourier_spectrum(a, vectors=False)
            assert spectrum.eigenvalues.shape == ev.shape
            assert np.max(np.abs(spectrum.eigenvalues - ev)) <= 1e-12 * np.max(np.abs(ev))
            assert spectrum.hermitian_gap == pytest.approx(gap, rel=1e-12, abs=1e-300)
            verdict = is_positive_definite(a).verdict
            assert verdict == decompose(conv_matrix(a)).certificate().verdict
            assert gram_pd_check(a) == (verdict == "positive_definite")
            verdicts.add(verdict)
        if grp.order > 1:
            assert verdicts == {"positive_definite", "not_positive_definite", "not_hermitian"}


@pytest.mark.parametrize("spec", STANDARD + LARGE + ("custom",))
def test_roots_and_cuts_match_dense(spec):
    grp = group_of(spec)
    for n in (1, 2, 3):
        phi = random_pd(grp, n, seed=700 + n)
        ev, _ = dense_spectrum(phi)
        t = float(np.median(ev))
        # the pieces of an orthogonal pair have kernels of rounding-level eigenvalues
        pieces = build_orthogonal_pd_pair(phi, t) if grp.order > 1 else ()
        for f in (phi, *pieces):
            assert rel_err(sqrt_spectral(f).psi.values, dense_root(f)) <= 1e-10
        assert rel_err(spectral_truncate(phi, t).values, dense_cut(phi, t)) <= 1e-10
        for s in (ev[0] / 2, t, ev[-1]):
            cut = spectral_truncate(phi, s)
            assert np.linalg.norm(cut.values - dense_cut(phi, s)) <= 1e-10 * np.linalg.norm(phi.values)


@pytest.mark.parametrize("spec", ("z6", "d4", "q8", "s3", "s4", "z2xd6", "custom"))
def test_scale_invariant(spec):
    grp = group_of(spec)
    for n in (1, 2):
        phi = random_pd(grp, n, seed=800)
        ev = fourier_spectrum(phi).eigenvalues
        t = float(np.median(ev))
        root, cut = sqrt_spectral(phi).psi.values, spectral_truncate(phi, t).values
        for a in inputs(grp, n, seed=1):
            verdict = is_positive_definite(a).verdict
            for c in (1e-150, 1e-100, 1.0, 1e100, 1e200):
                assert is_positive_definite(scale(c, a)).verdict == verdict, c
        for c in (1e-150, 1e-100, 1.0, 1e100, 1e200):
            scaled = fourier_spectrum(scale(c, phi))
            assert np.max(np.abs(scaled.eigenvalues / c - ev)) <= 1e-12 * ev[-1], c
            assert rel_err(scaled.cut(c * t).values / c, cut) <= 1e-12, c
            if c <= 1e100:  # at 1e200 the residual check overflows and fails (test_roots)
                assert rel_err(sqrt_spectral(scale(c, phi)).psi.values / np.sqrt(c), root) <= 1e-12, c


@pytest.mark.parametrize("spec", ("z1", "z6", "d4", "q8", "s3", "s4", "z2xd6", "custom"))
def test_hermitian_gap_is_the_numpy_norm_expression(spec):
    # suite output depends on the gap rounding as it did through numpy.linalg.norm
    grp = group_of(spec)
    for n in (1, 2, 3):
        for a in inputs(grp, n, seed=2):
            for c in (1e-200, 1.0, 3.0, 1e200):
                values = scale(c, a).values
                peak = float(np.max(np.abs(values)))
                unit = float(np.ldexp(1.0, int(np.frexp(peak)[1]) - 1)) if peak else 1.0
                scaled = values / unit
                adjoint = np.conj(scaled[grp.inv]).transpose(0, 2, 1)
                want = float(np.sqrt(grp.order) * np.linalg.norm(scaled - adjoint)) * unit
                assert fourier_spectrum(scale(c, a), vectors=False).hermitian_gap == want, (n, c)


@pytest.mark.parametrize("spec", ("d4", "q8", "s4", "z2xd6", "z3xq8", "custom") + LARGE)
def test_basis_blocks_a_representation(spec):
    grp = group_of(spec)
    basis = fourier_basis(grp)
    q = np.concatenate([v for c in basis.classes for v in c.vectors], axis=1)
    assert np.linalg.norm(q.T @ q - np.eye(grp.order)) <= 1e-13 * grp.order
    for cls in basis.classes:
        # pi(g) pi(h) = pi(gh) for every type, and L(g) V = V pi(g) for every
        # copy V, which carries the representation of its type
        prods = np.einsum("kgab,khbc->kghac", cls.reps, cls.reps)
        assert np.max(np.abs(prods - cls.reps[:, grp.mult])) <= 1e-12
        moved = cls.vectors[:, grp.mult[grp.inv]]  # (L(g) V)[x] = V[g^-1 x]
        assert np.max(np.abs(moved - cls.vectors[:, None] @ cls.reps[cls.types])) <= 1e-12


def test_irreducible_dimensions():
    # real invariant subspaces: d_pi copies of each real-type irreducible of
    # dimension d_pi; a complex pair or a quaternionic one merges into 2 d_pi
    def sizes(spec):
        return sorted(v.shape[1] for c in fourier_basis(parse_group_spec(spec)).classes for v in c.vectors)
    assert sizes("s3") == [1, 1, 2, 2]
    assert sizes("q8") == [1, 1, 1, 1, 4]
    assert sizes("z5") == [1, 2, 2]
    assert sizes("s4") == [1, 1, 2, 2] + [3] * 6
    assert sizes("s5") == [1, 1] + [4] * 8 + [5] * 10 + [6] * 6
    assert sizes("z2xs5") == [1] * 4 + [4] * 16 + [5] * 20 + [6] * 12


@pytest.mark.parametrize("spec", ("z6", "d4", "q8", "s3", "s4", "s5", "z2xs4", "z2xd6", "z3xq8", "z2xs5", "q8xq8"))
def test_type_count_from_the_table(spec):
    # the real irreducibles are counted by the classes up to inversion: a
    # class C with C = C^-1 gives one, a pair C, C^-1 another, so there are
    # (k + k_real) / 2 of them for k classes, k_real of them with C = C^-1
    grp = parse_group_spec(spec)
    classes = {frozenset(int(grp.mult[grp.mult[x, g], grp.inv[x]]) for x in range(grp.order))
               for g in range(grp.order)}
    real = [c for c in classes if {int(grp.inv[g]) for g in c} == c]
    basis = fourier_basis(grp)
    assert sum(len(c.reps) for c in basis.classes) == (len(classes) + len(real)) // 2


def test_one_block_per_type():
    # the copies of one irreducible carry one representation and share one
    # block: S4 has 10 invariant subspaces of 5 types, S5 26 of 7, z2xs5 52 of 14
    for spec, copies, types in (("s3", 4, 3), ("s4", 10, 5), ("s5", 26, 7), ("z2xs5", 52, 14)):
        grp = parse_group_spec(spec)
        basis = fourier_basis(grp)
        assert sum(len(c.types) for c in basis.classes) == copies
        assert sum(len(c.reps) for c in basis.classes) == types
        assert sum(int(c.multiplicities.sum()) for c in basis.classes) == copies
        spectrum = fourier_spectrum(random_pd(grp, 2, seed=950), vectors=False)
        assert sum(len(values) for values, _ in spectrum.blocks) == types
        assert spectrum.eigenvalues.size == 2 * grp.order
    s5 = fourier_basis(parse_group_spec("s5"))
    assert [(c.reps.shape[2], c.multiplicities.tolist()) for c in s5.classes] == [
        (1, [1, 1]), (4, [4, 4]), (5, [5, 5]), (6, [6])]


def test_blocks_and_kernel_are_inverse():
    for spec in ("s3", "q8", "s4", "z3xq8", "custom"):
        grp = group_of(spec)
        basis = fourier_basis(grp)
        for n in (1, 2):
            a = random_matfun(grp, n, seed=960 + n)
            assert rel_err(basis.kernel(basis.blocks(a.values)), a.values) <= 1e-13


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def blocks_by_class(basis, values):
    """FourierBasis.blocks as a reshape and transpose per class, which the
    layout plan's one gather replaced."""
    order, n = values.shape[0], values.shape[1]
    flat = np.ascontiguousarray(values, dtype=np.complex128).reshape(order, n * n)
    coeffs = (basis.forward @ flat.view(np.float64)).view(np.complex128)
    blocks, start = [], 0
    for cls in basis.classes:
        k, m = cls.reps.shape[0], cls.reps.shape[2]
        rows = coeffs[start:start + k * m * m]
        start += k * m * m
        blocks.append(rows.reshape(k, m, m, n, n).transpose(0, 1, 3, 2, 4).reshape(k, m * n, m * n))
    return blocks


def kernel_by_class(basis, blocks):
    """FourierBasis.kernel as a transpose per class and a concatenation."""
    n = blocks[0].shape[1] // basis.classes[0].reps.shape[2]
    rows = np.concatenate([b.reshape(b.shape[0], b.shape[1] // n, n, -1, n).transpose(0, 1, 3, 2, 4)
                           .reshape(-1, n * n) for b in blocks])
    values = (basis.inverse @ rows.view(np.float64)).view(np.complex128)
    return values.reshape(basis.inverse.shape[0], n, n)


def spectrum_by_class(a, vectors):
    """fourier_spectrum's blocks and eigenvalues with a solver call on every
    block and the multiplicities repeated per class."""
    basis = fourier_basis(a.group)
    unit = godement.matfun._power_of_two_unit(a.values)
    scaled = a.values / unit
    herm = (scaled + godement.matfun._adjoint(a.group, scaled)) / 2.0
    blocks = []
    for b in blocks_by_class(basis, herm):
        if vectors:
            values, vecs = np.linalg.eigh(b)
            blocks.append((values * unit, vecs))
        else:
            blocks.append((np.linalg.eigvalsh(b) * unit, None))
    eigenvalues = np.sort(np.concatenate([np.repeat(values, cls.multiplicities, axis=0).ravel()
                                          for cls, (values, _) in zip(basis.classes, blocks)]))
    return blocks, eigenvalues


@pytest.mark.parametrize("spec", STANDARD + LARGE + ("z2xs5", "custom"))
def test_layout_plan_is_the_per_class_layout_bitwise(spec):
    # blocks and kernel gather through one cached index each, and a spectrum
    # repeats its eigenvalues through a third; every result is the per-class
    # expression's, bit for bit
    grp = group_of(spec)
    basis = fourier_basis(grp)
    for n in (1, 2, 3):
        a = random_matfun(grp, n, seed=980 + n)
        blocks = basis.blocks(a.values)
        want = blocks_by_class(basis, a.values)
        assert len(blocks) == len(want) and all(same_bits(b, w) for b, w in zip(blocks, want)), n
        assert all(b.base is blocks[0].base for b in blocks)  # views of one gathered array
        assert same_bits(basis.kernel(blocks), kernel_by_class(basis, want)), n
        # the block root hands kernel corners of a zero-padded stack, which are not contiguous
        side = max(b.shape[1] for b in want)
        padded = [np.zeros((len(b), side + 1, side + 1), dtype=np.complex128) for b in want]
        for p, b in zip(padded, want):
            p[:, :b.shape[1], :b.shape[1]] = b
        corners = [p[:, :b.shape[1], :b.shape[1]] for p, b in zip(padded, want)]
        assert same_bits(basis.kernel(corners), kernel_by_class(basis, want)), n
        phi = random_pd(grp, n, seed=990 + n)
        for vectors in (True, False):
            spectrum = fourier_spectrum(phi, vectors=vectors)
            want_blocks, want_eigenvalues = spectrum_by_class(phi, vectors)
            assert same_bits(spectrum.eigenvalues, want_eigenvalues), (n, vectors)
            for (values, vecs), (want_values, want_vecs) in zip(spectrum.blocks, want_blocks, strict=True):
                assert same_bits(values, want_values), (n, vectors)
                assert vecs is want_vecs is None or same_bits(vecs, want_vecs), (n, vectors)
    assert basis._plan(2) is basis._plan(2) and not basis._plan(2).gather.flags.writeable


def test_plan_and_draw_index_first_build_race():
    # more threads than cores race on the first build of a fresh table's
    # layout plan and composite draw index; each keeps one object and every
    # thread gets the same bits
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            grp = build_symmetric(4)  # fresh: parse_group_spec would share one built table
            basis = fourier_basis(grp)
            f = random_matfun(grp, 3, seed=975)
            barrier, got = threading.Barrier(8), []

            def worker():
                barrier.wait(timeout=10)
                got.append((basis._plan(3), godement.matfun._pd_values(grp, f.values), fourier_spectrum(f)))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 8 and all(plan is basis._plan(3) for plan, _, _ in got)
            assert all(same_bits(pd, got[0][1]) for _, pd, _ in got)
            assert all(same_bits(sp.eigenvalues, got[0][2].eigenvalues) for _, _, sp in got)
            want = godement.matfun._conv_kernel(grp, godement.matfun._adjoint(grp, f.values), f.values)
            assert same_bits(got[0][1], want)
    finally:
        sys.setswitchinterval(old_interval)


# entries at the edges of float64: signed zeros, subnormals and near-overflow
SIDE_ONE = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.5, -2.25])


@pytest.mark.parametrize("imag", [0.0, -0.0, 1e-300, 3.0], ids=["zero", "negative-zero", "tiny", "three"])
def test_side_one_blocks_need_no_solver(imag):
    # ?heevd returns the real entry and the eigenvector 1 for N = 1; the
    # imaginary part of a Hermitian 1 x 1 block is never read
    b = np.empty((SIDE_ONE.size, 1, 1), dtype=np.complex128)
    b.real[:, 0, 0], b.imag[:, 0, 0] = SIDE_ONE, imag
    values, vectors = godement.fourier._solve(b, True)
    want_values, want_vectors = np.linalg.eigh(b)
    assert same_bits(values, want_values) and same_bits(vectors, want_vectors)
    values, vectors = godement.fourier._solve(b, False)
    assert same_bits(values, np.linalg.eigvalsh(b)) and vectors is None


@pytest.mark.parametrize("spec", ("z1", "z2xz2xz2", "q8", "z2xq8"))
def test_side_one_apply_is_the_product_bitwise(spec, monkeypatch):
    # a 1 x 1 block's part is f of its eigenvalue, as the product with its
    # eigenvector 1 computes it, signed zeros included: the parts kernel
    # receives are the products' bits, and so is the function
    grp = parse_group_spec(spec)
    spectrum = fourier_spectrum(random_pd(grp, 1, seed=995))
    functions = (lambda ev: ev, lambda ev: -ev, lambda ev: np.where(ev <= 0.0, 0.0, ev),
                 lambda ev: np.sqrt(np.abs(ev)), lambda ev: np.where(ev <= 1.0, ev, 0.0))
    kernel, seen = godement.fourier.FourierBasis.kernel, []
    monkeypatch.setattr(godement.fourier.FourierBasis, "kernel", lambda basis, parts: seen.append(parts)
                        or kernel(basis, parts))
    for shift in range(SIDE_ONE.size):
        blocks = tuple((np.resize(np.roll(SIDE_ONE, shift), values.shape) if vectors.shape[1] == 1 else values, vectors)
                       for values, vectors in spectrum.blocks)
        assert any(vectors.shape[1] == 1 for _, vectors in blocks)
        patched = dataclasses.replace(spectrum, blocks=blocks)
        for f in functions:
            parts = [(vectors * f(values)[:, None, :]) @ vectors.conj().swapaxes(1, 2) for values, vectors in blocks]
            seen.clear()
            got = patched.apply(f).values
            assert all(same_bits(np.asarray(g, dtype=np.complex128), w) for g, w in zip(seen[0], parts, strict=True))
            assert same_bits(got, kernel(spectrum.basis, parts)), shift


def test_copy_failing_alignment_stays_its_own_type(monkeypatch):
    grp = build_symmetric(4)  # fresh, as below
    basis = fourier_basis(grp)
    three = basis.classes[-1]  # two inequivalent 3-dimensional types, three copies each
    gens, _ = godement.groups._generating_set(grp)
    moves = grp.mult[grp.inv[gens]]
    first, other = (int(np.flatnonzero(three.types == t)[0]) for t in (0, 1))
    copy = three.vectors[first]
    assert godement.fourier._aligned(copy, three.reps[0], three.reps[0], moves, gens) is not None
    assert godement.fourier._aligned(copy, three.reps[0], three.reps[1], moves, gens) is None
    # with every alignment refused, each subspace is a type of its own and
    # the results are those of solving every copy separately
    monkeypatch.setattr(godement.fourier, "_aligned", lambda *args: None)
    grp = build_symmetric(4)
    assert sum(len(c.reps) for c in fourier_basis(grp).classes) == 10
    phi = random_pd(grp, 2, seed=970)
    ev, _ = dense_spectrum(phi)
    assert np.max(np.abs(fourier_spectrum(phi).eigenvalues - ev)) <= 1e-12 * ev[-1]
    assert rel_err(sqrt_spectral(phi).psi.values, dense_root(phi)) <= 1e-10


def test_split_eigenspace_is_merged(monkeypatch):
    # a probe whose eigenvalues all lie within 1e-7 of each other: eigh
    # mixes neighbouring eigenspaces at ~1e-9, which only the invariance
    # check on the generators can see.  Block eigenvalues err only to second
    # order in that mixing; roots and cuts err to first order (~1e-8 unchecked)
    def near_identity(group):
        h = 1e-7 * np.random.default_rng(0).standard_normal(group.order)
        h = (h + h[group.inv]) / 2.0
        h[group.identity] += 1.0
        return h

    monkeypatch.setattr(godement.fourier, "_probe", near_identity)
    grp = build_symmetric(4)  # a fresh table: the shared one from parse_group_spec may have its basis
    basis = fourier_basis(grp)
    assert max(c.vectors.shape[2] for c in basis.classes) > 3  # merged past any irreducible
    for a in inputs(grp, 2):
        ev, _ = dense_spectrum(a)
        assert np.max(np.abs(fourier_spectrum(a).eigenvalues - ev)) <= 1e-12 * np.max(np.abs(ev))
    phi = inputs(grp, 2)[0]
    t = float(np.median(dense_spectrum(phi)[0]))
    assert rel_err(sqrt_spectral(phi).psi.values, dense_root(phi)) <= 1e-10
    assert rel_err(spectral_truncate(phi, t).values, dense_cut(phi, t)) <= 1e-10


def test_one_block_when_nothing_separates(monkeypatch):
    monkeypatch.setattr(godement.fourier, "_probe", lambda group: np.zeros(group.order))
    grp = build_dihedral(4)  # a fresh table, as above
    basis = fourier_basis(grp)
    assert [c.vectors.shape for c in basis.classes] == [(1, 8, 8)]
    phi = random_pd(grp, 2, seed=900)
    ev, _ = dense_spectrum(phi)
    assert np.max(np.abs(fourier_spectrum(phi).eigenvalues - ev)) <= 1e-12 * ev[-1]
    assert rel_err(sqrt_spectral(phi).psi.values, dense_root(phi)) <= 1e-10


def test_basis_first_build_race():
    # more threads than cores race on the first build of a fresh table's basis
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            grp = build_symmetric(4)  # fresh: parse_group_spec would share one built table
            barrier, got = threading.Barrier(8), []

            def worker():
                barrier.wait(timeout=10)
                got.append(fourier_basis(grp))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 8 and all(basis is got[0] for basis in got)
            assert fourier_basis(grp) is got[0]
    finally:
        sys.setswitchinterval(old_interval)
    with pytest.raises(ValueError):
        got[0].forward[0, 0] = 1.0

"""The Fourier block route against the dense convolution matrix as oracle."""

import sys
import threading

import numpy as np
import pytest

import godement.fourier
from godement import (
    ConvMatrix,
    build_orthogonal_pd_pair,
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
    truncation_sequence,
)
from godement.fourier import fourier_basis, fourier_spectrum
from godement.operators import _hermitian_split
from conftest import random_pd, relabeled_s3

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
    sd = decompose(conv_matrix(a), hermitian_tol=np.inf)
    ev = np.where(sd.eigenvalues <= pd_tol * sd.operator_norm, 0.0, sd.eigenvalues)
    op = (sd.eigenvectors * np.sqrt(ev)) @ sd.eigenvectors.conj().T
    return extract_kernel(ConvMatrix(a.group, a.n, op)).values


def dense_cut(a, t):
    sd = decompose(conv_matrix(a), hermitian_tol=np.inf)
    e, n = a.group.identity, a.n
    column = (sd.projector_leq(t) @ sd.hermitian)[:, e * n:(e + 1) * n]
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
            assert verdict == decompose(conv_matrix(a), hermitian_tol=np.inf).certificate().verdict
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
        for cut, s in zip(truncation_sequence(phi, [ev[0] / 2, t, ev[-1]]), (ev[0] / 2, t, ev[-1])):
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


@pytest.mark.parametrize("spec", ("d4", "q8", "s4", "z2xd6", "z3xq8", "custom"))
def test_basis_blocks_a_representation(spec):
    grp = group_of(spec)
    basis = fourier_basis(grp)
    q = basis.columns
    assert np.linalg.norm(q.T @ q - np.eye(grp.order)) <= 1e-13 * grp.order
    for cls in basis.classes:
        reps = cls.reps
        # pi(g) pi(h) = pi(gh) and L(g) V = V pi(g) for every pair of elements
        prods = np.einsum("kgab,khbc->kghac", reps, reps)
        assert np.max(np.abs(prods - reps[:, grp.mult])) <= 1e-12
        moved = cls.vectors[:, grp.mult[grp.inv]]  # (L(g) V)[x] = V[g^-1 x]
        assert np.max(np.abs(moved - cls.vectors[:, None] @ reps)) <= 1e-12


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
    grp = parse_group_spec("s4")
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
    grp = parse_group_spec("d4")
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
            grp = parse_group_spec("s4")
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

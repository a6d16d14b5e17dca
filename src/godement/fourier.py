"""Fourier (Peter-Weyl) block form of convolution operators.

The convolution operator of a matrix function a is C = sum_g L(g) (x) a(g),
where L is the left regular representation, (L(g) u)(x) = u(g^-1 x).  A
real orthonormal basis of R^G split into L-invariant subspaces V_j, with
L(g) V_j = V_j pi_j(g), makes C block diagonal:

    (V_j (x) I)^T C (V_j (x) I) = B_j = sum_g pi_j(g) (x) a(g).

So the spectrum of C is the union of the block spectra, C is positive
semidefinite exactly when every block is, and a spectral function f(C) is
again a convolution operator whose kernel is its block column at the
identity e:

    f(a)(x) = sum_j (V_j[x] (x) I) f(B_j) (V_j[e] (x) I)^T.

The basis is built once per group table and cached on it.  Each V_j is an
eigenspace of one real symmetric right-convolution matrix, which commutes
with every L(g); irreducible subspaces of complex or quaternionic type come
out merged into real ones, which is harmless, since a sum of invariant
subspaces is invariant.  What would not be harmless is an eigenspace split
by the clustering, so every V_j is checked for invariance on a generating
set, and one that fails is merged with its neighbours; in the worst case a
single block remains, which is C itself in another basis.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .groups import GroupTable, _generating_set
from .matfun import MatFun

__all__ = ["FourierBasis", "FourierSpectrum", "fourier_basis", "fourier_spectrum", "count_leq"]

# The probe function is the same in every process, so is the basis.
_PROBE_KEY = b"godement-fourier-probe"
# Probe eigenvalues closer than this, relative to the largest, form one cluster.
_CLUSTER_REL = 1e-9
# Largest defect ||L(s) V - V pi(s)||_F of an accepted subspace on a
# generator s; V has orthonormal columns, so the defect is relative.  The
# eigenvector error of eigh, and so the defect, grows like rounding over the
# gap to the next probe eigenvalue: it stays below 7e-13 on the standard
# groups up to order 120 that the tests cover, but two nearly equal probe
# eigenvalues of z2xs5 (relative gap 7e-5) give 3.5e-12, and those
# subspaces are merged.
_INVARIANCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class _SizeClass:
    """The k invariant subspaces of one dimension m."""

    vectors: np.ndarray  # (k, |G|, m): orthonormal columns of each V_j
    reps: np.ndarray  # (k, |G|, m, m): pi_j(g)


@dataclass(frozen=True, eq=False)
class FourierBasis:
    """Invariant subspaces of the left regular representation, grouped by size.

    forward stacks, for every class in order, the entries pi_j(g)[alpha,
    beta] as rows (j, alpha, beta) with one column per element g, so the
    blocks of every subspace come from one product forward @ a.
    columns holds the V_j side by side in the same order.
    """

    classes: tuple[_SizeClass, ...]
    forward: np.ndarray  # (sum k m^2, |G|)
    columns: np.ndarray  # (|G|, |G|)


def _probe(group: GroupTable) -> np.ndarray:
    """Real h with h(g^-1) = h(g), so that R[x, y] = h(x^-1 y) is symmetric.

    The values are uniform in [-1/2, 1/2), hashed from the key and the
    element index.  A hash rather than numpy.random: importing that
    package would cost every fresh process about 20 ms.
    """
    digests = (hashlib.sha256(_PROBE_KEY + g.to_bytes(4, "big")).digest() for g in range(group.order))
    h = np.array([int.from_bytes(d[:7], "big") for d in digests]) / 2.0**56 - 0.5
    return (h + h[group.inv]) / 2.0


def _invariant_ranges(on_gens: np.ndarray, bounds: list[int]) -> list[tuple[int, int]]:
    """Merge the column ranges of an orthogonal q between bounds until each
    spans a subspace invariant under the generators.

    on_gens[s] = q^T L(s) q.  For V = q[:, c] and pi(s) = V^T L(s) V, the
    defect ||L(s) V - V pi(s)||_F is the norm of the entries of
    on_gens[s][:, c] in the rows outside c, since q is orthogonal.
    """
    squares = on_gens ** 2
    while len(bounds) > 2:  # a single range is the whole space, invariant by construction
        starts = bounds[:-1]
        sums = np.add.reduceat(np.add.reduceat(squares, starts, axis=1), starts, axis=2)
        outside = 1.0 - np.eye(len(starts))  # the diagonal is dropped, not subtracted
        defects = np.sqrt(np.max((sums * outside).sum(axis=1), axis=0, initial=0.0))
        failing = np.flatnonzero(~(defects <= _INVARIANCE_TOL))
        if not failing.size:
            break
        merged = {bounds[i] for i in failing} | {bounds[i + 1] for i in failing}
        bounds = [b for b in bounds if b in (0, bounds[-1]) or b not in merged]
    return list(zip(bounds[:-1], bounds[1:]))


def _word_plan(group: GroupTable, letters: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first levels (new, parent, letter) with new = parent * letters[letter]."""
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    frontier = np.array([group.identity], dtype=np.intp)
    levels = []
    while frontier.size:
        reached = group.mult[np.ix_(frontier, letters)].ravel()
        where = np.full(group.order, -1, dtype=np.intp)
        where[reached] = np.arange(reached.size)  # one position of each reached element
        fresh = np.flatnonzero((where >= 0) & ~seen)
        if fresh.size:
            levels.append((fresh, frontier[where[fresh] // letters.size], where[fresh] % letters.size))
        seen[fresh] = True
        frontier = fresh
    return levels


def _build_basis(group: GroupTable, h: np.ndarray) -> FourierBasis:
    order = group.order
    w, q = np.linalg.eigh(h[group.mult[group.inv]])
    gap = _CLUSTER_REL * max(abs(w[0]), abs(w[-1]), 1e-300)
    bounds = [0, *(np.flatnonzero(np.diff(w) > gap) + 1).tolist(), order]
    gens, _ = _generating_set(group)
    on_gens = q.T @ q[group.mult[group.inv[gens]]]  # q^T L(s) q, as (L(s) q)[x] = q[s^-1 x]
    ranges = _invariant_ranges(on_gens, bounds)
    letters = np.concatenate([gens, group.inv[gens]])
    plan = _word_plan(group, letters)
    classes = []
    for m in sorted({hi - lo for lo, hi in ranges}):
        chosen = [(lo, hi) for lo, hi in ranges if hi - lo == m]
        on_letters = np.stack([on_gens[:, lo:hi, lo:hi] for lo, hi in chosen])
        on_letters = np.concatenate([on_letters, on_letters.swapaxes(2, 3)], axis=1)  # pi(s^-1) = pi(s)^T
        # pi_j(g) for every g, as products of the letter matrices along words
        reps = np.empty((len(chosen), order, m, m))
        reps[:, group.identity] = np.eye(m)
        for fresh, parent, letter in plan:
            reps[:, fresh] = reps[:, parent] @ on_letters[:, letter]
        classes.append(_SizeClass(np.stack([q[:, lo:hi] for lo, hi in chosen]), reps))
    forward = np.concatenate([c.reps.transpose(0, 2, 3, 1).reshape(-1, order) for c in classes])
    columns = np.concatenate([np.concatenate(list(c.vectors), axis=1) for c in classes], axis=1)
    for array in (forward, columns, *(a for c in classes for a in (c.vectors, c.reps))):
        array.flags.writeable = False  # shared by every caller through the cache
    return FourierBasis(tuple(classes), forward, columns)


def fourier_basis(group: GroupTable) -> FourierBasis:
    """The invariant-subspace basis of group, built once and cached on the table.

    Threads that race on a first build compute equal bases and
    setdefault keeps one of them.
    """
    cache = group._fourier_cache
    basis = cache.get("basis")
    if basis is None:
        basis = cache.setdefault("basis", _build_basis(group, _probe(group)))
    return basis


def _power_of_two_unit(values: np.ndarray) -> float:
    """The power of two that brings the largest |entry| into [1, 2), or 1.

    Dividing by it is exact, and sums of squares of the quotient can
    neither overflow nor underflow.
    """
    peak = float(np.max(np.abs(values), initial=0.0))
    return float(np.ldexp(1.0, int(np.frexp(peak)[1]) - 1)) if 0.0 < peak < np.inf else 1.0


def count_leq(eigenvalues: np.ndarray, t: float, cluster_rel: float = 1e-10) -> int:
    """How many of the ascending eigenvalues a spectral cut at t keeps.

    Exactly degenerate eigenvalues come back from a solver split at
    rounding level; a threshold landing inside such a cluster would keep
    a basis-dependent part of the eigenspace.  The cut therefore absorbs
    any whole cluster it touches, and an eigenvalue within that rounding
    above t counts as equal to t, so a cut at a computed eigenvalue keeps
    it whichever solver computed t.
    """
    ev = eigenvalues
    gap = cluster_rel * max(abs(ev[0]), abs(ev[-1]), 1e-300)
    count = int(np.searchsorted(ev, t + gap, side="right"))
    while 0 < count < ev.size and ev[count] - ev[count - 1] <= gap:
        count += 1
    return count


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Block eigensystems of the Hermitian part H of the convolution operator of a.

    blocks holds, per size class, the eigenvalues (k, m n) and, when
    requested, the eigenvectors (k, m n, m n) of its blocks.  eigenvalues
    is the whole spectrum of H, ascending.  hermitian_gap is
    ||C - C^H||_F = sqrt(|G|) ||a - a*||_F.
    """

    basis: FourierBasis
    group: GroupTable
    n: int
    blocks: tuple[tuple[np.ndarray, np.ndarray | None], ...]
    eigenvalues: np.ndarray
    hermitian_gap: float

    @property
    def operator_norm(self) -> float:
        """||H||_2 = max(|lambda_min|, |lambda_max|)."""
        return max(abs(float(self.eigenvalues[0])), abs(float(self.eigenvalues[-1])))

    def apply(self, f) -> MatFun:
        """The function whose convolution operator is f(H), for f acting
        elementwise on eigenvalue arrays."""
        n, e = self.n, self.group.identity
        parts = []
        for cls, (values, vectors) in zip(self.basis.classes, self.blocks):
            k, m = cls.vectors.shape[0], cls.vectors.shape[2]
            at_e = (cls.vectors[:, e, :, None, None] * np.eye(n)).reshape(k, m * n, n)  # (V_j[e] (x) I)^T
            weights = vectors @ (f(values)[..., None] * (vectors.conj().swapaxes(1, 2) @ at_e))
            parts.append(weights.reshape(k * m, n * n))
        kernel = self.basis.columns @ np.concatenate(parts)
        return MatFun(self.group, n, kernel.reshape(self.group.order, n, n))

    def cut(self, t: float) -> MatFun:
        """The spectral cut at t: f(H) with f(lambda) = lambda on the
        eigenvalues count_leq keeps and 0 elsewhere."""
        count = count_leq(self.eigenvalues, t)
        top = self.eigenvalues[count - 1] if count else -np.inf
        return self.apply(lambda ev: np.where(ev <= top, ev, 0.0))


def fourier_spectrum(a: MatFun, vectors: bool = True) -> FourierSpectrum:
    """Spectrum of the Hermitian part of the convolution operator of a, block by block.

    a is first divided by the power of two near its largest entry, so
    neither the gap nor the blocks can overflow; one product builds the
    blocks of every subspace and one batched eigh (eigvalsh without
    vectors) per block size solves them.
    """
    group, n = a.group, a.n
    basis = fourier_basis(group)
    unit = _power_of_two_unit(a.values)
    scaled = a.values / unit
    adjoint = np.conj(scaled[group.inv]).transpose(0, 2, 1)
    gap = float(np.sqrt(group.order) * np.linalg.norm(scaled - adjoint)) * unit
    herm = np.ascontiguousarray((scaled + adjoint) / 2.0).reshape(group.order, n * n)
    coeffs = (basis.forward @ herm.view(np.float64)).view(np.complex128)
    blocks, start = [], 0
    for cls in basis.classes:
        k, m = cls.vectors.shape[0], cls.vectors.shape[2]
        rows = coeffs[start:start + k * m * m]
        start += k * m * m
        b = rows.reshape(k, m, m, n, n).transpose(0, 1, 3, 2, 4).reshape(k, m * n, m * n)
        if vectors:
            values, vecs = np.linalg.eigh(b)
            blocks.append((values * unit, vecs))
        else:
            blocks.append((np.linalg.eigvalsh(b) * unit, None))
    eigenvalues = np.sort(np.concatenate([values.ravel() for values, _ in blocks]))
    return FourierSpectrum(basis, group, n, tuple(blocks), eigenvalues, gap)

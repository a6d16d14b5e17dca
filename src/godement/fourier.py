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

The basis is built once per group table and cached on it, in two stages.
The convolution matrix of a real class function symmetric under inversion
commutes with every left and right translation, and its eigenspaces are
the real isotypic components (Serre, Linear Representations of Finite
Groups, 2.6); a complex pair pi, conj(pi) shares one.  In each component
U, the eigenspaces of U^T R U, for a real symmetric right-convolution
matrix R (which commutes with every L(g)), split U into its copies V_j.
Every V_j is checked for invariance on a generating set, and one that
fails, split by the clustering, is merged with its neighbours.

The copies of one component are of one type, so each further copy V_c is
rotated onto the component's first copy V_r by the intertwiner

    W = sum_g pi_c(g) E pi_r(g)^T,  E the matrix unit that makes W largest,

so that pi_c(g) W = W pi_r(g).  Between equivalent irreducibles every
nonzero intertwiner is a scalar times an orthogonal matrix, for real,
complex and quaternionic type alike, so W scaled to W^T W = I makes V_c W
an orthonormal copy that carries pi_r exactly; a rotated copy that fails
the invariance check (or W^T W = I) stays a type of its own.  So one
block per type is solved, and a spectrum and the Plancherel norm
||a||_2^2 = sum_t mu_t ||B_t||_F^2 / |G| weight type t by its mu_t copies.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .groups import GroupTable, _generating_set, _generator_words
from .matfun import MatFun, _adjoint, _frobenius, _power_of_two_unit

__all__ = ["FourierBasis", "FourierSpectrum", "fourier_basis", "fourier_spectrum", "count_leq"]

# The probe function is the same in every process, so is the basis.
_PROBE_KEY = b"godement-fourier-probe"
# Eigenvalues of either stage closer than this, relative to the largest, form one cluster.
_CLUSTER_REL = 1e-9
# Largest defect ||L(s) V - V pi(s)||_F of an accepted subspace on a
# generator s; V has orthonormal columns, so the defect is relative.  The
# eigenvector error of eigh, and so the defect, grows like rounding over the
# gap to the next eigenvalue of either stage: it stays below 4e-13 on the
# standard groups up to order 240 that the tests cover.
_INVARIANCE_TOL = 1e-12
# Eigenvalues of a spectrum closer than this, relative to the largest, are
# one cluster that a spectral cut keeps or drops whole (count_leq).
_CUT_CLUSTER_REL = 1e-10


@dataclass(frozen=True, eq=False)
class _SizeClass:
    """The invariant subspaces of one dimension m, of k types: every copy
    carries its type's pi_t exactly, so the class has k blocks."""

    vectors: np.ndarray  # (c, |G|, m): orthonormal columns of each copy V_j
    types: np.ndarray  # (c,): the type of each copy, an index into reps
    reps: np.ndarray  # (k, |G|, m, m): pi_t(g) of each type
    multiplicities: np.ndarray  # (k,): copies of each type


@dataclass(frozen=True, eq=False)
class _Plan:
    """Where the blocks of one (basis, n) sit, as flat gather indices.

    blocks holds, class after class, the (k, m n, m n) blocks of every type
    flattened: blocks = coefficients.ravel()[gather], for the (sum k m^2,
    n^2) coefficients of forward @ a, and the coefficients are
    blocks[scatter].  block_spans gives each class's (start, stop, k, m n)
    in blocks, and value_spans each class's (start, stop) in the flat block
    eigenvalues, whose gather through repeat lists each type's eigenvalues
    once per copy, as np.repeat by the multiplicities would.
    """

    gather: np.ndarray  # (sum k (m n)^2,)
    scatter: np.ndarray  # (sum k m^2, n^2)
    repeat: np.ndarray  # (|G| n,)
    block_spans: tuple[tuple[int, int, int, int], ...]
    value_spans: tuple[tuple[int, int], ...]


def _build_plan(classes: tuple[_SizeClass, ...], n: int) -> _Plan:
    """The layout of n x n blocks: the per-class reshapes and transposes of
    blocks and kernel, and the repeat of a spectrum, run once on indices."""
    rows = sum(len(c.reps) * c.reps.shape[2] ** 2 for c in classes)
    coeff_at = np.arange(rows * n * n).reshape(rows, n * n)
    gather, scatter, repeat, block_spans, value_spans = [], [], [], [], []
    start = block_at = value_at = 0
    for c in classes:
        k, m = c.reps.shape[0], c.reps.shape[2]
        side = m * n
        # row (t, alpha, beta), column (i, j) -> block t, entry (alpha n + i, beta n + j)
        gather.append(coeff_at[start:start + k * m * m].reshape(k, m, m, n, n).transpose(0, 1, 3, 2, 4).ravel())
        block_cells = np.arange(block_at, block_at + k * side * side).reshape(k, m, n, m, n)
        scatter.append(block_cells.transpose(0, 1, 3, 2, 4).reshape(-1, n * n))
        repeat.append(np.repeat(np.arange(value_at, value_at + k * side).reshape(k, side), c.multiplicities, axis=0))
        block_spans.append((block_at, block_at + k * side * side, k, side))
        value_spans.append((value_at, value_at + k * side))
        start, block_at, value_at = start + k * m * m, block_at + k * side * side, value_at + k * side
    plan = _Plan(np.concatenate(gather), np.concatenate(scatter), np.concatenate(repeat, axis=None),
                 tuple(block_spans), tuple(value_spans))
    for array in (plan.gather, plan.scatter, plan.repeat):
        array.flags.writeable = False
    return plan


@dataclass(frozen=True, eq=False)
class FourierBasis:
    """Invariant subspaces of the left regular representation, by size and type.

    forward stacks, for every class in order, the entries pi_t(g)[alpha,
    beta] of each type t as rows (t, alpha, beta) with one column per
    element g, so the blocks of every type come from one product
    forward @ a.  inverse maps blocks back: its column (t, alpha, beta)
    holds sum_c V_c[x, alpha] V_c[e, beta] over the copies c of t, the
    identity block columns of all copies at once.  Between the products
    and the blocks sits the layout plan of each n (_Plan), built on
    first use and cached read-only on the basis: blocks is one gather
    from the forward product, and kernel one gather back.
    """

    classes: tuple[_SizeClass, ...]
    forward: np.ndarray  # (sum k m^2, |G|)
    inverse: np.ndarray  # (|G|, sum k m^2)
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    def _plan(self, n: int) -> _Plan:
        """The layout plan of n x n blocks; threads that race on a first
        build compute equal plans and setdefault keeps one of them."""
        plan = self._plans.get(n)
        if plan is None:
            plan = self._plans.setdefault(n, _build_plan(self.classes, n))
        return plan

    def blocks(self, values: np.ndarray) -> list[np.ndarray]:
        """B_t = sum_g pi_t(g) (x) a(g) of raw values a (|G|, n, n), one
        (k, m n, m n) array per class, all from one product and one
        gather: the arrays are views of one flat array."""
        order, n = values.shape[0], values.shape[1]
        flat = np.ascontiguousarray(values, dtype=np.complex128).reshape(order, n * n)
        coeffs = (self.forward @ flat.view(np.float64)).view(np.complex128)
        plan = self._plan(n)
        blocks = coeffs.reshape(-1)[plan.gather]
        return [blocks[a:b].reshape(k, side, side) for a, b, k, side in plan.block_spans]

    def kernel(self, blocks: list[np.ndarray]) -> np.ndarray:
        """Raw values (|G|, n, n) of the function whose convolution operator
        has the given blocks, one (k, m n, m n) array per class as blocks
        returns them: the inverse of blocks, one gather and one product."""
        n = blocks[0].shape[1] // self.classes[0].reps.shape[2]
        flat = np.concatenate(blocks, axis=None, dtype=np.complex128)
        rows = flat[self._plan(n).scatter]
        values = (self.inverse @ rows.view(np.float64)).view(np.complex128)
        return values.reshape(self.inverse.shape[0], n, n)


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


def _aligned(copy: np.ndarray, pi_c: np.ndarray, pi_r: np.ndarray, moves: np.ndarray, gens: np.ndarray):
    """The copy V_c (|G|, m), which carries pi_c, rotated to carry pi_r, or
    None when the rotation fails the invariance check on the generators.

    moves[s] lists s^-1 x for every x, so that (L(s) V)[x] = V[moves[s, x]].
    """
    order, m = copy.shape
    # T[a, i, b, j] = sum_g pi_c(g)[a, i] pi_r(g)[b, j]; T[:, i, :, j] is the
    # intertwiner averaged from the matrix unit E_ij
    t = (pi_c.reshape(order, m * m).T @ pi_r.reshape(order, m * m)).reshape(m, m, m, m)
    i, j = np.unravel_index(np.argmax(np.einsum("aibj,aibj->ij", t, t)), (m, m))
    w = t[:, i, :, j]
    w = w * (np.sqrt(m) / np.linalg.norm(w))
    rotated = copy @ w
    defect = np.linalg.norm(rotated[moves] - rotated @ pi_r[gens], axis=(1, 2))
    if np.max(defect) <= _INVARIANCE_TOL and np.linalg.norm(w.T @ w - np.eye(m)) <= _INVARIANCE_TOL:
        return rotated
    return None


def _typed(moves: np.ndarray, gens: np.ndarray, vectors: np.ndarray, reps: np.ndarray, labels: list) -> _SizeClass:
    """Rotate each further copy of a component onto the component's first
    copy, in place in vectors; a copy that fails stays a type of its own."""
    firsts: dict[int, int] = {}  # component -> its first copy
    kept: list[int] = []  # the first copy of each type
    types = np.empty(len(vectors), dtype=np.intp)
    for c, label in enumerate(labels):
        r = firsts.setdefault(label, c)
        rotated = None if r == c else _aligned(vectors[c], reps[c], reps[r], moves, gens)
        if rotated is None:
            types[c] = len(kept)
            kept.append(c)
        else:
            vectors[c], types[c] = rotated, types[r]
    return _SizeClass(vectors, types, reps[kept], np.bincount(types))


def _clusters(w: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges of the clusters (see _CLUSTER_REL) of the ascending eigenvalues w."""
    gap = _CLUSTER_REL * max(abs(w[0]), abs(w[-1]), 1e-300)
    bounds = [0, *(np.flatnonzero(np.diff(w) > gap) + 1).tolist(), len(w)]
    return list(zip(bounds[:-1], bounds[1:]))


def _build_basis(group: GroupTable, h: np.ndarray) -> FourierBasis:
    order, e = group.order, group.identity
    shifts = group.mult[group.inv]  # shifts[x, y] = x^-1 y
    # stage 1: h of each class's least element, spread over the class, so
    # that no large class outweighs the gaps between isotypic components
    least = group.mult[group.mult, group.inv[:, None]].min(axis=0)  # x g x^-1 over x
    h_c = h[least] / np.bincount(least)[least]
    w, q = np.linalg.eigh((h_c + h_c[group.inv])[shifts])
    # stage 2: the probe on each component splits it into copies
    probe, columns, bounds, labels = h[shifts], [], [0], []
    for component, (lo, hi) in enumerate(_clusters(w)):
        values, v = np.linalg.eigh(q[:, lo:hi].T @ probe @ q[:, lo:hi])
        columns.append(q[:, lo:hi] @ v)
        bounds += [lo + b for _, b in _clusters(values)]
        labels += [component] * (hi - lo)
    q = np.concatenate(columns, axis=1)
    gens, _ = _generating_set(group)
    moves = group.mult[group.inv[gens]]  # (L(s) q)[x] = q[s^-1 x]
    on_gens = q.T @ q[moves]  # q^T L(s) q
    ranges = _invariant_ranges(on_gens, bounds)
    plan = _generator_words(group)  # letters: gens, then their inverses
    classes = []
    for m in sorted({hi - lo for lo, hi in ranges}):
        chosen = [(lo, hi) for lo, hi in ranges if hi - lo == m]
        on_letters = np.stack([on_gens[:, lo:hi, lo:hi] for lo, hi in chosen])
        on_letters = np.concatenate([on_letters, on_letters.swapaxes(2, 3)], axis=1)  # pi(s^-1) = pi(s)^T
        # pi_j(g) for every g, as products of the letter matrices along words
        reps = np.empty((len(chosen), order, m, m))
        reps[:, e] = np.eye(m)
        for fresh, parent, letter in plan:
            reps[:, fresh] = reps[:, parent] @ on_letters[:, letter]
        copies = np.stack([q[:, lo:hi] for lo, hi in chosen])
        classes.append(_typed(moves, gens, copies, reps, [labels[lo] for lo, _ in chosen]))
    forward = np.concatenate([c.reps.transpose(0, 2, 3, 1).reshape(-1, order) for c in classes])
    # column (t, alpha, beta): sum over the copies c of t of V_c[x, alpha] V_c[e, beta]
    inverse = []
    for c in classes:
        outer = (c.vectors[:, :, :, None] * c.vectors[:, e, None, None, :]).reshape(len(c.types), -1)
        summed = np.eye(len(c.reps))[:, c.types] @ outer  # one row per type
        inverse.append(summed.reshape(len(c.reps), order, -1).transpose(1, 0, 2).reshape(order, -1))
    inverse = np.concatenate(inverse, axis=1)
    for array in (forward, inverse, *(a for c in classes for a in (c.vectors, c.types, c.reps, c.multiplicities))):
        array.flags.writeable = False  # shared by every caller through the cache
    return FourierBasis(tuple(classes), forward, inverse)


def fourier_basis(group: GroupTable) -> FourierBasis:
    """The invariant-subspace basis of group, built once and cached on the table.

    Threads that race on a first build compute equal bases and
    setdefault keeps one of them.
    """
    cache = group._cache
    basis = cache.get("basis")
    if basis is None:
        basis = cache.setdefault("basis", _build_basis(group, _probe(group)))
    return basis


def count_leq(eigenvalues: np.ndarray, t: float) -> int:
    """How many of the ascending eigenvalues a spectral cut at t keeps.

    Exactly degenerate eigenvalues come back from a solver split at
    rounding level; a threshold landing inside such a cluster would keep
    a basis-dependent part of the eigenspace.  The cut therefore absorbs
    any whole cluster it touches, and an eigenvalue within that rounding
    above t counts as equal to t, so a cut at a computed eigenvalue keeps
    it whichever solver computed t.
    """
    ev = eigenvalues
    gap = _CUT_CLUSTER_REL * max(abs(ev[0]), abs(ev[-1]), 1e-300)
    count = int(np.searchsorted(ev, t + gap, side="right"))
    while 0 < count < ev.size and ev[count] - ev[count - 1] <= gap:
        count += 1
    return count


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Block eigensystems of the Hermitian part H of the convolution operator of a.

    blocks holds, per size class, the eigenvalues (k, m n) and, when
    requested, the eigenvectors (k, m n, m n) of the block of each type.
    eigenvalues is the whole spectrum of H, ascending, each type's
    eigenvalues repeated once per copy.  hermitian_gap is
    ||C - C^H||_F = sqrt(|G|) ||a - a*||_F.
    """

    basis: FourierBasis
    group: GroupTable
    n: int
    blocks: tuple[tuple[np.ndarray, np.ndarray | None], ...]
    eigenvalues: np.ndarray
    hermitian_gap: float

    @cached_property
    def operator_norm(self) -> float:
        """||H||_2 = max(|lambda_min|, |lambda_max|), taken once: a root, its
        floor and the certificate all read it."""
        return max(abs(float(self.eigenvalues[0])), abs(float(self.eigenvalues[-1])))

    def apply(self, f) -> MatFun:
        """The function whose convolution operator is f(H), for a real f
        acting elementwise on eigenvalue arrays.  f must take one value, up
        to rounding, on each cluster of count_leq: the solver splits a
        degenerate eigenvalue at rounding level, and an f that separates
        it (a step inside a q8 cluster) gives a function that is not
        Hermitian.  cut and the square root respect this.  A 1 x 1 block
        is f of its eigenvalue: the product with the eigenvector 1 would
        change only the sign of a zero, which + 0.0 changes as it does."""
        parts = [f(values)[:, :, None] + 0.0 if vectors.shape[1] == 1
                 else (vectors * f(values)[:, None, :]) @ vectors.conj().swapaxes(1, 2) for values, vectors in self.blocks]
        return MatFun(self.group, self.n, self.basis.kernel(parts))

    def cut(self, t: float) -> MatFun:
        """The spectral cut at t: f(H) with f(lambda) = lambda on the
        eigenvalues count_leq keeps and 0 elsewhere."""
        count = count_leq(self.eigenvalues, t)
        top = self.eigenvalues[count - 1] if count else -np.inf
        return self.apply(lambda ev: np.where(ev <= top, ev, 0.0))


def _solve(b: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """np.linalg.eigh of a stack b of Hermitian blocks (eigvalsh without
    vectors).  A 1 x 1 block needs no solver: its eigenvalue is its real
    entry and its eigenvector 1, which is what LAPACK's ?heevd returns for
    N = 1, bit for bit."""
    if b.shape[1] == 1:
        return b.real[:, 0], np.ones(b.shape, dtype=np.complex128) if vectors else None
    return np.linalg.eigh(b) if vectors else (np.linalg.eigvalsh(b), None)


def fourier_spectrum(a: MatFun, vectors: bool = True) -> FourierSpectrum:
    """Spectrum of the Hermitian part of the convolution operator of a, block by block.

    a is first divided by the power of two near its largest entry, so
    neither the gap nor the blocks can overflow; one product and one
    gather through the basis's layout plan build the block of every type,
    and one batched eigh (eigvalsh without vectors) per block size solves
    them, except blocks of side 1, which need none.  The plan's repeat
    index lists each type's eigenvalues once per copy, for the sort.
    """
    group, n = a.group, a.n
    basis = fourier_basis(group)
    unit = _power_of_two_unit(a.values)
    scaled = a.values / unit
    adjoint = _adjoint(group, scaled)
    gap = math.sqrt(group.order) * _frobenius(scaled - adjoint) * unit  # entries below 4: no overflow
    herm = (scaled + adjoint) / 2.0
    solved = [_solve(b, vectors) for b in basis.blocks(herm)]
    flat = np.concatenate([values for values, _ in solved], axis=None) * unit
    plan = basis._plan(n)
    blocks = tuple((flat[lo:hi].reshape(values.shape), vecs) for (lo, hi), (values, vecs) in zip(plan.value_spans, solved))
    return FourierSpectrum(basis, group, n, blocks, np.sort(flat[plan.repeat]), gap)

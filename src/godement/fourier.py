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

Types and multiplicities.  An irreducible pi of degree d occurs d times in
L (fewer real copies for complex and quaternionic pi), and C is the same
block on every copy once the copies carry the same pi_j.  The subspaces
of one size are therefore sorted into types by their characters
chi_j(g) = tr pi_j(g) on all of G; inequivalent representations have
characters at least 1 apart at some element.  Each further copy V_c of a
type is rotated onto the type's first copy V_r by the intertwiner

    W = sum_g pi_c(g) E pi_r(g)^T,  E the matrix unit that makes W largest,

so that pi_c(g) W = W pi_r(g).  Between equivalent irreducibles every
nonzero intertwiner is a scalar times an orthogonal matrix, for real,
complex and quaternionic type alike, so W scaled to W^T W = I makes V_c W
an orthonormal copy that carries pi_r exactly.  The rotated copy is
checked on the generating set with the same invariance tolerance (and
W^T W = I with it); a copy that fails, such as a merged reducible one
whose intertwiners need not be orthogonal, stays a type of its own.  So
only one block per type is formed and solved, and a spectrum lists each
type's eigenvalues as often as the type has copies.  Norms follow
Plancherel with the same weights: ||a||_2^2 = sum_t mu_t ||B_t||_F^2 / |G|
for mu_t copies of type t.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .groups import GroupTable, _generating_set, _word_plan
from .matfun import MatFun, _adjoint, _power_of_two_unit

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
# Characters of inequivalent representations differ by at least 1 at some
# element (their difference has mean square sum_i n_i^2 >= 1 over G), so a
# computed character within half of that of a type's is that type's.
_CHARACTER_TOL = 0.5
# Eigenvalues of a spectrum closer than this, relative to the largest, are
# one cluster that a spectral cut keeps or drops whole (count_leq).
_CUT_CLUSTER_REL = 1e-10


@dataclass(frozen=True, eq=False)
class _SizeClass:
    """The invariant subspaces of one dimension m, sorted into k types.

    Every copy of a type carries that type's pi_t exactly (see the module
    docstring), so the class has k blocks however many copies it holds.
    """

    vectors: np.ndarray  # (c, |G|, m): orthonormal columns of each copy V_j
    types: np.ndarray  # (c,): the type of each copy, an index into reps
    reps: np.ndarray  # (k, |G|, m, m): pi_t(g) of each type
    multiplicities: np.ndarray  # (k,): copies of each type


@dataclass(frozen=True, eq=False)
class FourierBasis:
    """Invariant subspaces of the left regular representation, by size and type.

    forward stacks, for every class in order, the entries pi_t(g)[alpha,
    beta] of each type t as rows (t, alpha, beta) with one column per
    element g, so the blocks of every type come from one product
    forward @ a.  inverse maps blocks back: its column (t, alpha, beta)
    holds sum_c V_c[x, alpha] V_c[e, beta] over the copies c of t, the
    identity block columns of all copies at once.
    """

    classes: tuple[_SizeClass, ...]
    forward: np.ndarray  # (sum k m^2, |G|)
    inverse: np.ndarray  # (|G|, sum k m^2)

    def blocks(self, values: np.ndarray) -> list[np.ndarray]:
        """B_t = sum_g pi_t(g) (x) a(g) of raw values a (|G|, n, n), one
        (k, m n, m n) array per class, all from one product."""
        order, n = values.shape[0], values.shape[1]
        flat = np.ascontiguousarray(values, dtype=np.complex128).reshape(order, n * n)
        coeffs = (self.forward @ flat.view(np.float64)).view(np.complex128)
        blocks, start = [], 0
        for cls in self.classes:
            k, m = cls.reps.shape[0], cls.reps.shape[2]
            rows = coeffs[start:start + k * m * m]
            start += k * m * m
            blocks.append(rows.reshape(k, m, m, n, n).transpose(0, 1, 3, 2, 4).reshape(k, m * n, m * n))
        return blocks

    def kernel(self, blocks: list[np.ndarray]) -> np.ndarray:
        """Raw values (|G|, n, n) of the function whose convolution operator
        has the given blocks, one (k, m n, m n) array per class as blocks
        returns them: the inverse of blocks, from one product."""
        n = blocks[0].shape[1] // self.classes[0].reps.shape[2]
        rows = np.concatenate([b.reshape(b.shape[0], b.shape[1] // n, n, -1, n).transpose(0, 1, 3, 2, 4)
                               .reshape(-1, n * n) for b in blocks])
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


def _typed(group: GroupTable, gens: np.ndarray, vectors: np.ndarray, reps: np.ndarray) -> _SizeClass:
    """Sort the copies of one size into types by character and rotate every
    further copy of a type onto the type's first one, in place in vectors."""
    characters = np.trace(reps, axis1=2, axis2=3)
    moves = group.mult[group.inv[gens]]
    firsts: list[int] = []
    types = np.empty(len(vectors), dtype=np.intp)
    for c in range(len(vectors)):
        for t, r in enumerate(firsts):
            if np.max(np.abs(characters[c] - characters[r])) <= _CHARACTER_TOL:
                rotated = _aligned(vectors[c], reps[c], reps[r], moves, gens)
                if rotated is not None:
                    vectors[c], types[c] = rotated, t
                    break
        else:
            types[c] = len(firsts)
            firsts.append(c)
    return _SizeClass(vectors, types, reps[firsts], np.bincount(types))


def _build_basis(group: GroupTable, h: np.ndarray) -> FourierBasis:
    order, e = group.order, group.identity
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
        reps[:, e] = np.eye(m)
        for fresh, parent, letter in plan:
            reps[:, fresh] = reps[:, parent] @ on_letters[:, letter]
        classes.append(_typed(group, gens, np.stack([q[:, lo:hi] for lo, hi in chosen]), reps))
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
    cache = group._fourier_cache
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

    @property
    def operator_norm(self) -> float:
        """||H||_2 = max(|lambda_min|, |lambda_max|)."""
        return max(abs(float(self.eigenvalues[0])), abs(float(self.eigenvalues[-1])))

    def apply(self, f) -> MatFun:
        """The function whose convolution operator is f(H), for f acting
        elementwise on eigenvalue arrays."""
        parts = [(vectors * f(values)[:, None, :]) @ vectors.conj().swapaxes(1, 2) for values, vectors in self.blocks]
        return MatFun(self.group, self.n, self.basis.kernel(parts))

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
    block of every type and one batched eigh (eigvalsh without vectors)
    per block size solves them.
    """
    group, n = a.group, a.n
    basis = fourier_basis(group)
    unit = _power_of_two_unit(a.values)
    scaled = a.values / unit
    adjoint = _adjoint(group, scaled)
    gap = float(np.sqrt(group.order) * np.linalg.norm(scaled - adjoint)) * unit
    herm = (scaled + adjoint) / 2.0
    blocks = []
    for b in basis.blocks(herm):
        if vectors:
            values, vecs = np.linalg.eigh(b)
            blocks.append((values * unit, vecs))
        else:
            blocks.append((np.linalg.eigvalsh(b) * unit, None))
    eigenvalues = np.sort(np.concatenate([np.repeat(values, cls.multiplicities, axis=0).ravel()
                                          for cls, (values, _) in zip(basis.classes, blocks)]))
    return FourierSpectrum(basis, group, n, tuple(blocks), eigenvalues, gap)

"""Dense reference routines that only tests call.

Each works on the whole (|G| n) x (|G| n) convolution matrix or on the
right translations of L2(G, C^n), where the package works on Fourier
blocks, so the tests can check the package's routes against them.
"""

import numpy as np

from godement import ConvMatrix, GroupTable, MatFun, SpectralDecomposition, conv_matrix, decompose, subtract
from godement.fourier import count_leq
from godement.operators import _verdict


def right_translation_matrix(group: GroupTable, n: int, x: int) -> np.ndarray:
    """Unitary permutation-block matrix of (R(x) u)(g) = u(g x)."""
    if not 0 <= x < group.order:
        raise ValueError(f"element index {x} out of range")
    p = np.zeros((group.order, group.order))
    p[np.arange(group.order), group.mult[:, x]] = 1.0  # row g picks up the value at g x
    return np.kron(p, np.eye(n))


def brute_commutant_residual(op: ConvMatrix) -> float:
    """max over every x of ||R(x) T R(x)^H - T||_F with explicit permutation matrices."""
    worst = 0.0
    for x in range(op.group.order):
        r = right_translation_matrix(op.group, op.n, x)
        worst = max(worst, float(np.linalg.norm(r @ op.data @ r.conj().T - op.data)))
    return worst


def projector_leq(sd: SpectralDecomposition, t: float) -> np.ndarray:
    """Orthogonal projector onto the eigenvectors of sd with eigenvalue <= t,
    widened to whole clusters of degenerate eigenvalues (fourier.count_leq)."""
    cols = sd.eigenvectors[:, :count_leq(sd.eigenvalues, t)]
    return cols @ cols.conj().T


def pd_order_leq(a: MatFun, b: MatFun) -> bool:
    """True iff b - a is positive definite (the PD cone ordering), judged by
    the package's one verdict on the dense spectrum of b - a.

    The reference size is the larger operand's operator norm, not that of
    the difference itself: when a and b agree to rounding, the difference
    is pure noise and must still count as comparable.
    """
    scale = max(decompose(conv_matrix(f)).operator_norm for f in (a, b))
    diff = decompose(conv_matrix(subtract(b, a)))
    return _verdict(float(diff.eigenvalues[0]), diff.hermitian_gap, scale) == "positive_definite"

"""Left-convolution operators on L2(G, C^n) as concrete block matrices.

For a matrix function a, the operator (conv_matrix) has n x n block
(x, y) equal to a(x y^-1), acting on vector functions flattened with
index g*n + component.  Positive definiteness of a is certified two
independent ways: via the spectrum of this operator, and via the
pointwise Gram matrix with block (i, j) = a(i^-1 j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupTable
from .matfun import MatFun, _conv_operator

__all__ = [
    "ConvMatrix",
    "SpectralDecomposition",
    "PDCertificate",
    "NotPositiveDefiniteError",
    "EquivarianceError",
    "conv_matrix",
    "operator_norm",
    "decompose",
    "is_positive_definite",
    "gram_pd_check",
    "hermitian_symmetry_residual",
    "right_translation_matrix",
    "translation_equivariance_residual",
    "translation_commutant_residual",
    "extract_kernel",
    "spectral_truncate",
    "pd_order_leq",
    "DEFAULT_PD_TOL",
]

DEFAULT_PD_TOL = 1e-9


class NotPositiveDefiniteError(ValueError):
    """Raised when an operation requires a certified positive definite input."""


class EquivarianceError(ValueError):
    """Raised when a matrix fails to commute with the right translations."""


@dataclass(frozen=True, eq=False)
class ConvMatrix:
    """A (|G| n) x (|G| n) complex matrix with group-block structure."""

    group: GroupTable
    n: int
    data: np.ndarray

    def __post_init__(self) -> None:
        size = self.group.order * self.n
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.complex128))
        if data.shape != (size, size):
            raise ValueError(f"data shape {data.shape}, expected ({size}, {size})")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def block(self, x: int, y: int) -> np.ndarray:
        n = self.n
        return self.data[x * n:(x + 1) * n, y * n:(y + 1) * n]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian operator: ascending eigenvalues, unitary columns."""

    eigenvalues: np.ndarray  # ascending real
    eigenvectors: np.ndarray  # columns are eigenvectors
    residual: float  # Frobenius reconstruction error

    def projector_leq(self, t: float, cluster_rel: float = 1e-10) -> np.ndarray:
        """Orthogonal projector onto eigenvectors with eigenvalue <= t.

        Exactly degenerate eigenvalues come back from the solver split
        at rounding level; a threshold landing inside such a cluster
        would select a basis-dependent half of the eigenspace.  The cut
        therefore absorbs any whole cluster it touches: only the
        projector onto full clusters is a well-defined object.  For the
        same reason an eigenvalue within that rounding above t counts as
        equal to t, so a cut at a computed eigenvalue keeps it whichever
        solver computed t.
        """
        ev = self.eigenvalues
        gap = cluster_rel * max(abs(ev[0]), abs(ev[-1]), 1e-300)
        count = int(np.searchsorted(ev, t + gap, side="right"))
        while 0 < count < ev.size and ev[count] - ev[count - 1] <= gap:
            count += 1
        cols = self.eigenvectors[:, :count]
        return cols @ cols.conj().T


@dataclass(frozen=True)
class PDCertificate:
    """Verdict plus the numbers it was decided on.

    operator_norm doubles as the boundedness constant of the convolution
    action (finite here, so every function is moderated).
    """

    verdict: str  # "positive_definite" | "not_positive_definite" | "not_hermitian"
    min_eigenvalue: float
    hermitian_residual: float
    operator_norm: float

    @property
    def ok(self) -> bool:
        return self.verdict == "positive_definite"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "min_eigenvalue": self.min_eigenvalue,
            "hermitian_residual": self.hermitian_residual,
            "operator_norm": self.operator_norm,
        }


def _blocks_to_matrix(values: np.ndarray, idx: np.ndarray, order: int, n: int) -> np.ndarray:
    # values: (|G|, n, n); idx: (|G|, |G|) of element indices per block
    blocks = values[idx]  # (|G|, |G|, n, n)
    return blocks.transpose(0, 2, 1, 3).reshape(order * n, order * n)


def conv_matrix(a: MatFun) -> ConvMatrix:
    """Matrix of left convolution by a: block(x, y) = a(x y^-1)."""
    return ConvMatrix(a.group, a.n, _conv_operator(a.group, a.values))


def operator_norm(a: MatFun) -> float:
    """Spectral norm of the convolution operator of a."""
    return float(np.linalg.norm(conv_matrix(a).data, 2))


def decompose(op: ConvMatrix, hermitian_tol: float = 1e-8) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian ConvMatrix (ascending eigenvalues)."""
    data = op.data
    scale = float(np.linalg.norm(data, 2))
    gap = float(np.linalg.norm(data - data.conj().T, 2))
    if gap > hermitian_tol * max(scale, 1.0):
        raise ValueError(f"matrix is not Hermitian: residual {gap:.3e} at norm {scale:.3e}")
    herm = (data + data.conj().T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(herm)
    recon = (eigenvectors * eigenvalues) @ eigenvectors.conj().T
    residual = float(np.linalg.norm(recon - herm))
    return SpectralDecomposition(eigenvalues, eigenvectors, residual)


def is_positive_definite(a: MatFun, tol: float = DEFAULT_PD_TOL) -> PDCertificate:
    """Certify positivity of the convolution operator of a.

    Verdict is positive_definite iff the operator is Hermitian within
    tol * operator_norm and its minimum eigenvalue is >= -tol * operator_norm.
    The floor is relative, so the verdict is scale invariant.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    data = conv_matrix(a).data
    norm = float(np.linalg.norm(data, 2))
    gap = float(np.linalg.norm(data - data.conj().T, 2))
    min_eig = float(np.linalg.eigvalsh((data + data.conj().T) / 2.0)[0])
    if gap > tol * norm:
        verdict = "not_hermitian"
    elif min_eig >= -tol * norm:
        verdict = "positive_definite"
    else:
        verdict = "not_positive_definite"
    return PDCertificate(verdict, min_eig, gap, norm)


def gram_pd_check(a: MatFun, tol: float = DEFAULT_PD_TOL) -> bool:
    """Pointwise Gram test: the block matrix M(i, j) = a(i^-1 j) must be PSD.

    Independent of conv_matrix; the two certifications must agree on
    every input at the same tolerance.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    g = a.group
    idx = g.mult[g.inv]  # idx[i, j] = i^-1 * j
    m = _blocks_to_matrix(a.values, idx, g.order, a.n)
    norm = float(np.linalg.norm(m, 2))
    gap = float(np.linalg.norm(m - m.conj().T, 2))
    if gap > tol * norm:
        return False
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    return min_eig >= -tol * norm


def hermitian_symmetry_residual(a: MatFun) -> float:
    """max_g ||a(g) - conj(a(g^-1))^T||_F, the gap to star-fixedness."""
    gap = a.values - np.conj(a.values[a.group.inv]).transpose(0, 2, 1)
    return float(np.max(np.linalg.norm(gap, axis=(1, 2)))) if a.group.order else 0.0


def right_translation_matrix(group: GroupTable, n: int, x: int) -> ConvMatrix:
    """Unitary permutation-block matrix of (R(x) u)(g) = u(g x)."""
    if not 0 <= x < group.order:
        raise ValueError(f"element index {x} out of range")
    perm = group.mult[:, x]  # row g picks up the value at g*x
    p = np.zeros((group.order, group.order))
    p[np.arange(group.order), perm] = 1.0
    return ConvMatrix(group, n, np.kron(p, np.eye(n)))


def _translated(data: np.ndarray, group: GroupTable, n: int, x: int) -> np.ndarray:
    # R(x) T R(x)^-1 re-indexes blocks: result[g, h] = T[g x, h x]; no arithmetic.
    flat = (group.mult[:, x][:, None] * n + np.arange(n)[None, :]).reshape(-1)
    return data[np.ix_(flat, flat)]


def translation_equivariance_residual(a: MatFun, x: int) -> float:
    """||R(x) C R(x)^-1 - C||_F for the convolution matrix C of a.

    Structurally zero: conjugation permutes blocks to a(gx (hx)^-1) = a(g h^-1).
    """
    op = conv_matrix(a)
    return float(np.linalg.norm(_translated(op.data, a.group, a.n, x) - op.data))


def translation_commutant_residual(op: ConvMatrix) -> float:
    """Worst-case ||R(x) T R(x)^-1 - T||_F over all group elements x."""
    worst = 0.0
    for x in range(op.group.order):
        worst = max(worst, float(np.linalg.norm(_translated(op.data, op.group, op.n, x) - op.data)))
    return worst


def extract_kernel(op: ConvMatrix, equivariance_tol: float = 1e-8) -> MatFun:
    """Recover the matrix function whose convolution matrix is op.

    Requires op to commute with every right translation (checked); then
    column j of the kernel at x is op applied to the delta at the
    identity tensored with basis vector j, which is just the block
    column of op at the identity element.
    """
    worst = translation_commutant_residual(op)
    scale = max(float(np.linalg.norm(op.data)), 1.0)
    if worst > equivariance_tol * scale:
        raise EquivarianceError(
            f"matrix does not commute with right translations: residual {worst:.3e}"
        )
    g, n = op.group, op.n
    e = g.identity
    col = op.data[:, e * n:(e + 1) * n]
    return MatFun(g, n, col.reshape(g.order, n, n))


def _project_columns(a: MatFun, projector: np.ndarray) -> MatFun:
    # Column j of a flattens to index g*n + row; project each column.
    cols = a.values.reshape(a.group.order * a.n, a.n)
    return MatFun(a.group, a.n, (projector @ cols).reshape(a.group.order, a.n, a.n))


def spectral_truncate(a: MatFun, t: float, tol: float = DEFAULT_PD_TOL) -> MatFun:
    """Spectral cut of a positive definite function at threshold t.

    Projects every column of a onto the eigenvectors of its convolution
    operator with eigenvalue <= t.  The result a_t is again positive
    definite, its convolution matrix equals P_t times that of a, and
    a_t grows with t in the positive definite ordering.
    """
    cert = is_positive_definite(a, tol)
    if not cert.ok:
        raise NotPositiveDefiniteError(f"input is not positive definite: {cert.verdict}")
    sd = decompose(conv_matrix(a))
    return _project_columns(a, sd.projector_leq(t))


def pd_order_leq(a: MatFun, b: MatFun, tol: float = DEFAULT_PD_TOL) -> bool:
    """True iff b - a is positive definite (the PD cone ordering).

    The eigenvalue floor is taken relative to the larger operand, not to
    the difference itself: when a and b agree to rounding, the
    difference is pure noise and must still count as comparable.
    """
    la = conv_matrix(a).data
    lb = conv_matrix(b).data
    scale = max(float(np.linalg.norm(la, 2)), float(np.linalg.norm(lb, 2)))
    if scale == 0.0:
        return True
    diff = lb - la
    if float(np.linalg.norm(diff - diff.conj().T, 2)) > tol * scale:
        return False
    min_eig = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)[0])
    return min_eig >= -tol * scale

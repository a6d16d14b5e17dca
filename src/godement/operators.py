"""Left-convolution operators on L2(G, C^n).

For a matrix function a, the operator (conv_matrix) has n x n block
(x, y) equal to a(x y^-1), acting on vector functions flattened with
index g*n + component.  Positive definiteness of a is the one verdict
_certificate gives at DEFAULT_PD_TOL from a spectrum of this operator,
taken block by block in the Fourier basis of the group (see fourier).
The dense matrix (conv_matrix, decompose, extract_kernel) stays as the
reference the block route is tested against; the pointwise Gram matrix
with block (i, j) = a(i^-1 j) is that matrix relabeled by inversion, so
gram_pd_check is the dense route, not a second one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .fourier import FourierSpectrum, count_leq, fourier_spectrum
from .groups import GroupTable, _generating_set
from .matfun import MatFun, _adjoint, _conv_operator, _power_of_two_unit, subtract

__all__ = [
    "ConvMatrix",
    "SpectralDecomposition",
    "PDCertificate",
    "NotPositiveDefiniteError",
    "EquivarianceError",
    "conv_matrix",
    "decompose",
    "is_positive_definite",
    "gram_pd_check",
    "hermitian_symmetry_residual",
    "right_translation_matrix",
    "translation_commutant_residual",
    "extract_kernel",
    "spectral_truncate",
    "pd_order_leq",
    "DEFAULT_PD_TOL",
]

DEFAULT_PD_TOL = 1e-9
# Largest translation-commutant residual of an operator extract_kernel
# accepts, relative to the operator's Frobenius norm.
_EQUIVARIANCE_TOL = 1e-8


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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of the Hermitian part H of an operator C: ascending
    eigenvalues, unitary columns, and the two numbers a PD verdict needs.

    hermitian_gap is ||C - C^H||_F and operator_norm is ||H||_2 =
    max(|lambda_0|, |lambda_max|), so certificate() decides positive
    definiteness from the same eigensolve.
    """

    eigenvalues: np.ndarray  # ascending real
    eigenvectors: np.ndarray  # columns are eigenvectors
    hermitian: np.ndarray  # H, the matrix decomposed
    hermitian_gap: float
    operator_norm: float

    def certificate(self) -> "PDCertificate":
        """The PD verdict of C, as is_positive_definite gives it."""
        return _certificate(self)

    def projector_leq(self, t: float) -> np.ndarray:
        """Orthogonal projector onto eigenvectors with eigenvalue <= t,
        widened to whole clusters of degenerate eigenvalues (fourier.count_leq)."""
        cols = self.eigenvectors[:, :count_leq(self.eigenvalues, t)]
        return cols @ cols.conj().T


@dataclass(frozen=True)
class PDCertificate:
    """Verdict plus the numbers it was decided on.

    hermitian_residual is ||C - C^H||_F of the convolution matrix C and
    operator_norm is ||H||_2 of its Hermitian part H, which for a
    Hermitian C is the boundedness constant of the convolution action
    (finite here, so every function is moderated).
    """

    verdict: str  # "positive_definite" | "not_positive_definite" | "not_hermitian"
    min_eigenvalue: float
    hermitian_residual: float
    operator_norm: float

    @property
    def ok(self) -> bool:
        return self.verdict == "positive_definite"

    def to_json(self) -> dict:
        return asdict(self)


def conv_matrix(a: MatFun) -> ConvMatrix:
    """Matrix of left convolution by a: block(x, y) = a(x y^-1)."""
    return ConvMatrix(a.group, a.n, _conv_operator(a.group, a.values))


def _hermitian_split(data: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Hermitian part H of data and ||data - data^H||_F, both divided by
    unit = _power_of_two_unit(data), and unit."""
    unit = _power_of_two_unit(data)
    scaled = data / unit
    adjoint = scaled.conj().T
    return (scaled + adjoint) / 2.0, float(np.linalg.norm(scaled - adjoint)), unit


def _check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError unless tol is positive and finite: the one check of
    every root and suite tolerance, made before any work."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


def _verdict(min_eig: float, gap: float, scale: float) -> str:
    """The one PD verdict: Hermitian within DEFAULT_PD_TOL * scale, and no
    eigenvalue below -DEFAULT_PD_TOL * scale.  Written so that a NaN
    anywhere never passes."""
    if not gap <= DEFAULT_PD_TOL * scale:
        return "not_hermitian"
    if min_eig >= -DEFAULT_PD_TOL * scale:
        return "positive_definite"
    return "not_positive_definite"


def _certificate(spectrum: FourierSpectrum | SpectralDecomposition) -> PDCertificate:
    """The PD verdict of an operator from its spectrum, Fourier or dense:
    ascending eigenvalues of its Hermitian part H, its Hermitian gap and ||H||_2."""
    min_eig = float(spectrum.eigenvalues[0])
    gap, norm = spectrum.hermitian_gap, spectrum.operator_norm
    return PDCertificate(_verdict(min_eig, gap, norm), min_eig, gap, norm)


def decompose(op: ConvMatrix) -> SpectralDecomposition:
    """Eigendecomposition of the Hermitian part H of op (ascending eigenvalues).

    The one eigensolve of a spectral call: the result also carries the
    Hermitian gap and ||H||_2, from which certificate() gives the PD
    verdict, not_hermitian included.  Any op decomposes; whether H stands
    for op is that verdict's to say.
    """
    herm, gap, unit = _hermitian_split(op.data)
    eigenvalues, eigenvectors = np.linalg.eigh(herm)
    eigenvalues = eigenvalues * unit
    norm = max(abs(float(eigenvalues[0])), abs(float(eigenvalues[-1])))
    return SpectralDecomposition(eigenvalues, eigenvectors, herm * unit, gap * unit, norm)


def _certified_spectrum(a: MatFun, vectors: bool = True) -> FourierSpectrum:
    """The Fourier block spectrum of a, which also certifies it: raises
    NotPositiveDefiniteError unless a is positive definite at DEFAULT_PD_TOL."""
    spectrum = fourier_spectrum(a, vectors=vectors)
    verdict = _certificate(spectrum).verdict
    if verdict != "positive_definite":
        raise NotPositiveDefiniteError(f"input is not positive definite: {verdict}")
    return spectrum


def is_positive_definite(a: MatFun) -> PDCertificate:
    """Certify positivity of the convolution operator C of a.

    Verdict is positive_definite iff ||C - C^H||_F <= DEFAULT_PD_TOL *
    ||H||_2, with H the Hermitian part of C, and the minimum eigenvalue of
    H is >= -DEFAULT_PD_TOL * ||H||_2.  Both are relative, so the verdict
    is scale invariant.  The eigenvalues come from the Fourier blocks of
    H, one batched eigvalsh per block size, and the gap from a itself:
    ||C - C^H||_F = sqrt(|G|) ||a - a*||_F.
    """
    return _certificate(fourier_spectrum(a, vectors=False))


def gram_pd_check(a: MatFun) -> bool:
    """Pointwise Gram test: the block matrix M(i, j) = a(i^-1 j) must be PSD.

    M is conv_matrix(a) with block rows and columns relabeled by
    inversion, since block (i^-1, j^-1) of C is a(i^-1 j), so the test is
    the dense route: decompose(conv_matrix(a)).certificate().ok.
    """
    return decompose(conv_matrix(a)).certificate().ok


def hermitian_symmetry_residual(a: MatFun) -> float:
    """max_g ||a(g) - conj(a(g^-1))^T||_F, the gap to star-fixedness."""
    gap = a.values - _adjoint(a.group, a.values)
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


def translation_commutant_residual(op: ConvMatrix) -> float:
    """Upper bound on max_x ||R(x) T R(x)^-1 - T||_F over all group elements x.

    R is a unitary homomorphism, so along a word x = s_1 ... s_k in
    generators and their inverses the residual is subadditive, and
    R(s)^-1 has the residual of R(s).  Hence the worst residual over a
    generating set times the diameter of its Cayley graph bounds the
    residual of every element, and is zero iff T commutes with all R(x).
    """
    group, n = op.group, op.n
    gens, diameter = _generating_set(group)
    residuals = [np.linalg.norm(_translated(op.data, group, n, int(x)) - op.data) for x in gens]
    return diameter * float(np.max(residuals, initial=0.0))


def extract_kernel(op: ConvMatrix) -> MatFun:
    """Recover the matrix function whose convolution matrix is op.

    Requires op to commute with every right translation (checked on a
    generating set, see translation_commutant_residual); then column j
    of the kernel at x is op applied to the delta at the identity
    tensored with basis vector j, which is just the block column of op
    at the identity element.  The residual is judged relative to
    ||op||_F, so scaling op keeps the verdict.
    """
    worst = translation_commutant_residual(op)
    scale = max(float(np.linalg.norm(op.data)), 1e-300)
    if not worst <= _EQUIVARIANCE_TOL * scale:
        raise EquivarianceError(
            f"matrix does not commute with right translations: residual {worst:.3e}"
        )
    g, n = op.group, op.n
    e = g.identity
    col = op.data[:, e * n:(e + 1) * n]
    return MatFun(g, n, col.reshape(g.order, n, n))


def spectral_truncate(a: MatFun, t: float) -> MatFun:
    """Spectral cut of a positive definite function at threshold t.

    The result a_t has convolution matrix P_t H, where H is the Hermitian
    part of the convolution matrix of a (equal to it within DEFAULT_PD_TOL,
    the certificate's tolerance) and P_t projects onto its eigenvectors
    with eigenvalue <= t.  a_t is again positive definite and grows with t in
    the positive definite ordering.  One Fourier spectrum certifies a and
    gives the cut.  t must be finite.
    """
    if not math.isfinite(t):
        raise ValueError(f"threshold must be finite, got {t!r}")
    return _certified_spectrum(a).cut(t)


def pd_order_leq(a: MatFun, b: MatFun) -> bool:
    """True iff b - a is positive definite (the PD cone ordering) at DEFAULT_PD_TOL.

    The reference size of the verdict is the larger operand's operator
    norm as is_positive_definite measures it, not that of the difference
    itself: when a and b agree to rounding, the difference is pure noise
    and must still count as comparable.
    """
    scale = max(is_positive_definite(a).operator_norm, is_positive_definite(b).operator_norm)
    spectrum = fourier_spectrum(subtract(b, a), vectors=False)
    min_eig = float(spectrum.eigenvalues[0])
    return _verdict(min_eig, spectrum.hermitian_gap, scale) == "positive_definite"

"""Convolution square roots in the group algebra.

Every positive definite phi has a unique positive definite psi with
phi = psi * psi (convolution).  Two constructions are provided: spectral
calculus on the Fourier blocks of the convolution operator, and the
coupled Newton-Schulz iteration, whose iterates increase toward the root
from below.  The iteration is one loop on either of two algebras: below
an operator side |G| n of _BLOCK_MIN_SIDE its products are convolutions,
from it up products of the stacked Fourier blocks.  What does not go
through the Fourier basis is the dense loop below side 64 and, at every
size, the residual ||psi * psi - phi||_2 / ||phi||_2 on the convolution
kernel, which checks each spectral root and each root found on the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierBasis, FourierSpectrum
from .matfun import MatFun, _conv_index, _conv_kernel, _l2, l2_norm, matfun_to_json, zero_matfun
from .operators import DEFAULT_PD_TOL, _certified_spectrum, _check_tol

# Steps the iterative root may take beyond its predicted count: rounding at
# the last step, and eigenvalues below DEFAULT_PD_TOL s that the prediction
# does not see (each step multiplies their w by up to 9/4).
_CAP_MARGIN = 8
# Operators of side |G| n from this size on step on their Fourier blocks:
# below it the padded block stack costs more than the dense gathers.
_BLOCK_MIN_SIDE = 64
# How far above tol the convolution-kernel residual of a block-loop root may
# lie: the loop measured its own residual through Plancherel, in rounding
# that differs from the kernel's.
_RECHECK_SLACK = 1e-6
# The default relative residual ||psi * psi - phi||_2 / ||phi||_2 of both roots.
_ROOT_TOL = 1e-8

__all__ = [
    "SqrtResult",
    "ConvergenceError",
    "sqrt_spectral",
    "sqrt_iterative",
]


class ConvergenceError(RuntimeError):
    """Raised when the iterative square root fails to reach tolerance."""


@dataclass(frozen=True, eq=False)
class SqrtResult:
    """A convolution square root plus how it was obtained.

    residual is ||psi*psi - phi||_2 / ||phi||_2.  For the iterative
    method, iterations counts its steps and monotone_trace lists
    ||psi_k||_2 along the iteration (a non-decreasing sequence).
    """

    psi: MatFun
    method: str
    residual: float
    iterations: int | None = None
    monotone_trace: tuple[float, ...] | None = None

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "residual": self.residual,
            "iterations": self.iterations,
            "monotone_trace": list(self.monotone_trace) if self.monotone_trace is not None else None,
            "psi": matfun_to_json(self.psi),
        }


def sqrt_spectral(phi: MatFun, tol: float = _ROOT_TOL) -> SqrtResult:
    """Square root by spectral calculus on the convolution operator.

    The operator is taken block by block in the Fourier basis of the
    group, and the root goes back to a function through its block column
    at the identity.  Eigenvalues at or below DEFAULT_PD_TOL * ||op||, the
    resolution of the PD certificate, are set to zero before taking the
    scalar square root: below it an eigenvalue is rounding noise, and
    the square root would amplify it to sqrt(noise).  An input the
    certificate rejects is a hard error; the certificate and the root
    come from one spectrum.  The residual ||psi*psi - phi|| / ||phi|| is
    then checked independently with the convolution kernel, and a
    residual that is not finite fails.  tol must be positive and finite.
    """
    _check_tol(tol)
    return _spectral_root(phi, _certified_spectrum(phi), tol, l2_norm(phi))


def _spectral_root(phi: MatFun, spectrum: FourierSpectrum, tol: float, phi_norm: float) -> SqrtResult:
    """sqrt_spectral from a certified spectrum of phi with eigenvectors and phi_norm = l2_norm(phi)."""
    floor = DEFAULT_PD_TOL * spectrum.operator_norm
    psi = spectrum.apply(lambda ev: np.sqrt(np.where(ev <= floor, 0.0, ev)))
    residual = _kernel_residual(psi, phi, phi_norm)
    if not residual <= tol:
        raise ConvergenceError(f"spectral square root residual {residual:.3e} exceeds {tol:.3e}")
    return SqrtResult(psi=psi, method="spectral", residual=residual)


def _kernel_residual(psi: MatFun, phi: MatFun, phi_norm: float) -> float:
    """||psi * psi - phi||_2 / phi_norm on the convolution kernel, phi_norm = l2_norm(phi); 0 for phi = 0."""
    gap = _l2(_conv_kernel(psi.group, psi.values, psi.values) - phi.values)
    return gap / phi_norm if phi_norm > 0 else 0.0


def sqrt_iterative(phi: MatFun, tol: float = _ROOT_TOL) -> SqrtResult:
    """Square root by the coupled Newton-Schulz iteration in the convolution algebra.

    With s the operator norm of phi and phi~ = phi / s, start from
    Y_0 = phi~ and Z_0 = delta_e I, and step
    T = (3 delta_e I - Z * Y) / 2, Y <- Y * T, Z <- T * Z (Higham, "Stable
    iterations for the matrix square root", Numer. Algorithms 15 (1997)
    227-242): Y_k tends to sqrt(phi~) and Z_k to its inverse on the range of
    phi.  Return psi = sqrt(s) Y_k once ||Y_k * Y_k - phi~||_2 <= tol *
    ||phi~||_2.  One loop runs these steps in the algebra the operator side
    |G| n picks: below 64 the products are convolutions, so the root is
    independent of the spectral one; from 64 up they are products of the
    Fourier blocks of phi~, which is faster there, and the root is then
    rechecked once on the convolution kernel: a residual there above
    tol (1 + 1e-6) raises ConvergenceError.  Each Y_k is a polynomial
    in phi~; on an eigenvalue lambda of phi~, w = z y goes
    w <- w (3 - w)^2 / 4 within [w, 1] and y grows by (3 - w) / 2 >= 1, so
    the iterates are positive definite, increase in the PD ordering and
    their squares stay dominated by phi~.  monotone_trace lists
    ||psi_k||_2 after each step.

    The step count is at most ceil(log_{9/4}(1 / l) + log2 ln(1 / tol)) with
    l = max(lambda_min / s, DEFAULT_PD_TOL), the scalar recursion's bound on
    the smallest eigenvalue; a root that needs _CAP_MARGIN steps more raises
    ConvergenceError, as does a residual that is not finite.  tol must be
    positive and finite.
    """
    _check_tol(tol)
    return _iterative_root(phi, _certified_spectrum(phi, vectors=False), tol, l2_norm(phi))


def _predicted_steps(lam: float, tol: float) -> int:
    """Newton-Schulz steps that bring every eigenvalue of phi~ at or above
    lam to a relative residual tol: about log_{9/4}(1 / lam) steps while
    w = z y grows by up to 9/4, then log2 ln(1 / tol) while 1 - w squares."""
    return math.ceil(math.log(1.0 / lam, 9.0 / 4.0) + math.log2(max(math.log(1.0 / tol), 1.0)))


def _iterative_root(phi: MatFun, spectrum: FourierSpectrum, tol: float, phi_norm: float) -> SqrtResult:
    """sqrt_iterative from a certified spectrum of phi, which gives s and the smallest
    eigenvalue, a tol _check_tol passed, and phi_norm = l2_norm(phi) for the recheck."""
    s = spectrum.operator_norm
    if s == 0.0:
        return SqrtResult(psi=zero_matfun(phi.group, phi.n), method="iterative", residual=0.0,
                          iterations=0, monotone_trace=())
    group, n = phi.group, phi.n
    predicted = _predicted_steps(max(float(spectrum.eigenvalues[0]) / s, DEFAULT_PD_TOL), tol)
    cap = predicted + _CAP_MARGIN
    on_blocks = group.order * n >= _BLOCK_MIN_SIDE
    if on_blocks:
        values, residual, trace = _block_steps(phi, spectrum.basis, s, tol, cap)
    else:
        values, residual, trace = _dense_steps(phi, s, tol, cap)
    if not math.isfinite(residual):
        raise ConvergenceError(f"non-finite residual after {len(trace)} steps")
    if not residual <= tol:
        raise ConvergenceError(f"no convergence to {tol:.1e}: residual {residual:.3e} after {cap} steps, "
                               f"{predicted} predicted")
    psi = MatFun(group, n, values)
    if on_blocks:
        # the loop saw only blocks; the root is checked once on the convolution kernel
        check = _kernel_residual(psi, phi, phi_norm)
        if not check <= tol * (1.0 + _RECHECK_SLACK):
            raise ConvergenceError(f"iterative square root residual {check:.3e} exceeds {tol:.3e} "
                                   f"on the convolution kernel")
    return SqrtResult(psi=psi, method="iterative", residual=residual, iterations=len(trace),
                      monotone_trace=tuple(trace))


def _newton_schulz(target: np.ndarray, unit: np.ndarray, left, product, norm, tol: float, cap: int):
    """The iteration on phi~ = target in one algebra, from Y_0 = phi~ and
    Z_0 = unit: a * b is product(left(a), b, out=), and norm is the
    algebra's 2-norm up to a constant factor.  Returns Y_k, the last
    residual and the norms of Y_1 .. Y_k, after the step that meets tol, the
    step whose residual is not finite, or the cap."""
    three, z, y = 3.0 * unit, unit, target.copy()
    t, square, spare = np.empty_like(target), np.empty_like(target), np.empty_like(target)
    denom = norm(target)
    norms: list[float] = []
    for k in range(cap + 1):
        left_y = left(y)
        product(left_y, y, out=square)
        square -= target
        residual = norm(square) / denom
        if residual <= tol or not math.isfinite(residual) or k == cap:
            break
        product(left(z), y, out=t)  # Z * Y
        np.subtract(three, t, out=t)
        t *= 0.5
        product(left_y, t, out=spare)  # Y * T
        y, spare = spare, y
        product(left(t), z, out=spare)  # T * Z
        z, spare = spare, z
        norms.append(norm(y))
    return y, residual, norms


def _dense_steps(phi: MatFun, s: float, tol: float, cap: int):
    """The iteration on phi / s as functions, held as (|G| n, n) columns: a
    product gathers the convolution matrix of its left factor (see
    matfun._conv_kernel).  Returns the values of psi = sqrt(s) Y, the last
    residual and the trace."""
    group, n = phi.group, phi.n
    index = _conv_index(group, n)
    target = phi.values.reshape(-1, n) / s
    unit = np.zeros_like(target)
    unit[group.identity * n:(group.identity + 1) * n] = np.eye(n)
    y, residual, norms = _newton_schulz(target, unit, lambda x: x.reshape(-1)[index], np.dot,
                                        lambda x: math.sqrt(np.vdot(x, x).real), tol, cap)
    root_scale = math.sqrt(s)
    return root_scale * y.reshape(phi.values.shape), residual, [root_scale * v for v in norms]


def _block_steps(phi: MatFun, basis: FourierBasis, s: float, tol: float, cap: int):
    """The iteration on the Fourier blocks of phi / s, one per type, where
    convolution is the product of blocks, B(a * b) = B(a) B(b).  All blocks
    sit in one stack, zero-padded to the largest side; Z_0 = I and 3 I cover
    only the unpadded corners, so the padding stays exactly zero and a step
    is four batched matmuls.  Norms follow Plancherel: ||a||_2^2 = sum_t
    mu_t ||B_t||_F^2 / |G| for mu_t copies of type t.  psi goes back to a
    function through the basis kernel once.  Returns as _dense_steps does.
    """
    parts = basis.blocks(phi.values / s)
    count, side = sum(b.shape[0] for b in parts), max(b.shape[1] for b in parts)
    target = np.zeros((count, side, side), dtype=np.complex128)
    unit = np.zeros_like(target)
    weights = np.empty(count)
    corners, at = [], 0
    for b, cls in zip(parts, basis.classes):
        k, m = b.shape[0], b.shape[1]
        target[at:at + k, :m, :m] = b
        unit[at:at + k, range(m), range(m)] = 1.0
        weights[at:at + k] = cls.multiplicities
        corners.append((slice(at, at + k), slice(0, m)))
        at += k

    def norm(x: np.ndarray) -> float:
        """sqrt(sum_t mu_t ||X_t||_F^2) = sqrt(|G|) ||x||_2 for the function x with blocks X."""
        flat = x.reshape(count, -1).view(np.float64)
        return math.sqrt(np.dot(weights, np.einsum("ki,ki->k", flat, flat)))

    y, residual, norms = _newton_schulz(target, unit, lambda x: x, np.matmul, norm, tol, cap)
    root_scale = math.sqrt(s)
    trace_scale = root_scale / math.sqrt(phi.group.order)
    values = basis.kernel([y[rows, cols, cols] for rows, cols in corners])
    return root_scale * values, residual, [trace_scale * v for v in norms]

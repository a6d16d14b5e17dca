"""Convolution square roots and spectral cuts in the group algebra.

Every positive definite phi has a unique positive definite psi with
phi = psi * psi (convolution).  Two independent constructions are
provided: spectral calculus on the Fourier blocks of the convolution
operator, and the coupled Newton-Schulz iteration carried out entirely
with convolutions, whose iterates increase toward the root from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierSpectrum
from .matfun import MatFun, _conv_index, _conv_kernel, _l2, l2_norm, matfun_to_json, zero_matfun
from .operators import DEFAULT_PD_TOL, _certified_spectrum, _check_tol

# Steps the iterative root may take beyond its predicted count: rounding at
# the last step, and eigenvalues below DEFAULT_PD_TOL s that the prediction
# does not see (each step multiplies their w by up to 9/4).
_CAP_MARGIN = 8

__all__ = [
    "SqrtResult",
    "ConvergenceError",
    "sqrt_spectral",
    "sqrt_iterative",
    "truncation_sequence",
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
        out = {
            "method": self.method,
            "residual": self.residual,
            "iterations": self.iterations,
            "monotone_trace": list(self.monotone_trace) if self.monotone_trace is not None else None,
            "psi": matfun_to_json(self.psi),
        }
        return out


def sqrt_spectral(phi: MatFun, tol: float = 1e-8) -> SqrtResult:
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
    return _spectral_root(phi, _certified_spectrum(phi), tol)


def _spectral_root(phi: MatFun, spectrum: FourierSpectrum, tol: float) -> SqrtResult:
    """sqrt_spectral from a spectrum of phi, with eigenvectors, already certified."""
    floor = DEFAULT_PD_TOL * spectrum.operator_norm
    psi = spectrum.apply(lambda ev: np.sqrt(np.where(ev <= floor, 0.0, ev)))
    denom = l2_norm(phi)
    residual = _square_gap(psi, phi) / denom if denom > 0 else 0.0
    if not residual <= tol:
        raise ConvergenceError(f"spectral square root residual {residual:.3e} exceeds {tol:.3e}")
    return SqrtResult(psi=psi, method="spectral", residual=residual)


def _square_gap(psi: MatFun, phi: MatFun) -> float:
    """||psi * psi - phi||_2, on the convolution kernel."""
    return _l2(_conv_kernel(psi.group, psi.values, psi.values) - phi.values)


def sqrt_iterative(phi: MatFun, tol: float = 1e-8) -> SqrtResult:
    """Square root by the coupled Newton-Schulz iteration in the convolution algebra.

    With s the operator norm of phi and phi~ = phi / s, start from
    Y_0 = phi~ and Z_0 = delta_e I, and step
    T = (3 delta_e I - Z * Y) / 2, Y <- Y * T, Z <- T * Z (Higham, "Stable
    iterations for the matrix square root", Numer. Algorithms 15 (1997)
    227-242): Y_k tends to sqrt(phi~) and Z_k to its inverse on the range of
    phi.  Return psi = sqrt(s) Y_k once ||Y_k * Y_k - phi~||_2 <= tol *
    ||phi~||_2.  Only convolutions are used, so the root is independent of
    the spectral one.  Each Y_k is a polynomial in phi~; on an eigenvalue
    lambda of phi~, w = z y goes w <- w (3 - w)^2 / 4 within [w, 1] and y
    grows by (3 - w) / 2 >= 1, so the iterates are positive definite,
    increase in the PD ordering and their squares stay dominated by phi~.
    monotone_trace lists ||psi_k||_2 after each step.

    The step count is at most ceil(log_{9/4}(1 / l) + log2 ln(1 / tol)) with
    l = max(lambda_min / s, DEFAULT_PD_TOL), the scalar recursion's bound on
    the smallest eigenvalue; a root that needs _CAP_MARGIN steps more raises
    ConvergenceError, as does a residual that is not finite.  tol must be
    positive and finite.
    """
    _check_tol(tol)
    return _iterative_root(phi, _certified_spectrum(phi, vectors=False), tol)


def _predicted_steps(lam: float, tol: float) -> int:
    """Newton-Schulz steps that bring every eigenvalue of phi~ at or above
    lam to a relative residual tol: about log_{9/4}(1 / lam) steps while
    w = z y grows by up to 9/4, then log2 ln(1 / tol) while 1 - w squares."""
    return math.ceil(math.log(1.0 / lam, 9.0 / 4.0) + math.log2(max(math.log(1.0 / tol), 1.0)))


def _iterative_root(phi: MatFun, spectrum: FourierSpectrum, tol: float) -> SqrtResult:
    """sqrt_iterative from a spectrum of phi already certified,
    which gives s and the smallest eigenvalue, and a tol _check_tol passed."""
    s = spectrum.operator_norm
    if s == 0.0:
        return SqrtResult(psi=zero_matfun(phi.group, phi.n), method="iterative", residual=0.0,
                          iterations=0, monotone_trace=())
    group, n = phi.group, phi.n
    predicted = _predicted_steps(max(float(spectrum.eigenvalues[0]) / s, DEFAULT_PD_TOL), tol)
    cap = predicted + _CAP_MARGIN
    # functions as columns (|G| n, n); a product gathers the convolution
    # matrix of its left factor (see matfun._conv_kernel)
    index = _conv_index(group, n)
    target = phi.values.reshape(-1, n) / s
    y, z, t = target.copy(), np.zeros_like(target), np.empty_like(target)
    z[group.identity * n:(group.identity + 1) * n] = np.eye(n)
    three_delta = 3.0 * z
    gap = np.empty_like(target)
    denom, root_scale = math.sqrt(np.vdot(target, target).real), math.sqrt(s)
    trace: list[float] = []
    for k in range(cap + 1):
        c_y = y.reshape(-1)[index]
        np.dot(c_y, y, out=gap)
        gap -= target
        residual = math.sqrt(np.vdot(gap, gap).real) / denom
        if not math.isfinite(residual):
            raise ConvergenceError(f"non-finite residual after {k} steps")
        if residual <= tol:
            return SqrtResult(psi=MatFun(group, n, root_scale * y.reshape(phi.values.shape)), method="iterative",
                              residual=residual, iterations=k, monotone_trace=tuple(trace))
        if k == cap:
            break
        np.dot(z.reshape(-1)[index], y, out=t)  # Z * Y
        np.subtract(three_delta, t, out=t)
        t *= 0.5
        y = c_y @ t  # Y * T
        z = t.reshape(-1)[index] @ z  # T * Z
        trace.append(root_scale * math.sqrt(np.vdot(y, y).real))
    raise ConvergenceError(f"no convergence to {tol:.1e}: residual {residual:.3e} after {cap} steps, "
                           f"{predicted} predicted")


def truncation_sequence(phi: MatFun, thresholds: list[float]) -> list[MatFun]:
    """Spectral cuts of phi at an ascending list of thresholds.

    All cuts share one Fourier spectrum, which also certifies phi, so
    their convolution operators commute exactly and the sequence
    increases toward phi in the PD ordering as the thresholds pass the
    top eigenvalue.  Every threshold must be finite.
    """
    if not all(math.isfinite(t) for t in thresholds):
        raise ValueError(f"thresholds must be finite, got {list(thresholds)!r}")
    if list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be ascending")
    spectrum = _certified_spectrum(phi)
    return [spectrum.cut(t) for t in thresholds]

"""Convolution square roots and polynomial calculus in the group algebra.

Every positive definite phi has a unique positive definite psi with
phi = psi * psi (convolution).  Two constructions are provided: direct
spectral calculus on the convolution operator, and a monotone damped
fixed-point iteration carried out entirely with convolutions, whose
iterates increase toward the root from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matfun import MatFun, _conv_kernel, convolve, l2_norm, matfun_to_json, subtract, zero_matfun
from .operators import DEFAULT_PD_TOL, NotPositiveDefiniteError, _certified_spectrum, is_positive_definite

__all__ = [
    "SqrtResult",
    "PolySpec",
    "ConvergenceError",
    "sqrt_spectral",
    "sqrt_iterative",
    "truncation_sequence",
    "poly_apply",
]


class ConvergenceError(RuntimeError):
    """Raised when the iterative square root fails to reach tolerance."""


@dataclass(frozen=True, eq=False)
class SqrtResult:
    """A convolution square root plus how it was obtained.

    residual is ||psi*psi - phi||_2 / ||phi||_2.  For the iterative
    method, monotone_trace lists ||psi_k||_2 along the iteration (a
    non-decreasing sequence) and iterates carries the recorded
    approximants when requested.
    """

    psi: MatFun
    method: str
    residual: float
    iterations: int | None = None
    monotone_trace: tuple[float, ...] | None = None
    iterates: tuple[MatFun, ...] | None = None

    def to_json(self) -> dict:
        out = {
            "method": self.method,
            "residual": self.residual,
            "iterations": self.iterations,
            "monotone_trace": list(self.monotone_trace) if self.monotone_trace is not None else None,
            "psi": matfun_to_json(self.psi),
        }
        return out


@dataclass(frozen=True)
class PolySpec:
    """Real polynomial with zero constant term, applied in the convolution algebra."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs or coeffs[0] != 0.0:
            raise ValueError("polynomial must have zero constant term")
        object.__setattr__(self, "coefficients", coeffs)


def sqrt_spectral(phi: MatFun, tol: float = 1e-8, pd_tol: float = DEFAULT_PD_TOL) -> SqrtResult:
    """Square root by spectral calculus on the convolution operator.

    The operator is taken block by block in the Fourier basis of the
    group, and the root goes back to a function through its block column
    at the identity.  Eigenvalues at or below pd_tol * ||op||, the
    resolution of the PD certificate, are set to zero before taking the
    scalar square root: below it an eigenvalue is rounding noise, and
    the square root would amplify it to sqrt(noise).  An input the
    certificate rejects is a hard error; the certificate and the root
    come from one spectrum.  The residual ||psi*psi - phi|| / ||phi|| is
    then checked independently with the convolution kernel, and a
    residual that is not finite fails.
    """
    spectrum = _certified_spectrum(phi, pd_tol)
    floor = pd_tol * spectrum.operator_norm
    psi = spectrum.apply(lambda ev: np.sqrt(np.where(ev <= floor, 0.0, ev)))
    denom = l2_norm(phi)
    residual = l2_norm(subtract(convolve(psi, psi), phi)) / denom if denom > 0 else 0.0
    if not residual <= tol:
        raise ConvergenceError(f"spectral square root residual {residual:.3e} exceeds {tol:.3e}")
    return SqrtResult(psi=psi, method="spectral", residual=residual)


def sqrt_iterative(
    phi: MatFun,
    max_iter: int = 500,
    tol: float = 1e-8,
    pd_tol: float = DEFAULT_PD_TOL,
    record_iterates: bool = False,
) -> SqrtResult:
    """Square root by the monotone damped iteration in the convolution algebra.

    With s the operator norm of phi and phi~ = phi / s, iterate
    X_0 = 0, X_{k+1} = X_k + (phi~ - X_k * X_k) / 2 and return
    psi = sqrt(s) X_k once ||X_k * X_k - phi~||_2 <= tol * ||phi~||_2.
    Each X_k equals p_k applied to phi~ for a nonnegative increasing
    polynomial sequence with p_k(0) = 0 converging to sqrt(t) on [0, 1],
    so the iterates are positive definite, increase in the PD ordering,
    and their squares stay dominated by phi~.  Convergence slows near
    spectral values close to zero, hence the generous default cap.
    """
    cert = is_positive_definite(phi, pd_tol)
    if not cert.ok:
        raise NotPositiveDefiniteError(f"input is not positive definite: {cert.verdict}")
    s = cert.operator_norm
    if s == 0.0:
        return SqrtResult(
            psi=zero_matfun(phi.group, phi.n),
            method="iterative",
            residual=0.0,
            iterations=0,
            monotone_trace=(),
            iterates=() if record_iterates else None,
        )
    sqrt_s = float(np.sqrt(s))
    group, n = phi.group, phi.n
    # the loop runs on raw (|G|, n, n) arrays; a MatFun is built only for
    # what is returned, so the finiteness check is explicit here
    target = (1.0 / s) * phi.values
    denom = float(np.linalg.norm(target))
    x = np.zeros_like(target)
    trace: list[float] = []
    iterates: list[MatFun] = []
    for k in range(1, max_iter + 1):
        gap = target - _conv_kernel(group, x, x)
        residual = float(np.linalg.norm(gap)) / denom
        if not np.isfinite(residual):
            raise ConvergenceError(f"non-finite residual at step {k}")
        if residual <= tol:
            return SqrtResult(
                psi=MatFun(group, n, sqrt_s * x),
                method="iterative",
                residual=residual,
                iterations=k - 1,
                monotone_trace=tuple(trace),
                iterates=tuple(iterates) if record_iterates else None,
            )
        x = x + 0.5 * gap
        trace.append(sqrt_s * float(np.linalg.norm(x)))
        if record_iterates:
            iterates.append(MatFun(group, n, sqrt_s * x))
    raise ConvergenceError(f"no convergence to {tol:.1e} within {max_iter} iterations")


def truncation_sequence(phi: MatFun, thresholds: list[float], pd_tol: float = DEFAULT_PD_TOL) -> list[MatFun]:
    """Spectral cuts of phi at an ascending list of thresholds.

    All cuts share one Fourier spectrum, which also certifies phi, so
    their convolution operators commute exactly and the sequence
    increases toward phi in the PD ordering as the thresholds pass the
    top eigenvalue.
    """
    if list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be ascending")
    spectrum = _certified_spectrum(phi, pd_tol)
    return [spectrum.cut(t) for t in thresholds]


def poly_apply(phi: MatFun, p: PolySpec) -> MatFun:
    """Evaluate a zero-constant polynomial with convolution powers of phi.

    The convolution matrix of the result is the same polynomial applied
    to the convolution matrix of phi.
    """
    result = zero_matfun(phi.group, phi.n)
    power = phi
    coeffs = p.coefficients[1:]
    for j, c in enumerate(coeffs):
        if c != 0.0:
            result = MatFun(phi.group, phi.n, result.values + c * power.values)
        if j + 1 < len(coeffs):
            power = convolve(power, phi)
    return result

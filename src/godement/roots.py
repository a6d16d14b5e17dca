"""Convolution square roots and polynomial calculus in the group algebra.

Every positive definite phi has a unique positive definite psi with
phi = psi * psi (convolution).  Two constructions are provided: direct
spectral calculus on the convolution operator, and a monotone damped
fixed-point iteration carried out entirely with convolutions, whose
iterates increase toward the root from below.

The iteration has two step routes with the same iterates.  Operators of
side |G| n below _BLOCK_MIN_SIDE take the dense step: one gather of the
convolution matrix of the iterate and one product.  Larger ones step on
the Fourier blocks of the iterate (see fourier), one per irreducible
type, where convolution is a product of small blocks; blocks of nearby
sizes are zero-padded into one stack per batched matmul.  The threshold
comes from measured per-step costs: on one 2-core host the block step
lost on every operator of side up to 16 and on z2xs4 at n = 1 (side 48),
and won from 72 on (s4 at n = 3, s5, z2xs5).
A block root is then checked once on the convolution kernel, which does
not depend on the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierSpectrum
from .matfun import MatFun, _conv_index, _conv_kernel, _l2, convolve, l2_norm, matfun_to_json, zero_matfun
from .operators import DEFAULT_PD_TOL, _certified_spectrum

# Operators of side |G| n from this on iterate on their Fourier blocks,
# smaller ones on the gathered convolution matrix (README, Performance notes).
_BLOCK_MIN_SIDE = 64
# Fixed cost of one matmul call in a block step, in complex multiply-adds.
_RUN_COST = 2000.0
# Rounding allowed between the block loop's residual and its recomputation.
_RECHECK_SLACK = 1e-6
# Step cap of the iterative root wherever a caller gives none: sqrt_iterative,
# check_theorem_a (and so the suite) and the CLI's --max-iter.
_MAX_ITER = 200_000

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
    return _spectral_root(phi, _certified_spectrum(phi, pd_tol), tol, pd_tol)


def _spectral_root(phi: MatFun, spectrum: FourierSpectrum, tol: float, pd_tol: float) -> SqrtResult:
    """sqrt_spectral from a spectrum of phi, with eigenvectors, already certified at pd_tol."""
    floor = pd_tol * spectrum.operator_norm
    psi = spectrum.apply(lambda ev: np.sqrt(np.where(ev <= floor, 0.0, ev)))
    denom = l2_norm(phi)
    residual = _square_gap(psi, phi) / denom if denom > 0 else 0.0
    if not residual <= tol:
        raise ConvergenceError(f"spectral square root residual {residual:.3e} exceeds {tol:.3e}")
    return SqrtResult(psi=psi, method="spectral", residual=residual)


def _square_gap(psi: MatFun, phi: MatFun) -> float:
    """||psi * psi - phi||_2, on the convolution kernel."""
    return _l2(_conv_kernel(psi.group, psi.values, psi.values) - phi.values)


def sqrt_iterative(
    phi: MatFun,
    max_iter: int = _MAX_ITER,
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
    spectral values close to zero, hence the generous default cap _MAX_ITER.

    The loop runs on u_k = X_k / 2 against phi~ / 4, where a step is
    u_{k+1} = u_k + (phi~/4 - u_k * u_k) and psi = 2 sqrt(s) u_k.  Every
    rescaling is by a power of two, so this is the same arithmetic as on
    X_k, and a step needs no rescaling.

    For |G| n >= 64 the step runs on the Fourier blocks of u instead of its
    gathered convolution matrix: the same iterates up to rounding (same
    step counts, psi within about 1e-13), with the residual and the
    monotone trace read off the blocks by Plancherel.  residual is then the
    loop's own; psi*psi is recomputed once with the convolution kernel,
    and a relative residual above tol * (1 + 1e-6) raises
    ConvergenceError.
    """
    return _iterative_root(phi, _certified_spectrum(phi, pd_tol, vectors=False), max_iter, tol, record_iterates)


def _iterative_root(
    phi: MatFun, spectrum: FourierSpectrum, max_iter: int, tol: float, record_iterates: bool
) -> SqrtResult:
    """sqrt_iterative from a spectrum of phi already certified, which gives s."""
    s = spectrum.operator_norm
    if s == 0.0:
        return SqrtResult(
            psi=zero_matfun(phi.group, phi.n),
            method="iterative",
            residual=0.0,
            iterations=0,
            monotone_trace=(),
            iterates=() if record_iterates else None,
        )
    group, root_scale = phi.group, 2.0 * math.sqrt(s)
    target = (0.25 / s) * phi.values
    on_blocks = group.order * phi.n >= _BLOCK_MIN_SIDE
    if on_blocks:
        u, residual, trace, iterates = _block_steps(spectrum.basis, group, target, root_scale, max_iter, tol,
                                                    record_iterates)
    else:
        u, residual, trace, iterates = _dense_steps(group, target, root_scale, max_iter, tol, record_iterates)
    psi = MatFun(group, phi.n, root_scale * u)
    if on_blocks:
        # the loop saw only blocks; the root is checked on the convolution kernel
        check = _square_gap(psi, phi) / l2_norm(phi)
        if not check <= tol * (1.0 + _RECHECK_SLACK):
            raise ConvergenceError(f"iterative square root residual {check:.3e} exceeds {tol:.3e} "
                                   f"on the convolution kernel")
    return SqrtResult(
        psi=psi,
        method="iterative",
        residual=residual,
        iterations=len(trace),
        monotone_trace=tuple(trace),
        iterates=tuple(iterates) if record_iterates else None,
    )


def _dense_steps(group, target, root_scale, max_iter, tol, record_iterates):
    """The iteration on u against target = phi~/4 as functions: each step
    gathers the convolution matrix of u.  Returns the values of u, the last
    residual, the trace and the iterates."""
    n = target.shape[1]
    # u, its two views and the buffers for u*u and the gap are made once; a
    # step allocates only the gathered convolution matrix of u (np.take into
    # a buffer is slower than fancy indexing at these sizes)
    index = _conv_index(group, n)
    target = target.reshape(group.order * n, n)
    u = np.zeros((group.order, n, n), dtype=np.complex128)
    flat, cols = u.reshape(-1), u.reshape(group.order * n, n)
    square, gap = np.empty_like(cols), np.empty_like(cols)
    denom = math.sqrt(np.vdot(target, target).real)
    trace: list[float] = []
    iterates: list[MatFun] = []
    for k in range(1, max_iter + 1):
        np.dot(flat[index], cols, out=square)
        np.subtract(target, square, out=gap)
        residual = math.sqrt(np.vdot(gap, gap).real) / denom
        if not math.isfinite(residual):
            raise ConvergenceError(f"non-finite residual at step {k}")
        if residual <= tol:
            return u, residual, trace, iterates
        cols += gap
        trace.append(root_scale * math.sqrt(np.vdot(cols, cols).real))
        if record_iterates:
            iterates.append(MatFun(group, n, root_scale * u))
    raise ConvergenceError(f"no convergence to {tol:.1e} within {max_iter} iterations")


def _block_steps(basis, group, target, root_scale, max_iter, tol, record_iterates):
    """The iteration on the Fourier blocks U_t of u: U_t <- U_t + T_t - U_t U_t.

    Every copy of a type has the same block, so there is one U_t per type.
    The blocks of each run of size classes (_stack_plan) are zero-padded to
    its largest side and stacked, so a step is one batched matmul per run;
    padding stays zero under the step.  All runs share one flat buffer each
    for U, T, the squares and the gap, so the rest of a step is a few whole-
    buffer operations.  Since ||a||_2^2 = sum_t mu_t ||B_t(a)||_F^2 / |G|
    for mu_t copies of type t, the residual and the trace are norms weighted
    by multiplicity, and u goes back to a function through the basis kernel.
    Returns as _dense_steps does.
    """
    n = target.shape[1]
    blocks = basis.blocks(target)
    sides = [b.shape[1] for b in blocks]
    runs = _stack_plan(sides, [b.shape[0] for b in blocks])
    shapes = [(sum(b.shape[0] for b in blocks[lo:hi]), sides[hi - 1]) for lo, hi in runs]
    size = sum(k * side * side for k, side in shapes)
    t, u, square, gap = (np.zeros(size, dtype=np.complex128) for _ in range(4))
    multiplicity = np.zeros(size)

    def stacked(flat):
        views, start = [], 0
        for k, side in shapes:
            views.append(flat[start:start + k * side * side].reshape(k, side, side))
            start += k * side * side
        return views

    u_runs, square_runs = stacked(u), stacked(square)
    # the unpadded block views of u, class by class, for mapping u back
    u_blocks = []
    for (lo, hi), t_run, u_run, w_run in zip(runs, stacked(t), u_runs, stacked(multiplicity)):
        at = 0
        for b, cls in zip(blocks[lo:hi], basis.classes[lo:hi]):
            k, side = b.shape[0], b.shape[1]
            t_run[at:at + k, :side, :side] = b
            w_run[at:at + k] = cls.multiplicities[:, None, None]
            u_blocks.append(u_run[at:at + k, :side, :side])
            at += k

    # weighted norms on the float views: squares, then one dot with the
    # weight of each real and imaginary part (a complex-by-real product is slower)
    weights, squares = np.repeat(multiplicity, 2), np.empty(2 * size)
    t_parts, u_parts, gap_parts = t.view(np.float64), u.view(np.float64), gap.view(np.float64)

    def norm(parts):
        return math.sqrt(np.dot(np.multiply(parts, parts, out=squares), weights))

    denom = norm(t_parts)
    norm_scale = root_scale / math.sqrt(group.order)
    trace: list[float] = []
    iterates: list[MatFun] = []
    for k in range(1, max_iter + 1):
        for u_run, square_run in zip(u_runs, square_runs):
            np.matmul(u_run, u_run, out=square_run)
        np.subtract(t, square, out=gap)
        residual = norm(gap_parts) / denom
        if not math.isfinite(residual):
            raise ConvergenceError(f"non-finite residual at step {k}")
        if residual <= tol:
            return basis.kernel(u_blocks), residual, trace, iterates
        u += gap
        trace.append(norm_scale * norm(u_parts))
        if record_iterates:
            iterates.append(MatFun(group, n, root_scale * basis.kernel(u_blocks)))
    raise ConvergenceError(f"no convergence to {tol:.1e} within {max_iter} iterations")


def _stack_plan(sides: list[int], counts: list[int]) -> list[tuple[int, int]]:
    """Split the size classes, ascending by block side, into runs (lo, hi)
    padded to the side of their last class, at the least cost: padded
    multiply-adds plus _RUN_COST per run, which stands for the fixed cost
    of one more matmul call."""
    best, start = [0.0], [0]
    for hi in range(1, len(sides) + 1):
        cost, lo = min((best[lo] + _RUN_COST + sum(counts[lo:hi]) * sides[hi - 1] ** 3, lo) for lo in range(hi))
        best.append(cost)
        start.append(lo)
    runs, hi = [], len(sides)
    while hi:
        runs.append((start[hi], hi))
        hi = start[hi]
    return runs[::-1]


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

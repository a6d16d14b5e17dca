"""Executable verification of the toolkit's core theorems.

Theorem A: every positive definite square-integrable function is the
convolution square of a positive definite function.  Theorem B: the
inner product of two positive definite functions is nonnegative.
Theorem C: that inner product vanishes exactly when the convolution of
the pair vanishes.  The trace lemma ties the inner product to the value
of the convolution at the identity.  Checks return structured reports;
run_suite aggregates randomized trials deterministically per seed.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupTable, parse_group_spec
from .matfun import (
    MatFun,
    convolve,
    inner,
    l2_norm,
    make_pd,
    matfun_to_json,
    random_matfun,
    subtract,
)
from .fourier import FourierSpectrum
from .operators import DEFAULT_PD_TOL, _certified_spectrum, hermitian_symmetry_residual, is_positive_definite
from .roots import ConvergenceError, sqrt_iterative, sqrt_spectral

__all__ = [
    "TheoremReport",
    "SuiteConfig",
    "SpectrumSplitError",
    "check_theorem_a",
    "check_theorem_b",
    "check_theorem_c",
    "check_inner_trace",
    "build_orthogonal_pd_pair",
    "classify_magnitude",
    "run_suite",
    "derive_seed",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "GODEMENT_SUITE_THREADS"


class SpectrumSplitError(ValueError):
    """Raised when a spectral split threshold leaves one side empty."""


@dataclass
class TheoremReport:
    """Outcome of one verification: passed iff no counterexample and the
    worst residual stayed within the suite tolerance."""

    theorem: str  # "A" | "B" | "C" | "lemma_2_1"
    trials: int
    group: str
    n: int
    worst_residual: float
    passed: bool
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "group": self.group,
            "n": self.n,
            "worst_residual": self.worst_residual,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "details": self.details,
        }


def _worst(a: float, b: float) -> float:
    """max(a, b) that keeps a NaN: max() compares false against it and drops it."""
    return a if np.isnan(a) or a > b else b


def _merge(target: TheoremReport, trial: TheoremReport, inputs: dict | None) -> None:
    target.trials += trial.trials
    target.worst_residual = _worst(trial.worst_residual, target.worst_residual)
    for key, value in trial.details.items():
        if isinstance(value, (int, float)) and key.startswith("indeterminate"):
            target.details[key] = target.details.get(key, 0) + value
    if not trial.passed and target.passed:
        target.passed = False
        target.counterexample = inputs if inputs is not None else trial.counterexample


def check_theorem_a(
    phi: MatFun,
    tol: float = 1e-8,
    max_iter: int = 200_000,
    iter_tol: float = 1e-9,
    agreement_tol: float = 1e-6,
) -> TheoremReport:
    """Verify the square-root factorization of one positive definite phi.

    Runs both root constructions and checks: psi * psi reproduces phi,
    psi is positive definite and star-fixed, the two methods agree, the
    iterative trace is monotone and obeys the trace bound at the identity.
    """
    group, n = phi.group, phi.n
    scale_phi = l2_norm(phi)
    report = TheoremReport("A", 1, group.name, n, 0.0, True)
    cert = is_positive_definite(phi)
    if not cert.ok:
        report.passed = False
        report.counterexample = {"phi": matfun_to_json(phi)}
        report.details["failure"] = f"input not positive definite ({cert.verdict})"
        return report

    try:
        spectral = sqrt_spectral(phi, tol=tol)
        iterative = sqrt_iterative(phi, max_iter=max_iter, tol=iter_tol)
    except (ConvergenceError, ValueError) as exc:
        report.passed = False
        report.counterexample = {"phi": matfun_to_json(phi)}
        report.details["failure"] = str(exc)
        return report

    # iterative convergence itself is enforced by ConvergenceError above
    residuals = {
        "spectral_residual": spectral.residual / tol,
        "star_gap": hermitian_symmetry_residual(spectral.psi)
        / max(1e-300, 1e-10 * max(l2_norm(spectral.psi), 1.0)),
        "psi_not_pd": 0.0 if is_positive_definite(spectral.psi).ok else np.inf,
        "method_agreement": l2_norm(subtract(spectral.psi, iterative.psi))
        / max(1e-300, agreement_tol * scale_phi),
    }
    trace = iterative.monotone_trace or ()
    trace_bound = float(np.trace(phi.values[group.identity]).real) + 1e-8
    dip_floor = -1e-12 * max(trace, default=0.0)
    monotone_ok = all(trace[i + 1] - trace[i] >= dip_floor for i in range(len(trace) - 1))
    bound_ok = all(v * v <= trace_bound for v in trace)
    residuals["trace_monotone"] = 0.0 if monotone_ok else np.inf
    residuals["trace_bound"] = 0.0 if bound_ok else np.inf

    worst_key = max(residuals, key=lambda k: (np.isnan(residuals[k]), residuals[k]))
    report.worst_residual = float(residuals[worst_key])
    report.details = {
        "spectral_residual": spectral.residual,
        "iterative_residual": iterative.residual,
        "iterations": iterative.iterations,
        "agreement": l2_norm(subtract(spectral.psi, iterative.psi)),
    }
    if not report.worst_residual <= 1.0:
        report.passed = False
        report.counterexample = {"phi": matfun_to_json(phi)}
        report.details["failure"] = worst_key
    return report


def check_theorem_b(phi: MatFun, psi: MatFun, tol: float = 1e-10) -> TheoremReport:
    """Verify that the inner product of two PD functions is real nonnegative."""
    scale = max(l2_norm(phi) * l2_norm(psi), 1e-300)
    value = inner(phi, psi)
    residual = max(abs(value.imag), max(0.0, -value.real)) / scale
    report = TheoremReport("B", 1, phi.group.name, phi.n, residual / max(tol, 1e-300), residual <= tol)
    report.details = {"inner_real": value.real, "inner_imag": value.imag}
    if not report.passed:
        report.counterexample = {"phi": matfun_to_json(phi), "psi": matfun_to_json(psi)}
    return report


def classify_magnitude(value: float, tol: float) -> str:
    """Three-way classification with an indeterminate floating-point band."""
    if value <= tol:
        return "zero"
    if value >= 100.0 * tol:
        return "nonzero"
    return "indeterminate"


def check_theorem_c(phi: MatFun, psi: MatFun, tol: float = 1e-10) -> TheoremReport:
    """Verify the biconditional: inner product zero iff convolution zero.

    Both scaled magnitudes are reported.  A trial fails when one side
    classifies as zero and the other as nonzero, or when a magnitude is
    not finite (NaN would otherwise land in the indeterminate band);
    magnitudes inside the band (tol, 100 tol) are flagged indeterminate,
    not failed.
    """
    scale = max(l2_norm(phi) * l2_norm(psi), 1e-300)
    inner_mag = abs(inner(phi, psi)) / scale
    conv_mag = l2_norm(convolve(phi, psi)) / scale
    side_a = classify_magnitude(inner_mag, tol)
    side_b = classify_magnitude(conv_mag, tol)
    finite = bool(np.isfinite(inner_mag) and np.isfinite(conv_mag))
    indeterminate = finite and "indeterminate" in (side_a, side_b)
    contradiction = finite and not indeterminate and side_a != side_b
    passed = finite and not contradiction
    report = TheoremReport(
        "C",
        1,
        phi.group.name,
        phi.n,
        _worst(inner_mag, conv_mag) if not passed else 0.0,
        passed,
    )
    report.details = {
        "inner_scaled": inner_mag,
        "conv_scaled": conv_mag,
        "inner_class": side_a,
        "conv_class": side_b,
        "indeterminate_trials": 1 if indeterminate else 0,
    }
    if not finite:
        report.details["failure"] = f"non-finite magnitude: inner {inner_mag!r}, convolution {conv_mag!r}"
    if not passed:
        report.counterexample = {"phi": matfun_to_json(phi), "psi": matfun_to_json(psi)}
    return report


def check_inner_trace(phi: MatFun, psi: MatFun, tol: float = 1e-10) -> TheoremReport:
    """Verify <phi, psi> = Tr((phi * psi)(e)) for positive definite pairs."""
    scale = max(l2_norm(phi) * l2_norm(psi), 1e-300)
    lhs = inner(phi, psi)
    rhs = complex(np.trace(convolve(phi, psi).values[phi.group.identity]))
    residual = abs(lhs - rhs) / scale
    report = TheoremReport(
        "lemma_2_1", 1, phi.group.name, phi.n, residual / max(tol, 1e-300), residual <= tol
    )
    report.details = {"inner": [lhs.real, lhs.imag], "trace_at_identity": [rhs.real, rhs.imag]}
    if not report.passed:
        report.counterexample = {"phi": matfun_to_json(phi), "psi": matfun_to_json(psi)}
    return report


def build_orthogonal_pd_pair(theta: MatFun, split_t: float) -> tuple[MatFun, MatFun]:
    """Split a PD function into two PD pieces with vanishing convolution.

    The first piece is the spectral cut of theta at split_t, the second
    is the remainder; their convolution operators live on orthogonal
    spectral subspaces, so the pair has zero convolution and zero inner
    product, and the pieces sum back to theta.  Raises
    NotPositiveDefiniteError unless theta is positive definite.
    """
    return _orthogonal_pair(theta, _certified_spectrum(theta, DEFAULT_PD_TOL), split_t)


def _orthogonal_pair(theta: MatFun, spectrum: FourierSpectrum, split_t: float) -> tuple[MatFun, MatFun]:
    """build_orthogonal_pd_pair from a spectrum of theta already certified."""
    ev = spectrum.eigenvalues
    below = np.count_nonzero(ev <= split_t)
    if below == 0 or below == ev.size:
        raise SpectrumSplitError(f"split {split_t} leaves {below} of {ev.size} eigenvalues below")
    low = spectrum.cut(split_t)
    return low, subtract(theta, low)


@dataclass(frozen=True)
class SuiteConfig:
    """What to run: group specs, dimensions, trial counts, seed, tolerances."""

    groups: tuple[str, ...] = ("cyclic:6", "dihedral:4", "quaternion:8", "symmetric:3")
    dims: tuple[int, ...] = (1, 2)
    trials: int = 100
    seed: int = 2024
    tol: float = 1e-8
    pair_tol: float = 1e-10
    max_iter: int = 200_000
    name: str = "default"

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.tol <= 0 or self.pair_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if any(n < 1 for n in self.dims):
            raise ValueError("dimensions must be >= 1")


def derive_seed(*parts) -> int:
    """Stable 64-bit stream seed from heterogeneous parts."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _suite_workers() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _random_pd(group: GroupTable, n: int, seed: int) -> MatFun:
    return make_pd(random_matfun(group, n, seed))


def _split_point(eigenvalues: np.ndarray) -> float:
    return float((eigenvalues[0] + eigenvalues[-1]) / 2.0)


def _trial_a(group: GroupTable, n: int, seed: int, cfg: SuiteConfig):
    phi = _random_pd(group, n, seed)
    return check_theorem_a(phi, tol=cfg.tol, max_iter=cfg.max_iter), {"phi": matfun_to_json(phi)}


def _trial_b(group: GroupTable, n: int, seed: int, cfg: SuiteConfig):
    phi = _random_pd(group, n, derive_seed(seed, "phi"))
    psi = _random_pd(group, n, derive_seed(seed, "psi"))
    report = check_theorem_b(phi, psi, tol=cfg.pair_tol)
    return report, {"phi": matfun_to_json(phi), "psi": matfun_to_json(psi)}


def _trial_c(group: GroupTable, n: int, seed: int, cfg: SuiteConfig):
    theta = _random_pd(group, n, derive_seed(seed, "theta"))
    # one spectrum gives the split point, checks it, and makes the cut
    spectrum = _certified_spectrum(theta, DEFAULT_PD_TOL)
    low, high = _orthogonal_pair(theta, spectrum, _split_point(spectrum.eigenvalues))
    orth = check_theorem_c(low, high, tol=cfg.pair_tol)
    phi = _random_pd(group, n, derive_seed(seed, "phi"))
    psi = _random_pd(group, n, derive_seed(seed, "psi"))
    overlap = check_theorem_c(phi, psi, tol=cfg.pair_tol)
    # an independent random pair must land strictly on the nonzero side
    if overlap.passed and overlap.details["inner_class"] != "nonzero":
        overlap.passed = False
        overlap.details["failure"] = "random pair did not classify as nonzero"
    merged = TheoremReport("C", 1, group.name, n, _worst(orth.worst_residual, overlap.worst_residual),
                           orth.passed and overlap.passed)
    merged.details = {
        "orthogonal": orth.details,
        "overlapping": overlap.details,
        "indeterminate_trials": orth.details["indeterminate_trials"]
        + overlap.details["indeterminate_trials"],
    }
    inputs = {"theta": matfun_to_json(theta), "phi": matfun_to_json(phi), "psi": matfun_to_json(psi)}
    return merged, inputs


def _trial_lemma(group: GroupTable, n: int, seed: int, cfg: SuiteConfig):
    phi = _random_pd(group, n, derive_seed(seed, "phi"))
    psi = _random_pd(group, n, derive_seed(seed, "psi"))
    report = check_inner_trace(phi, psi)
    return report, {"phi": matfun_to_json(phi), "psi": matfun_to_json(psi)}


_TRIALS = {"A": _trial_a, "B": _trial_b, "C": _trial_c, "lemma_2_1": _trial_lemma}


def run_suite(config: SuiteConfig, collect_trials: bool = False) -> dict:
    """Run all theorem suites over the configured corpus.

    Deterministic per (config, seed): every trial draws its inputs from
    a seed derived from the suite seed and the trial coordinates, so
    results do not depend on scheduling.  The worker count is capped by
    the GODEMENT_SUITE_THREADS environment variable.  With
    collect_trials, the result also carries one flat row per trial.
    """
    config.validate()
    reports: list[TheoremReport] = []
    rows: list[dict] = []
    workers = _suite_workers()
    for spec in config.groups:
        group = parse_group_spec(spec)
        for n in config.dims:
            for theorem, trial_fn in _TRIALS.items():
                aggregate = TheoremReport(theorem, 0, group.name, n, 0.0, True)

                def one(t: int, fn=trial_fn, grp=group, dim=n, thm=theorem):
                    seed = derive_seed(config.seed, thm, grp.name, dim, t)
                    return fn(grp, dim, seed, config)

                if workers > 1:
                    with ThreadPoolExecutor(max_workers=workers) as pool:
                        outcomes = list(pool.map(one, range(config.trials)))
                else:
                    outcomes = [one(t) for t in range(config.trials)]
                for t, (trial_report, inputs) in enumerate(outcomes):
                    _merge(aggregate, trial_report, inputs)
                    if collect_trials:
                        rows.append({
                            "theorem": theorem,
                            "group": group.name,
                            "n": n,
                            "trial": t,
                            "worst_residual": trial_report.worst_residual,
                            "passed": trial_report.passed,
                        })
                reports.append(aggregate)
    result = {
        "suite": config.name,
        "seed": config.seed,
        "passed": all(r.passed for r in reports),
        "reports": [r.to_json() for r in reports],
    }
    if collect_trials:
        result["trial_rows"] = rows
    return result

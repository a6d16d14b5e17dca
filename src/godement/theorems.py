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
import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .groups import GroupTable, _spec_order, parse_group_spec
from .matfun import (
    MatFun,
    _adjoint,
    _complex_normals,
    _conv_kernel,
    _l2,
    _power_of_two_unit,
    inner,
    l2_norm,
    matfun_to_json,
    subtract,
)
from .fourier import FourierSpectrum, count_leq
from .operators import DEFAULT_PD_TOL, _certified_spectrum, _check_tol, is_positive_definite
from .roots import _ROOT_TOL, ConvergenceError, _iterative_root, _spectral_root

__all__ = [
    "TheoremReport",
    "SuiteConfig",
    "SpectrumSplitError",
    "check_theorem_a",
    "check_theorem_b",
    "check_theorem_c",
    "check_inner_trace",
    "build_orthogonal_pd_pair",
    "run_suite",
    "derive_seed",
]

# The suite runs its trials in one thread and reads no environment variable.
# The name stays because the benchmark harness (perfbench/run.py) clears the
# variable it once named before it measures.
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
        return asdict(self)


def _worst(a: float, b: float) -> float:
    """max(a, b) that keeps a NaN: max() compares false against it and drops it."""
    return a if math.isnan(a) or a > b else b


def _merge(target: TheoremReport, trial: TheoremReport) -> None:
    """Fold one trial into the aggregate, which keeps its first failing trial's counterexample."""
    target.trials += trial.trials
    target.worst_residual = _worst(trial.worst_residual, target.worst_residual)
    for key, value in trial.details.items():
        if isinstance(value, (int, float)) and key.startswith("indeterminate"):
            target.details[key] = target.details.get(key, 0) + value
    if not trial.passed and target.passed:
        target.passed = False
        target.counterexample = trial.counterexample


def check_theorem_a(phi: MatFun, tol: float = _ROOT_TOL, iter_tol: float = 1e-9) -> TheoremReport:
    """Verify the square-root factorization of one positive definite phi.

    Runs both root constructions and checks: psi * psi reproduces phi,
    psi is positive definite and star-fixed, the two methods agree, the
    iterative trace is monotone and obeys the trace bound at the identity.
    One Fourier spectrum of phi certifies it and serves both roots, and
    psi's certificate gives its star gap.  The star gap is relative to
    ||psi||, and the trace bound ||psi_k||^2 <= Tr phi(e) to Tr phi(e), so
    neither depends on the scale of phi, and the roots must agree within
    the bound their residuals give.  ||phi||_2 is taken once, for both roots'
    kernel residuals and the bound.  tol and iter_tol must be positive and
    finite; a bad one raises ValueError before any work, not a failed theorem.
    """
    _check_tol(tol)
    _check_tol(iter_tol, "iter_tol")
    group, n = phi.group, phi.n
    report = TheoremReport("A", 1, group.name, n, 0.0, True)
    phi_norm = l2_norm(phi)
    try:
        spectrum = _certified_spectrum(phi)
        spectral = _spectral_root(phi, spectrum, tol, phi_norm)
        iterative = _iterative_root(phi, spectrum, iter_tol, phi_norm)
    except (ConvergenceError, ValueError) as exc:  # ValueError: phi not PD, or a root with non-finite entries
        return _failed_a(report, phi, str(exc))

    # iterative convergence itself is enforced by ConvergenceError above
    agreement = _l2(spectral.psi.values - iterative.psi.values)
    # psi - X = (phi - X * X)(psi + X)^-1 for the PD root psi and a PSD X that
    # commutes with phi, as both roots do; below DEFAULT_PD_TOL s an eigenvalue
    # is rounding to both.  s = 0 only for the zero function, whose roots are 0.
    floor = max(float(spectrum.eigenvalues[0]), DEFAULT_PD_TOL * spectrum.operator_norm)
    bound = (spectral.residual + iterative.residual) * (phi_norm / math.sqrt(floor)) if floor > 0.0 else 0.0
    psi_cert = is_positive_definite(spectral.psi)
    residuals = {
        "spectral_residual": spectral.residual / tol,
        "star_gap": psi_cert.hermitian_residual / max(1e-300, math.sqrt(group.order) * 1e-10 * l2_norm(spectral.psi)),
        "psi_not_pd": 0.0 if psi_cert.ok else np.inf,
        "method_agreement": agreement / bound if bound > 0.0 else (0.0 if agreement == 0.0 else np.inf),
    }
    phi_trace = float(phi.values[group.identity].trace().real)
    monotone_ok, bound_ok = _trace_checks(iterative.monotone_trace or (), phi_trace)
    residuals["trace_monotone"] = 0.0 if monotone_ok else np.inf
    residuals["trace_bound"] = 0.0 if bound_ok else np.inf

    worst_key = max(residuals, key=lambda k: (math.isnan(residuals[k]), residuals[k]))
    report.worst_residual = float(residuals[worst_key])
    report.details = {
        "spectral_residual": spectral.residual,
        "iterative_residual": iterative.residual,
        "iterations": iterative.iterations,
        "agreement": agreement,
    }
    return report if report.worst_residual <= 1.0 else _failed_a(report, phi, worst_key)


def _failed_a(report: TheoremReport, phi: MatFun, failure: str) -> TheoremReport:
    """The failed Theorem A report, with the reason and phi as its counterexample."""
    report.passed, report.counterexample = False, {"phi": matfun_to_json(phi)}
    report.details["failure"] = failure
    return report


def _trace_checks(trace, phi_trace: float) -> tuple[bool, bool]:
    """Whether the trace ||psi_k|| of the iteration is monotone up to a dip of
    1e-12 of its largest value (and 0), and whether every ||psi_k||^2 stays
    within Tr phi(e) up to 1e-12 of it, on Python floats.  A NaN is never
    the largest value here, as it is to numpy's max, but it fails both
    checks wherever it has a neighbour or is squared, so the verdicts agree."""
    dip = -1e-12 * max((0.0, *trace))
    monotone = all(b - a >= dip for a, b in zip(trace, trace[1:]))
    bound = phi_trace * (1.0 + 1e-12)
    return monotone, all(v * v <= bound for v in trace)


# Norms in this range multiply, in inner products and convolutions of a
# pair, without overflow and with underflow far below rounding.
_PAIR_RANGE = (2.0**-250, 2.0**250)
# The tolerance of every pair check (Theorems B and C, the trace lemma and
# reps.check_tensor_nonneg) on its residuals relative to ||phi|| ||psi||.
_PAIR_TOL = 1e-10


def _in_range(a: MatFun) -> tuple[MatFun, float, float]:
    """a / unit, its norm, and unit: a power of two that is 1 when the norm
    of a lies in _PAIR_RANGE and else brings its largest entry into [1, 2).

    The division is exact, and the pair checks are ratios homogeneous in
    each function, so a verdict does not depend on the scale of either.
    """
    norm = l2_norm(a)
    if _PAIR_RANGE[0] <= norm <= _PAIR_RANGE[1]:
        return a, norm, 1.0
    unit = _power_of_two_unit(a.values)
    a = MatFun(a.group, a.n, a.values / unit)
    return a, l2_norm(a), unit


def _pair_check(theorem: str, phi: MatFun, psi: MatFun, measure, counterexample=None) -> TheoremReport:
    """The report of measure(phi_u, psi_u, scale, unit) -> (residual, details)
    on phi and psi brought into range (_in_range), with scale = ||phi|| ||psi||
    and unit the factor that scales a value bilinear in the pair back.  The
    residual, relative to scale, passes within _PAIR_TOL and is reported as its
    ratio to it; Theorem C, which classifies, returns (worst, passed) instead.
    A failure's counterexample is counterexample(), by default both inputs."""
    (phi_u, phi_norm, phi_unit), (psi_u, psi_norm, psi_unit) = _in_range(phi), _in_range(psi)
    scale = max(phi_norm * psi_norm, 1e-300)
    residual, details = measure(phi_u, psi_u, scale, phi_unit * psi_unit)
    worst, passed = residual if isinstance(residual, tuple) else (residual / _PAIR_TOL, residual <= _PAIR_TOL)
    report = TheoremReport(theorem, 1, phi.group.name, phi.n, worst, passed, details=details)
    if not passed:
        report.counterexample = (counterexample() if counterexample
                                 else {"phi": matfun_to_json(phi), "psi": matfun_to_json(psi)})
    return report


def check_theorem_b(phi: MatFun, psi: MatFun) -> TheoremReport:
    """Verify that the inner product of two PD functions is real nonnegative.

    The residual is relative to ||phi|| ||psi|| (_pair_check), so it holds
    at any scale; the reported inner product is scaled back.
    """
    def measure(phi_u, psi_u, scale, unit):
        value = inner(phi_u, psi_u)
        deficit = 0.0 if value.real >= 0.0 else -value.real  # NaN when the real part is NaN
        residual = _worst(abs(value.imag), deficit) / scale
        value *= unit
        return residual, {"inner_real": value.real, "inner_imag": value.imag}

    return _pair_check("B", phi, psi, measure)


def _classify_magnitude(value: float, tol: float) -> str:
    """Three-way classification with an indeterminate floating-point band."""
    if value <= tol:
        return "zero"
    if value >= 100.0 * tol:
        return "nonzero"
    return "indeterminate"


def check_theorem_c(phi: MatFun, psi: MatFun) -> TheoremReport:
    """Verify the biconditional: inner product zero iff convolution zero.

    Both scaled magnitudes are reported.  A trial fails when one side
    classifies as zero and the other as nonzero, or when a magnitude is
    not finite (NaN would otherwise land in the indeterminate band);
    magnitudes inside the band (_PAIR_TOL, 100 _PAIR_TOL) are flagged
    indeterminate, not failed.  Both are relative to ||phi|| ||psi||
    (_pair_check), so they hold at any scale.
    """
    return _pair_check("C", phi, psi, _measure_c)


def _measure_c(phi_u: MatFun, psi_u: MatFun, scale: float, unit: float) -> tuple:
    """The measure of check_theorem_c (see _pair_check): its verdict and details."""
    inner_mag = abs(inner(phi_u, psi_u)) / scale
    conv_mag = _l2(_conv_kernel(phi_u.group, phi_u.values, psi_u.values)) / scale
    side_a = _classify_magnitude(inner_mag, _PAIR_TOL)
    side_b = _classify_magnitude(conv_mag, _PAIR_TOL)
    finite = bool(np.isfinite(inner_mag) and np.isfinite(conv_mag))
    indeterminate = finite and "indeterminate" in (side_a, side_b)
    passed = finite and (indeterminate or side_a == side_b)
    details = {"inner_scaled": inner_mag, "conv_scaled": conv_mag, "inner_class": side_a,
               "conv_class": side_b, "indeterminate_trials": 1 if indeterminate else 0}
    if not finite:
        details["failure"] = f"non-finite magnitude: inner {inner_mag!r}, convolution {conv_mag!r}"
    return (_worst(inner_mag, conv_mag) if not passed else 0.0, passed), details


def check_inner_trace(phi: MatFun, psi: MatFun) -> TheoremReport:
    """Verify <phi, psi> = Tr((phi * psi)(e)) for positive definite pairs.

    The residual is relative to ||phi|| ||psi|| (_pair_check), so it holds
    at any scale; the reported values are scaled back.
    """
    def measure(phi_u, psi_u, scale, unit):
        lhs = inner(phi_u, psi_u)
        rhs = complex(np.trace(_conv_kernel(phi.group, phi_u.values, psi_u.values)[phi.group.identity]))
        residual = abs(lhs - rhs) / scale
        lhs, rhs = lhs * unit, rhs * unit
        details = {"inner": [lhs.real, lhs.imag], "trace_at_identity": [rhs.real, rhs.imag]}
        return residual, details

    return _pair_check("lemma_2_1", phi, psi, measure)


def build_orthogonal_pd_pair(theta: MatFun, split_t: float) -> tuple[MatFun, MatFun]:
    """Split a PD function into two PD pieces with vanishing convolution.

    The first piece is the spectral cut of theta at split_t, the second
    is the remainder; their convolution operators live on orthogonal
    spectral subspaces, so the pair has zero convolution and zero inner
    product, and the pieces sum back to theta.  Raises
    NotPositiveDefiniteError unless theta is positive definite.
    """
    return _orthogonal_pair(theta, _certified_spectrum(theta), split_t)


def _orthogonal_pair(theta: MatFun, spectrum: FourierSpectrum, split_t: float) -> tuple[MatFun, MatFun]:
    """build_orthogonal_pd_pair from a spectrum of theta already certified."""
    ev = spectrum.eigenvalues
    below = count_leq(ev, split_t)  # what the cut keeps, whole clusters included
    if below == 0 or below == ev.size:
        raise SpectrumSplitError(f"split {split_t} leaves {below} of {ev.size} eigenvalues below")
    low = spectrum.cut(split_t)
    return low, subtract(theta, low)


@dataclass(frozen=True)
class SuiteConfig:
    """What to run: group specs, dimensions, trial counts, seed, and the
    tolerance of Theorem A's spectral root.  The pair checks run at _PAIR_TOL."""

    groups: tuple[str, ...] = ("cyclic:6", "dihedral:4", "quaternion:8", "symmetric:3")
    dims: tuple[int, ...] = (1, 2)
    trials: int = 100
    seed: int = 2024
    tol: float = _ROOT_TOL
    name: str = "default"

    def validate(self) -> None:
        """Raise ValueError before any trial: an empty grid would pass
        without checking anything, and a bad spec or a cell whose operator
        has one eigenvalue would fail midway.  Orders come from the specs
        (groups._spec_order), so no table is built."""
        if not self.groups:
            raise ValueError("no groups given")
        if not self.dims:
            raise ValueError("no dimensions given")
        orders = {spec: _spec_order(spec) for spec in self.groups}
        if type(self.trials) is not int or self.trials < 1:  # the rule matfun_from_json applies to n
            raise ValueError(f"trials must be an int >= 1, got {self.trials!r}")
        _check_tol(self.tol)
        if any(type(n) is not int or n < 1 for n in self.dims):
            raise ValueError(f"dimensions must be ints >= 1, got {self.dims!r}")
        for spec, order in orders.items():
            if order * min(self.dims) < 2:
                raise ValueError(f"group {spec!r} of order {order} at n = {min(self.dims)}: the operator has one "
                                 "eigenvalue, and Theorem C needs two to split the spectrum (|G| n >= 2)")


def derive_seed(*parts) -> int:
    """Stable 64-bit stream seed from heterogeneous parts."""
    text = ":".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _random_pd(group: GroupTable, n: int, seed: int) -> MatFun:
    """make_pd(random_matfun(group, n, seed)), bit for bit: the same kernel call
    on the raw draw, so that only the result is built and validated as a MatFun."""
    f = _complex_normals(seed, (group.order, n, n))[0]
    return MatFun(group, n, _conv_kernel(group, _adjoint(group, f), f))


def _split_point(eigenvalues: np.ndarray) -> float:
    return float((eigenvalues[0] + eigenvalues[-1]) / 2.0)


def _trial_a(group: GroupTable, n: int, seed: int, cfg: SuiteConfig):
    report = check_theorem_a(_random_pd(group, n, seed), tol=cfg.tol)
    return report, report.counterexample


def _pair_trial(check, group: GroupTable, n: int, seed: int, cfg: SuiteConfig):
    """The suite trial of a pair check on two independent random PD functions."""
    phi = _random_pd(group, n, derive_seed(seed, "phi"))
    psi = _random_pd(group, n, derive_seed(seed, "psi"))
    report = check(phi, psi)
    return report, report.counterexample


def _trial_c(group: GroupTable, n: int, seed: int, cfg: SuiteConfig):
    theta = _random_pd(group, n, derive_seed(seed, "theta"))
    # one spectrum gives the split point, checks it, and makes the cut
    spectrum = _certified_spectrum(theta)
    low, high = _orthogonal_pair(theta, spectrum, _split_point(spectrum.eigenvalues))
    # both checks leave their counterexample to the merged report
    orth = _pair_check("C", low, high, _measure_c, lambda: None)
    phi = _random_pd(group, n, derive_seed(seed, "phi"))
    psi = _random_pd(group, n, derive_seed(seed, "psi"))
    overlap = _pair_check("C", phi, psi, _measure_c, lambda: None)
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
    if not merged.passed:
        merged.counterexample = {k: matfun_to_json(f) for k, f in zip(("theta", "phi", "psi"), (theta, phi, psi))}
    return merged, merged.counterexample


# Each trial returns its report and the report's counterexample, None when it passed.
_TRIALS = {"A": _trial_a, "B": partial(_pair_trial, check_theorem_b), "C": _trial_c,
           "lemma_2_1": partial(_pair_trial, check_inner_trace)}


def run_suite(config: SuiteConfig, collect_trials: bool = False) -> dict:
    """Run all theorem suites over the configured corpus.

    Deterministic per (config, seed): every trial draws its inputs from
    a seed derived from the suite seed and the trial coordinates, so
    results do not depend on the order in which trials run.  With
    collect_trials, the result also carries one flat row per trial, whose
    iterations is the iterative root's step count for Theorem A and None
    for the other theorems.
    """
    config.validate()
    reports: list[TheoremReport] = []
    rows: list[dict] = []
    for spec in config.groups:
        group = parse_group_spec(spec)
        for n in config.dims:
            for theorem, trial_fn in _TRIALS.items():
                aggregate = TheoremReport(theorem, 0, group.name, n, 0.0, True)
                for t in range(config.trials):
                    seed = derive_seed(config.seed, theorem, group.name, n, t)
                    trial_report, _ = trial_fn(group, n, seed, config)
                    _merge(aggregate, trial_report)
                    if collect_trials:
                        rows.append({
                            "theorem": theorem,
                            "group": group.name,
                            "n": n,
                            "trial": t,
                            "worst_residual": trial_report.worst_residual,
                            "passed": trial_report.passed,
                            "iterations": trial_report.details.get("iterations"),
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

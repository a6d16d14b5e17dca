"""Reference speed of the machine, measured between ops.

The shared host this benchmark was built on changes speed by 20-50 %
over seconds to minutes while running the same code (other tenants on
the same cores), so a run's raw times depend on when it ran.  A fixed
reference computation, independent of godement, is timed between the
ops of every pass; a time divided by the run's speed factor (see
speed_factor; run.py takes the median over passes) is that time at the
reference speed.

The probe mixes the kinds of work the workloads do: interpreter and
small-array numpy calls (a trial of the suites is mostly that), dense
Hermitian linear algebra and JSON (the CLI's work).
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

clock = time.perf_counter

# The probe time that speed factor 1.0 stands for.  The probe's lower
# quartile is 0.9-1.3 ms on the 2-core Intel Xeon KVM guest this was built
# on (Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
PROBE_REF_S = 1.0e-3
# Probe after this much op time (or after every op, if ops are longer):
# a few percent of overhead, a few hundred probes in a pass.
PROBE_EVERY_S = 0.05


@dataclasses.dataclass(frozen=True)
class _Values:
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("probe values must be finite")
        object.__setattr__(self, "values", vals)


class Probe:
    """The reference computation, on fixed inputs: a frozen group-algebra
    product on an order-8 table (the suites' inner loop, as written when
    this benchmark was made), a dense Hermitian eigensolve and a JSON round
    trip (the CLI's kind of work)."""

    def __init__(self):
        rng = np.random.default_rng(20240917)
        order = 8
        self.mult = np.array([[(g + h) % order for h in range(order)] for g in range(order)])
        self.inv = np.array([(-g) % order for g in range(order)])
        self.a = _Values(rng.standard_normal((order, 2, 2)) + 1j * rng.standard_normal((order, 2, 2)))
        dense = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.dense = dense @ dense.conj().T
        self.payload = {"values": rng.standard_normal(256).tolist()}
        self()  # first call pays numpy's lazy set-up

    def __call__(self) -> float:
        t0 = clock()
        acc = 0.0
        b = self.a
        for _ in range(6):
            shifted = b.values[self.mult[self.inv]]
            b = _Values(np.einsum("gik,gxkj->xij", self.a.values, shifted, optimize=True) / 4.0)
            acc += float(np.linalg.norm(b.values))
        acc += float(np.linalg.eigvalsh(self.dense)[-1])
        acc += sum(json.loads(json.dumps(self.payload))["values"][:8])
        elapsed = clock() - t0
        if not np.isfinite(acc):
            raise ArithmeticError("probe computation went wrong")
        return elapsed


class Calibrator:
    """Runs the probe between ops and hands each pass its probe times."""

    def __init__(self, probe: Probe | None = None, every_s: float = PROBE_EVERY_S):
        self.probe = probe or Probe()
        self.every_s = every_s
        self._owed = 0.0
        self._times: list[float] = []

    def after_op(self, op_s: float) -> None:
        """Call after timing an op; probes once enough op time has passed."""
        self._owed += op_s
        if self._owed >= self.every_s:
            self._owed = 0.0
            self._times.append(self.probe())

    def take(self) -> list[float]:
        """The probe times since the last take."""
        times, self._times, self._owed = self._times, [], 0.0
        return times


def speed_factor(probe_times: list[float]) -> float:
    """How much slower than the reference the machine ran in one pass: > 1 is slower.

    The lower quartile of the probe times: over five suite_default runs on a
    busy host it tracked the pass times better than the median did (IQR /
    median of the calibrated pass time 11 % against 17 %; 34 % uncalibrated).
    """
    return float(np.percentile(probe_times, 25)) / PROBE_REF_S

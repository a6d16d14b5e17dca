"""The three workloads: inputs made from the benchmark seed, timed passes,
and the correctness gate each pass must clear.

suite_default  run_suite with the default groups and dimensions, 50 trials
               of each theorem: many tiny convolutions (|G| <= 8, n <= 2)
               inside sqrt_iterative, so it shows per-call overhead in
               matfun and roots.
suite_wide     the same code path on the order-24 groups s4 and z2xd6 at
               n = 3: each convolution does ~30x the arithmetic and each
               operator is 72 x 72, so cutting arithmetic shows here and
               cutting per-call overhead shows on suite_default.
cli_spectral   in-process godement.cli.main calls on MatFun files the
               benchmark writes: dense operators work (eigh up to 360 x 360,
               SVD 2-norms, the 120-element commutant check), JSON I/O and
               reps, with almost no convolution.

Ops are trials for the suites and CLI calls for cli_spectral.  A suite
trial is timed through the suite's per-theorem trial table, the only
per-trial boundary the package exposes.

A run draws its input sets from its seed (one for the suites, INPUT_SETS
for cli_spectral) and cycles through them.
Between ops, every untraced pass times the calibrate.py probe, so run.py
can report each pass's times at the reference speed as well.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from perfbench.calibrate import Calibrator

clock = time.perf_counter


def derive(*parts) -> int:
    """Stable 63-bit seed from the benchmark seed and coordinates."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclasses.dataclass
class PassResult:
    wall_s: float
    op_times: list[float]
    attempted: int
    failed: int
    problems: list[str]
    serialized_inputs: int = 0
    failing_trials: int = 0
    input_set: int = 0
    probe_times: list[float] = dataclasses.field(default_factory=list)


# Half the default 100 trials per theorem: a pass of 7-10 s repeats five to seven
# times in a run.  The suite's work still varies ~6 % from seed to seed (IQR
# of sqrt_iterative steps over 12 seeds; 4 % at 100 trials, 11 % at 25).
SUITE_DEFAULT_TRIALS = 50


class SuiteWorkload:
    """run_suite on a fixed grid; its trials are drawn from seed derive(seed, name, 0).

    One input set: every pass repeats the same trials."""

    # op_tail_ms percentile: p99 would be the highest with 10 trials beyond
    # it, but it moves 9-12 % from seed to seed from the inputs alone (the
    # few trials whose root iterates longest); p90 moves 3-5 %
    tail_pct = 90.0
    # the suite's pass times follow the probe less than in full (calibrate.py)
    probe_elasticity = 0.75

    def __init__(self, gd, name: str, seed: int, groups=None, dims=None, trials=None):
        self.gd, self.name, self.seed = gd, name, seed
        base = gd.theorems.SuiteConfig()
        self.base = dataclasses.replace(
            base,
            groups=tuple(groups) if groups else base.groups,
            dims=tuple(dims) if dims else base.dims,
            trials=trials or base.trials,
        )
        self.iter_tol = inspect.signature(gd.theorems.check_theorem_a).parameters["iter_tol"].default
        self.calibrator = Calibrator()

    def setup(self, workdir: Path) -> None:
        # the program rebuilds its tables inside run_suite; this is the user's
        # fixed cost of naming the groups before a run
        self.tables = [self.gd.groups.parse_group_spec(s) for s in self.base.groups]

    def warm_up(self) -> None:
        warm = dataclasses.replace(self.base, trials=2, seed=derive(self.seed, self.name, "warm"))
        self._run(warm, None)

    def run_pass(self, k: int, tracer=None) -> PassResult:
        return self._run(dataclasses.replace(self.base, seed=derive(self.seed, self.name, 0)), tracer)

    def _run(self, cfg, tracer) -> PassResult:
        theorems = self.gd.theorems
        table = theorems._TRIALS
        records: list[tuple] = []

        def hook(theorem, fn):
            def trial(group, n, seed, config):
                t0 = clock()
                if tracer is None:
                    out = fn(group, n, seed, config)
                else:
                    with tracer.op(f"op.trial.{theorem}"):
                        out = fn(group, n, seed, config)
                elapsed = clock() - t0
                # keep plain values only: holding thousands of reports would
                # grow the heap the garbage collector walks during the pass
                records.append((elapsed, self._trial_problem(theorem, out[0], cfg), out[1] is not None))
                if tracer is None:  # a probe inside run_suite's span would count as its self time
                    self.calibrator.after_op(elapsed)
                return out
            return trial

        saved = dict(table)
        table.update({thm: hook(thm, fn) for thm, fn in saved.items()})
        error = None
        try:
            with tracer.active() if tracer else nullcontext():
                t0 = clock()
                try:
                    result = theorems.run_suite(cfg)
                except Exception:  # a crash is a failed op, reported with the run
                    result, error = None, f"run_suite raised:\n{traceback.format_exc()}"
                wall = clock() - t0
        finally:
            table.clear()
            table.update(saved)
        probes = self.calibrator.take()
        result = self._verify(cfg, len(saved), result, error, records, wall - sum(probes))
        result.probe_times = probes or [self.calibrator.probe()]
        return result

    def _trial_problem(self, theorem, report, cfg) -> str | None:
        if not report.passed:
            return f"trial {theorem} {report.group} n={report.n} failed: {report.details.get('failure')}"
        if theorem == "A":
            d = report.details
            if not d["spectral_residual"] <= cfg.tol or not d["iterative_residual"] <= self.iter_tol:
                return f"trial A {report.group} n={report.n} root residual out of tolerance: {d}"
        return None

    def _verify(self, cfg, n_theorems, result, error, records, wall) -> PassResult:
        problems = [error] if error else []
        trial_problems = [r[1] for r in records if r[1]]
        problems += trial_problems
        failing = len(trial_problems)
        expected = len(cfg.groups) * len(cfg.dims) * n_theorems * cfg.trials
        suite_problem = None
        if result is not None:
            if not result["passed"]:
                suite_problem = "suite verdict passed=false"
            elif len(records) != expected:
                suite_problem = f"{len(records)} trials ran, {expected} expected"
            elif any(r["trials"] != cfg.trials for r in result["reports"]) or \
                    len(result["reports"]) != len(cfg.groups) * len(cfg.dims) * n_theorems:
                suite_problem = "report trial counts differ from the config"
        if suite_problem:
            problems.append(suite_problem)
        attempted = max(len(records), 1)
        failed = failing + (1 if (error or suite_problem) and not failing else 0)
        return PassResult(
            wall_s=wall,
            op_times=[r[0] for r in records],
            attempted=attempted,
            failed=min(failed, attempted),
            problems=problems,
            serialized_inputs=sum(1 for r in records if r[2]),
            failing_trials=failing,
        )


# (group, n) cells of cli_spectral; every cell gets certify, sqrt --method
# spectral and truncate, and the ITERATIVE cells also sqrt --method iterative.
CLI_CELLS = (("s5", 1), ("s5", 3), ("s4", 3))
ITERATIVE = (("s5", 1), ("s4", 3))
# iteration counts vary ~10x with the input, so each cell has several
# inputs in each of several input sets
INPUTS_PER_CELL = 3
INPUT_SETS = 3
SQRT_TOL = 1e-8
# recomputing the residual from the written root rounds differently from the
# program's own, by ~1e-16 relative; the gate allows that much and no more
RECOMPUTE_SLACK = 1e-6


@dataclasses.dataclass
class CliOp:
    label: str
    argv: list[str]
    out: Path
    check: object  # callable(dict) -> problem text or None


class CliWorkload:
    """In-process godement.cli.main calls on MatFun files the benchmark writes."""

    # op_tail_ms percentile: the three s5 n=3 spectral roots are the slowest
    # ~9 % of a set's calls and the s5 n=3 truncations the next ~9 %; p90
    # falls in the gap between them and jumps, p95 falls among the roots
    tail_pct = 95.0
    # the probe runs between BLAS-heavy calls and reacts to the host about
    # twice as much as the calls do (calibrate.py)
    probe_elasticity = 0.5

    def __init__(self, gd, name: str, seed: int, cells=CLI_CELLS, inputs_per_cell=INPUTS_PER_CELL,
                 sets=INPUT_SETS):
        self.gd, self.name, self.seed = gd, name, seed
        self.cells, self.inputs_per_cell, self.sets = cells, inputs_per_cell, sets
        self.calibrator = Calibrator()

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        specs = sorted({c[0] for c in self.cells})
        self.tables = {spec: self.gd.groups.parse_group_spec(spec) for spec in specs}
        self.op_sets = [self._write_inputs(j) for j in range(self.sets)]

    def _write_inputs(self, j) -> list[CliOp]:
        """Write the input files of set j and return the calls made on them."""
        gd = self.gd
        workdir = self.workdir / f"set-{j}"
        workdir.mkdir(exist_ok=True)
        ops: list[CliOp] = []
        for spec, n in self.cells:
            for i in range(self.inputs_per_cell):
                phi = gd.matfun.make_pd(gd.matfun.random_matfun(self.tables[spec], n, derive(self.seed, j, spec, n, i)))
                path = workdir / f"phi-{spec}-n{n}-{i}.json"
                path.write_text(json.dumps(gd.matfun.matfun_to_json(phi)), encoding="utf-8")
                threshold = float(np.median(np.linalg.eigvalsh(gd.operators.conv_matrix(phi).data)))
                ops += self._cell_ops(workdir, f"{spec}-n{n}-{i}", path, phi, threshold, (spec, n) in ITERATIVE)
        out = workdir / "rep-demo.out.json"
        argv = ["rep-demo", "--group", "s3", "--n", "2", "--tensor",
                "--seed", str(derive(self.seed, j, "rep-demo") % 2**31), "--out", str(out)]
        ops.append(CliOp("rep-demo", argv, out, _check_passed))
        return ops

    def _cell_ops(self, workdir, tag, path, phi, threshold, iterative) -> list[CliOp]:
        def out(kind):
            return workdir / f"{kind}-{tag}.out.json"

        ops = [CliOp("certify", ["certify", str(path), "--out", str(out("certify"))], out("certify"), _check_certify)]
        methods = ("spectral", "iterative") if iterative else ("spectral",)
        for method in methods:
            o = out(f"sqrt-{method}")
            ops.append(CliOp(f"sqrt-{method}",
                             ["sqrt", str(path), "--method", method, "--tol", repr(SQRT_TOL), "--out", str(o)],
                             o, lambda obj, phi=phi: self._check_root(obj, phi)))
        o = out("truncate")
        ops.append(CliOp("truncate", ["truncate", str(path), "-t", repr(threshold), "--out", str(o)],
                         o, lambda obj, phi=phi: self._check_cut(obj, phi)))
        return ops

    def warm_up(self) -> None:
        seen, ops = set(), []
        for op in self._write_inputs("warm"):
            if op.label not in seen:
                seen.add(op.label)
                ops.append(op)
        self._run(ops, None)

    def run_pass(self, k: int, tracer=None) -> PassResult:
        result = self._run(self.op_sets[k % self.sets], tracer)
        result.input_set = k % self.sets
        return result

    def _run(self, ops, tracer) -> PassResult:
        cli = self.gd.cli
        codes, times = [], []
        for op in ops:
            op.out.unlink(missing_ok=True)
        with tracer.active() if tracer else nullcontext():
            t_pass = clock()
            for op in ops:
                t0 = clock()
                try:
                    if tracer is None:
                        code = cli.main(op.argv)
                    else:
                        with tracer.op(f"op.cli.{op.label}"):
                            code = cli.main(op.argv)
                except SystemExit as exc:  # argparse rejects arguments by exiting
                    code = exc.code
                except Exception:  # a crash is a failed op, reported with the run
                    code = f"raised:\n{traceback.format_exc()}"
                times.append(clock() - t0)
                codes.append(code)
                if tracer is None:
                    self.calibrator.after_op(times[-1])
            wall = clock() - t_pass
        probes = self.calibrator.take()
        problems = []
        for op, code in zip(ops, codes):
            where = f"{op.label} {op.argv[1]}"
            if code != 0:
                problems.append(f"{where}: exit {code}")
                continue
            try:
                obj = json.loads(op.out.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"{where}: unreadable output ({exc})")
                continue
            try:
                bad = op.check(obj)
            except (KeyError, TypeError, ValueError) as exc:
                bad = f"malformed output ({exc!r})"
            if bad:
                problems.append(f"{where}: {bad}")
        return PassResult(wall - sum(probes), times, len(ops), len(problems), problems,
                          probe_times=probes or [self.calibrator.probe()])

    def _check_root(self, obj, phi):
        matfun = self.gd.matfun
        if not obj["residual"] <= SQRT_TOL:
            return f"reported residual {obj['residual']:.3e} exceeds {SQRT_TOL:.0e}"
        psi = matfun.matfun_from_json(obj["psi"], phi.group)
        residual = matfun.l2_norm(matfun.subtract(matfun.convolve(psi, psi), phi)) / matfun.l2_norm(phi)
        if not residual <= SQRT_TOL * (1 + RECOMPUTE_SLACK):
            return f"recomputed residual {residual:.3e} exceeds {SQRT_TOL:.0e}"
        return None

    def _check_cut(self, obj, phi):
        gd = self.gd
        cut = gd.matfun.matfun_from_json(obj, phi.group)
        scale = max(1.0, gd.matfun.l2_norm(phi))
        if gd.operators.hermitian_symmetry_residual(cut) > 1e-8 * scale:
            return "spectral cut is not star-fixed"
        if gd.matfun.l2_norm(cut) > gd.matfun.l2_norm(phi) * (1 + 1e-9):
            return "spectral cut is larger than its input"
        return None


def _check_certify(obj):
    return None if obj.get("verdict") == "positive_definite" else f"verdict {obj.get('verdict')}"


def _check_passed(obj):
    return None if obj.get("passed") is True else "rep-demo did not pass"


def make_workload(gd, name: str, seed: int, tiny: bool = False):
    """The named workload; tiny shrinks it to a few ops for the benchmark's own tests."""
    if name == "suite_default":
        return SuiteWorkload(gd, name, seed, trials=2 if tiny else SUITE_DEFAULT_TRIALS)
    if name == "suite_wide":
        return SuiteWorkload(gd, name, seed, groups=("s4", "z2xd6"), dims=(3,), trials=1 if tiny else 20)
    if name == "cli_spectral":
        if tiny:
            return CliWorkload(gd, name, seed, cells=(("s4", 3),), inputs_per_cell=1, sets=1)
        return CliWorkload(gd, name, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("suite_default", "suite_wide", "cli_spectral")

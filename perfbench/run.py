"""Benchmark of the godement toolkit: one workload per run, every verdict checked.

    python3 perfbench/run.py --workload suite_default --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  With --trace 0 the last stdout line carries the end-to-end metrics
of BENCHMARK.json, with --trace 1 its per-layer metrics, taken from
traced passes that alternate with untraced ones so the tracing overhead
shows.  Lines above it are for people: the environment, every metric
with its unit, the tail percentile and its sample count, and what each
layer figure is expected to move.  Spans and a full result record go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate, layers, spans  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402

OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
TAIL_BEYOND = 10

clock = time.perf_counter


def load_program() -> types.SimpleNamespace:
    """Import godement from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from godement import cli, groups, matfun, operators, reps, roots, theorems

    if Path(cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"godement was imported from {cli.__file__}, not from {src}")
    modules = [groups, matfun, operators, roots, theorems, reps, cli, sys.modules["godement"]]
    return types.SimpleNamespace(groups=groups, matfun=matfun, operators=operators,
                                 roots=roots, theorems=theorems, reps=reps, cli=cli, modules=modules)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own (a plain source tree)
    return lines[1]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    thread_vars = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                   if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": thread_vars or "unset (library default)",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def cold_cli_call(workdir: Path, tiny_input: Path) -> float:
    """Wall time of one fresh `godement certify` process: what every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    t0 = clock()
    proc = subprocess.run([sys.executable, "-m", "godement.cli", "certify", str(tiny_input),
                           "--out", str(workdir / "cold.out.json")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = clock() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold CLI call exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def measure_setup(gd, workload, workdir: Path) -> tuple[float, list[float]]:
    """Median over SETUP_REPEATS of a cold CLI process plus the workload's own set-up."""
    tiny = workdir / "cold-input.json"
    group = gd.groups.parse_group_spec("s3")
    tiny.write_text(json.dumps(gd.matfun.matfun_to_json(gd.matfun.make_pd(gd.matfun.random_matfun(group, 2, 0)))))
    samples = []
    for _ in range(SETUP_REPEATS):
        cold = cold_cli_call(workdir, tiny)
        t0 = clock()
        workload.setup(workdir)
        samples.append(cold + clock() - t0)
    return statistics.median(samples), samples


def measure(workload, seconds: float, tracer) -> tuple[list, list]:
    """Passes until the next would end past `seconds`; at least one.

    With a tracer each untraced pass is followed by a traced pass on the
    same inputs, and the pair counts as one step of the loop.
    """
    plain, traced = [], []
    start = clock()
    k = 0
    while True:
        plain.append(workload.run_pass(k))
        if tracer is not None:
            traced.append(workload.run_pass(k, tracer))
        k += 1
        elapsed = clock() - start
        if elapsed + elapsed / k > seconds:
            return plain, traced


def end_to_end(passes: list, setup_s: float, workload) -> tuple[dict, dict]:
    """The metrics as measured, and the four timings again at reference
    speed (ref_*): divided by the run's speed factor."""
    by_set: dict = {}
    for p in passes:
        by_set.setdefault(p.input_set, []).append(p)
    median_walls = [statistics.median(p.wall_s for p in ps) for ps in by_set.values()]
    ops_per_pass = sum(len(ps[0].op_times) for ps in by_set.values())
    times = [t for p in passes for t in p.op_times]
    tail_s = float(np.percentile(times, workload.tail_pct))
    timing = {
        "wall_s": (statistics.fmean(median_walls), "s"),
        "ops_per_s": (ops_per_pass / sum(median_walls), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        # half of a suite's trials take 0.2-0.6 ms and half 1-40 ms, so the
        # median sits in the gap between them and jumps; the geometric mean
        # moves smoothly with every op
        "op_gmean_ms": (statistics.geometric_mean(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
    }
    factors = [calibrate.speed_factor(p.probe_times) ** workload.probe_elasticity for p in passes]
    factor = statistics.median(factors)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = dict(timing)
    metrics.update({
        "fail_frac": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "speed_factor": (factor, "ratio"),
    })
    for name, (value, unit) in timing.items():
        metrics[f"ref_{name}"] = (value * factor if name == "ops_per_s" else value / factor, unit)
    notes = {"passes": len(passes), "input_sets": len(by_set), "pass_walls_s": [p.wall_s for p in passes],
             "speed_factors": factors, "probes": sum(len(p.probe_times) for p in passes),
             "probe_elasticity": workload.probe_elasticity, "ops": len(times),
             "tail_percentile": workload.tail_pct, "tail_beyond": sum(1 for t in times if t > tail_s),
             "op_max_ms": max(times) * 1e3, "attempted": attempted, "failed": failed}
    return metrics, notes


def per_layer(plain: list, traced: list, tracer) -> tuple[dict, dict]:
    n = len(traced)
    summary = spans.summarize(tracer.spans)
    metrics: dict[str, tuple[float, str]] = {}

    def layer(name: str) -> None:
        s = summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        metrics[f"{name}.calls"] = (s["calls"] / n, "count")
        metrics[f"{name}.self_s"] = (s["self_s"] / n, "s")
        metrics[f"{name}.us_per_call"] = (s["total_s"] / s["calls"] * 1e6 if s["calls"] else 0.0, "us")

    wrapped = [f"{m}.{f}" for m, f in layers.TARGETS if (m, f) != ("cli", "main")]
    subcommands = sorted(k for k in summary if k.startswith("cli.main."))
    for name in wrapped + subcommands:
        layer(name)
    conv = summary.get("matfun.convolve", {"extra_sum": 0})
    metrics["matfun.convolve.gflop_computed"] = (conv["extra_sum"] / 1e9 / n, "GFLOP")
    it = summary.get("roots.sqrt_iterative", {"extra_sum": 0, "extra_max": 0, "total_s": 0.0})
    metrics["roots.sqrt_iterative.iterations_total"] = (it["extra_sum"] / n, "count")
    metrics["roots.sqrt_iterative.iterations_max"] = (it["extra_max"], "count")
    metrics["roots.sqrt_iterative.us_per_step"] = (
        it["total_s"] / it["extra_sum"] * 1e6 if it["extra_sum"] else 0.0, "us")
    serialized = sum(p.serialized_inputs for p in traced)
    metrics["theorems.inputs_json_useful_ratio"] = (
        sum(p.failing_trials for p in traced) / serialized if serialized else 0.0, "ratio")
    traced_wall = statistics.median(p.wall_s for p in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    self_sum = sum(s["self_s"] for s in summary.values())
    notes = {"traced_passes": n, "spans": len(tracer.spans),
             "self_s_sum": self_sum, "traced_wall_sum": sum(p.wall_s for p in traced)}
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        gd = load_program()
    except ImportError as exc:
        print(f"error: cannot import the godement package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    # the suite's thread knob would interleave spans; users run it at its default of one
    os.environ.pop(gd.theorems.THREADS_ENV_VAR, None)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        record = run(gd, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(spec, args, record)


def run(gd, args, workdir: Path, tiny: bool = False) -> dict:
    workload = make_workload(gd, args.workload, args.seed, tiny)
    setup_s, setup_samples = measure_setup(gd, workload, workdir)
    workload.warm_up()
    tracer = spans.Tracer(gd.modules, layers.TARGETS) if args.trace else None
    plain, traced = measure(workload, args.seconds, tracer)
    metrics, notes = end_to_end(plain, setup_s, workload)
    notes["setup_samples_s"] = setup_samples
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "end_to_end": metrics, "notes": notes,
              "problems": [q for p in plain + traced for q in p.problems][:50],
              "attempted": sum(p.attempted for p in plain + traced),
              "failed": sum(p.failed for p in plain + traced)}
    if tracer is not None:
        record["per_layer"], record["trace_notes"] = per_layer(plain, traced, tracer)
        if record["trace_notes"]["self_s_sum"] > record["trace_notes"]["traced_wall_sum"]:
            record["problems"].append("span self times exceed the traced wall time")
        record["spans_file"] = str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(record["spans_file"])
    record["correct"] = record["failed"] == 0 and not record["problems"]
    return record


def report(spec: dict, args, record: dict) -> int:
    env, notes, e2e = record["environment"], record["notes"], record["end_to_end"]
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  trace {record['trace']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in e2e.items():
        extra = ""
        if name in ("wall_s", "ref_wall_s"):
            extra = f"  (median of {notes['passes']} passes, mean over {notes['input_sets']} input set(s))"
        elif name == "speed_factor":
            extra = (f"  (median over passes of (probe lower quartile / {calibrate.PROBE_REF_S:g} s) ** "
                     f"{notes['probe_elasticity']:g}, {notes['probes']} probes; ref_* = measured / factor)")
        elif name in ("op_tail_ms", "ref_op_tail_ms"):
            extra = (f"  (p{notes['tail_percentile']:g} of {notes['ops']} ops, "
                     f"{notes['tail_beyond']} beyond it, slowest {notes['op_max_ms']:.6g} ms)")
            if notes["tail_beyond"] < TAIL_BEYOND:
                extra += f"  warning: fewer than {TAIL_BEYOND} ops beyond the tail percentile"
        elif name == "fail_frac":
            extra = f"  ({notes['failed']} of {notes['attempted']} ops)"
        print(f"  {name:<15} {value:.6g} {unit}{extra}")
    if "per_layer" in record:
        tn = record["trace_notes"]
        pl = record["per_layer"]
        print(f"traced passes {tn['traced_passes']}, {tn['spans']} spans -> {record['spans_file']}")
        print(f"  tracing overhead: traced wall_s {pl['trace.wall_s'][0]:.6g} s vs untraced "
              f"{pl['trace.untraced_wall_s'][0]:.6g} s ({pl['trace.overhead_frac'][0]:+.1%})")
        print(f"  self times sum to {tn['self_s_sum']:.6g} s of {tn['traced_wall_sum']:.6g} s traced wall")
        for name, (value, unit) in pl.items():
            print(f"  {name:<48} {value:.6g} {unit}  -> {layers.expected(name)}")
    for problem in record["problems"]:
        print(f"problem: {problem}")

    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record.get("per_layer", {}) if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

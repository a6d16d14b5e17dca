"""Command-line front end: generate groups, sample and certify functions,
extract square roots, run theorem suites, emit JSON/CSV reports.

Exit codes: 0 success, 1 property failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from datetime import datetime, timezone

from .groups import _standard_spec, canonical_spec, group_to_json, parse_group_spec
from .matfun import _complex_normals, make_pd, matfun_from_json, matfun_to_json, random_matfun
from .operators import is_positive_definite, spectral_truncate
from .reps import _check_rep_size, check_tensor_nonneg, regular_rep, tensor_product
from .roots import _ROOT_TOL, ConvergenceError, sqrt_iterative, sqrt_spectral
from .theorems import SuiteConfig, derive_seed, run_suite

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_matfun(path: str, group_flag: str | None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    try:
        phi = matfun_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if group_flag is not None and _standard_spec(phi.group, canonical_spec(group_flag)) is None:
        raise ValueError(f"group mismatch: {path} is not on the standard table of {group_flag!r}")
    return phi


def _cmd_gen_group(args) -> int:
    group = parse_group_spec(args.group)
    _emit(group_to_json(group), args.out)
    return EXIT_OK


def _cmd_sample_pd(args) -> int:
    group = parse_group_spec(args.group)
    phi = make_pd(random_matfun(group, args.n, args.seed))
    _emit(matfun_to_json(phi), args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    phi = _load_matfun(args.file, args.group)
    cert = is_positive_definite(phi)
    _emit(cert.to_json(), args.out)
    return EXIT_OK if cert.ok else EXIT_PROPERTY_FAILURE


def _cmd_sqrt(args) -> int:
    phi = _load_matfun(args.file, args.group)
    root = sqrt_spectral if args.method == "spectral" else sqrt_iterative
    result = root(phi, tol=args.tol)
    _emit(result.to_json(), args.out)
    return EXIT_OK


def _cmd_truncate(args) -> int:
    phi = _load_matfun(args.file, args.group)
    _emit(matfun_to_json(spectral_truncate(phi, args.threshold)), args.out)
    return EXIT_OK


def _suite_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["theorem", "group", "n", "trial", "worst_residual", "passed", "iterations"])
    for r in report["trial_rows"]:
        # csv writes None, the iterations of a theorem without a root, as an empty field
        writer.writerow([r["theorem"], r["group"], r["n"], r["trial"],
                         repr(r["worst_residual"]), r["passed"], r["iterations"]])
    return buf.getvalue()


def _cmd_suite(args) -> int:
    groups = tuple(s.strip() for s in args.groups.split(",") if s.strip())
    dims = tuple(int(d) for d in args.dims.split(",") if d.strip())
    config = SuiteConfig(
        groups=groups,
        dims=dims,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        name=args.name,
    )
    report = run_suite(config, collect_trials=args.csv)
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    if args.csv:
        text = _suite_csv(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
    else:
        _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_PROPERTY_FAILURE


def _cmd_rep_demo(args) -> int:
    group = parse_group_spec(args.group)
    if args.tensor:  # refused on its size alone, before the regular representation is built
        _check_rep_size(group.order, group.order**2)
    reg = regular_rep(group)
    rep = tensor_product(reg, reg) if args.tensor else reg
    u1, u2 = _complex_normals(derive_seed(args.seed, "rep-demo"), (args.n, rep.dim), (args.n, rep.dim))
    report = check_tensor_nonneg(rep, u1, rep, u2)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godement",
        description="Positive definite matrix-valued functions on finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-group", help="emit a group table as JSON")
    p.add_argument("--group", required=True, help="group spec, e.g. z6, d4, q8, s3, z2xz3")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen_group)

    p = sub.add_parser("sample-pd", help="sample a random positive definite function")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sample_pd)

    p = sub.add_parser("certify", help="certify positive definiteness of a MatFun file")
    p.add_argument("file")
    p.add_argument("--group", help="expected group spec; mismatch with the file is an error")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("sqrt", help="extract the convolution square root of a MatFun file")
    p.add_argument("file")
    p.add_argument("--group")
    p.add_argument("--method", choices=("spectral", "iterative"), default="spectral")
    p.add_argument("--tol", type=float, default=_ROOT_TOL)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sqrt)

    p = sub.add_parser("truncate", help="spectral cut of a positive definite MatFun file")
    p.add_argument("file")
    p.add_argument("--group")
    p.add_argument("--threshold", "-t", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_truncate)

    p = sub.add_parser("suite", help="run the theorem suites")
    suite = SuiteConfig()
    p.add_argument("--groups", default=",".join(suite.groups))
    p.add_argument("--dims", default=",".join(map(str, suite.dims)))
    p.add_argument("--trials", type=int, default=suite.trials)
    p.add_argument("--seed", type=int, default=suite.seed)
    p.add_argument("--tol", type=float, default=suite.tol)
    p.add_argument("--name", default=suite.name)
    p.add_argument("--csv", action="store_true", help="flat per-report rows instead of JSON")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("rep-demo", help="tensor-product nonnegativity demo")
    p.add_argument("--group", default="s3")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tensor", action="store_true", help="use regular x regular instead of regular")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_rep_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser once per process: building the tree of every subcommand
    costs about as much as a small certify call.  parse_args only reads the
    parser and returns a fresh namespace, so no call sees another's flags."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Every error maps to its exit code here: a
    ValueError (NotPositiveDefiniteError and json.JSONDecodeError among them)
    is an input error, and a ConvergenceError a property failure."""
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())

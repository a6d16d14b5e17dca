"""Command-line front end: generate groups, sample and certify functions,
extract square roots, run theorem suites, emit JSON/CSV reports.

Exit codes: 0 success, 1 property failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone

from .groups import canonical_spec, group_to_json, parse_group_spec
from .matfun import _complex_normal, _generator, make_pd, matfun_from_json, matfun_to_json, random_matfun
from .operators import NotPositiveDefiniteError, is_positive_definite, spectral_truncate
from .reps import check_tensor_nonneg, regular_rep, tensor_product
from .roots import ConvergenceError, sqrt_iterative, sqrt_spectral
from .theorems import SuiteConfig, derive_seed, run_suite

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


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
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "group_id" not in obj:
        raise InputError(f"{path} does not contain a MatFun object")
    if group_flag is not None:
        try:
            if canonical_spec(group_flag) != canonical_spec(str(obj["group_id"])):
                raise InputError(
                    f"group mismatch: file says {obj['group_id']!r}, flag says {group_flag!r}"
                )
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    try:
        return matfun_from_json(obj)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


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
    cert = is_positive_definite(phi, args.tol)
    _emit(cert.to_json(), args.out)
    return EXIT_OK if cert.ok else EXIT_PROPERTY_FAILURE


def _cmd_sqrt(args) -> int:
    phi = _load_matfun(args.file, args.group)
    try:
        if args.method == "spectral":
            result = sqrt_spectral(phi, tol=args.tol)
        else:
            result = sqrt_iterative(phi, max_iter=args.max_iter, tol=args.tol)
    except NotPositiveDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    _emit(result.to_json(), args.out)
    return EXIT_OK


def _cmd_truncate(args) -> int:
    phi = _load_matfun(args.file, args.group)
    try:
        cut = spectral_truncate(phi, args.threshold)
    except NotPositiveDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    _emit(matfun_to_json(cut), args.out)
    return EXIT_OK


def _suite_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["theorem", "group", "n", "trial", "worst_residual", "passed"])
    for r in report["trial_rows"]:
        writer.writerow([r["theorem"], r["group"], r["n"], r["trial"],
                         repr(r["worst_residual"]), r["passed"]])
    return buf.getvalue()


def _cmd_suite(args) -> int:
    groups = tuple(s.strip() for s in args.groups.split(",") if s.strip())
    dims = tuple(int(d) for d in args.dims.split(",") if d.strip())
    if not groups and not args.allow_empty:
        raise InputError("no groups given (pass --allow-empty for an empty run)")
    for spec in groups:
        canonical_spec(spec)  # fail fast on typos
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
    reg = regular_rep(group)
    rep = tensor_product(reg, reg) if args.tensor else reg
    rg = _generator(derive_seed(args.seed, "rep-demo"))
    u1 = _complex_normal(rg, (args.n, rep.dim))
    u2 = _complex_normal(rg, (args.n, rep.dim))
    report = check_tensor_nonneg(rep, u1, rep, u2, tol=args.tol)
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
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("sqrt", help="extract the convolution square root of a MatFun file")
    p.add_argument("file")
    p.add_argument("--group")
    p.add_argument("--method", choices=("spectral", "iterative"), default="spectral")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=200_000)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sqrt)

    p = sub.add_parser("truncate", help="spectral cut of a positive definite MatFun file")
    p.add_argument("file")
    p.add_argument("--group")
    p.add_argument("--threshold", "-t", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_truncate)

    p = sub.add_parser("suite", help="run the theorem suites")
    p.add_argument("--groups", default="z6,d4,q8,s3")
    p.add_argument("--dims", default="1,2")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--name", default="default")
    p.add_argument("--allow-empty", action="store_true")
    p.add_argument("--csv", action="store_true", help="flat per-report rows instead of JSON")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("rep-demo", help="tensor-product nonnegativity demo")
    p.add_argument("--group", default="s3")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--tensor", action="store_true", help="use regular x regular instead of regular")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_rep_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

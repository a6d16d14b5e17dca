import csv
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import godement
from godement import (
    SuiteConfig,
    build_symmetric,
    check_theorem_a,
    is_positive_definite,
    l2_norm,
    make_pd,
    matfun_from_json,
    matfun_to_json,
    random_matfun,
    scale,
    sqrt_iterative,
    sqrt_spectral,
    subtract,
)
from godement.cli import build_parser, main
from godement.fourier import fourier_spectrum
from conftest import legacy_json, phi_21, relabeled_s3


def run_cli(*argv) -> int:
    return main(list(argv))


def write_phi21(tmp_path, z2):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(matfun_to_json(phi_21(z2))))
    return str(path)


class TestGenGroup:
    def test_z2_json(self, tmp_path, capsys):
        assert run_cli("gen-group", "--group", "z2") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {
            "order": 2,
            "mult": [[0, 1], [1, 0]],
            "inv": [0, 1],
            "identity": 0,
            "labels": ["0", "1"],
        }

    def test_out_file(self, tmp_path):
        out = tmp_path / "group.json"
        assert run_cli("gen-group", "--group", "d4", "--out", str(out)) == 0
        assert json.loads(out.read_text())["order"] == 8

    def test_bad_spec_is_input_error(self, capsys):
        assert run_cli("gen-group", "--group", "nope") == 2

    def test_spec_over_the_byte_limit_is_input_error(self, capsys):
        # z200000's 320 GB table once died in numpy with a traceback and exit 1
        tracemalloc.start()
        try:
            assert run_cli("gen-group", "--group", "z200000") == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        captured = capsys.readouterr()
        assert captured.out == "" and "over the 2 GiB limit" in captured.err


class TestSampleCertify:
    def test_round_trip_certifies_pd(self, tmp_path, capsys):
        sample = tmp_path / "pd.json"
        assert run_cli("sample-pd", "--group", "z6", "--n", "2", "--seed", "5",
                       "--out", str(sample)) == 0
        assert run_cli("certify", str(sample)) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdict"] == "positive_definite"
        assert cert["min_eigenvalue"] >= -1e-9 * cert["operator_norm"]

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("sample-pd", "--group", "d3", "--n", "2", "--seed", "9", "--out", str(a))
        run_cli("sample-pd", "--group", "d3", "--n", "2", "--seed", "9", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_not_pd_exits_nonzero(self, tmp_path, z2, capsys):
        # a file in the legacy nested layout, edited in place, read end to end
        obj = legacy_json(phi_21(z2))
        obj["values"][0][0][0] = [1.0, 0.0]
        obj["values"][1][0][0] = [2.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run_cli("certify", str(path)) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "not_positive_definite"

    def test_group_mismatch_flag(self, tmp_path, z2):
        assert run_cli("certify", write_phi21(tmp_path, z2), "--group", "z6") == 2

    def test_sample_pd_over_the_size_limit_is_input_error(self, s3, monkeypatch, capsys):
        # --n 20000 on s3 once died in numpy on a 35.8 GiB draw, with a traceback
        # and exit 1; a limit one byte below the n = 2 draw shows the refusal
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", s3.order * 2 * 2 * 16 - 1)
        assert run_cli("sample-pd", "--group", "s3", "--n", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "complex Gaussian draw needs" in captured.err

    def test_sample_pd_over_the_operator_size_limit_is_input_error(self, monkeypatch, capsys):
        # --n 3000 on s3 passed the 824 MiB draw's check and died in numpy on the
        # 2.41 GiB convolution index, exit 1; a fresh s3 table has no index cached,
        # and a limit between the n = 2 draw and its operator shows the refusal
        monkeypatch.setattr(godement.groups, "_SPEC_TABLES", {})
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", 16 * (6 * 2) ** 2 - 1)
        assert run_cli("sample-pd", "--group", "s3", "--n", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "convolution operator of dimension 2 on 6 elements needs" in captured.err

    def test_sample_pd_refuses_n_below_one(self, capsys):
        # n = 0 once reached a numpy reshape error
        assert run_cli("sample-pd", "--group", "s3", "--n", "0") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "dimension n must be >= 1, got 0" in captured.err

    def test_matching_flag_ok(self, tmp_path, z2):
        assert run_cli("certify", write_phi21(tmp_path, z2), "--group", "cyclic:2") == 0

    def test_missing_file(self):
        assert run_cli("certify", "/nonexistent/file.json") == 2

    def test_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "values": []}))
        assert run_cli("certify", str(path)) == 2
        path.write_text("not json at all")
        assert run_cli("certify", str(path)) == 2


def write_near_floor(tmp_path, s3) -> str:
    """make_pd(random_matfun(s3, 2, 3)) with its smallest eigenvalue lambda_0
    moved to -1e-7 ||H||_2, by subtracting (lambda_0 + 1e-7 s) / lambda_0 times
    its spectral cut at lambda_0: PD within 1e-6, not within DEFAULT_PD_TOL."""
    phi = make_pd(random_matfun(s3, 2, 3))
    spectrum = fourier_spectrum(phi)
    lam0 = float(spectrum.eigenvalues[0])
    near = subtract(phi, scale((lam0 + 1e-7 * spectrum.operator_norm) / lam0, spectrum.cut(lam0)))
    path = tmp_path / "near-floor.json"
    path.write_text(json.dumps(matfun_to_json(near)))
    return str(path)


class TestOneVerdict:
    """certify, sqrt and truncate judge positive definiteness at one tolerance."""

    def test_near_floor_file(self, tmp_path, s3, capsys):
        path = write_near_floor(tmp_path, s3)
        assert run_cli("certify", path) == 1
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdict"] == "not_positive_definite"
        assert cert["min_eigenvalue"] == pytest.approx(-1e-7 * cert["operator_norm"], rel=1e-6)
        for argv in (["sqrt", path], ["sqrt", path, "--method", "iterative"], ["truncate", path, "-t", "1.0"]):
            assert run_cli(*argv) == 2, argv
            assert "input is not positive definite" in capsys.readouterr().err

    def test_certify_has_no_tol(self, tmp_path, s3, capsys):
        # certify --tol 1e-6 once passed the near-floor file that sqrt and truncate refuse
        with pytest.raises(SystemExit) as exc:
            run_cli("certify", write_near_floor(tmp_path, s3), "--tol", "1e-6")
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


class TestCustomTable:
    def test_relabeled_s3_named_symmetric_3(self, tmp_path, capsys):
        # the file once dropped the table for its name; sqrt then refused phi,
        # and psi written with a table read back as not_hermitian
        grp = dataclasses.replace(relabeled_s3(), name="symmetric:3")
        path = tmp_path / "relabeled.json"
        path.write_text(json.dumps(matfun_to_json(make_pd(random_matfun(grp, 2, 75)))))
        assert run_cli("sqrt", str(path)) == 0
        psi_path = tmp_path / "psi.json"
        psi_path.write_text(json.dumps(json.loads(capsys.readouterr().out)["psi"]))
        assert run_cli("certify", str(psi_path)) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "positive_definite"
        assert matfun_from_json(json.loads(psi_path.read_text())).group.same_table(grp)
        # --group compares tables, not names
        assert run_cli("certify", str(path), "--group", "s3") == 2
        assert "group mismatch" in capsys.readouterr().err
        assert run_cli("certify", str(path), "--group", "nope") == 2

    def test_copy_of_the_standard_table_passes_its_spec(self, tmp_path, capsys):
        grp = dataclasses.replace(build_symmetric(3), name="custom")
        path = tmp_path / "copy.json"
        obj = matfun_to_json(make_pd(random_matfun(grp, 2, 76)))
        assert obj["group_id"] == "custom" and "group" in obj
        path.write_text(json.dumps(obj))
        assert run_cli("certify", str(path), "--group", "s3") == 0
        assert run_cli("certify", str(path), "--group", "z6") == 2

    def test_large_group_flag_builds_no_table(self, tmp_path, z2, capsys):
        # orders are compared first: z4096's 128 MB table is never built
        path = write_phi21(tmp_path, z2)
        tracemalloc.start()
        try:
            assert run_cli("certify", path, "--group", "z4096") == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and "group mismatch" in capsys.readouterr().err

    def test_relabeled_s3_certify_sqrt_truncate(self, tmp_path, capsys):
        grp = relabeled_s3()
        phi = make_pd(random_matfun(grp, 2, 75))
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(matfun_to_json(phi)))
        assert run_cli("certify", str(path)) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "positive_definite"
        assert run_cli("sqrt", str(path)) == 0
        result = json.loads(capsys.readouterr().out)
        psi = matfun_from_json(result["psi"])
        assert psi.group.same_table(grp) and result["residual"] <= 1e-8
        assert run_cli("truncate", str(path), "-t", "1e300") == 0
        cut = matfun_from_json(json.loads(capsys.readouterr().out))
        assert l2_norm(cut) == pytest.approx(l2_norm(phi), rel=1e-10)


class TestProcess:
    def test_spectral_calls_load_no_lazy_numpy_package(self, tmp_path, z2):
        # numpy.random and numpy.ma load on first use and would add 10-20 ms
        # to every fresh process
        path = write_phi21(tmp_path, z2)
        script = (
            "import sys\n"
            "from godement.cli import main\n"
            f"for argv in (['certify', {path!r}], ['sqrt', {path!r}], ['truncate', {path!r}, '-t', '2']):\n"
            "    assert main(argv + ['--out', argv[1] + '.out']) == 0\n"
            "print(sorted(m for m in ('numpy.random', 'numpy.ma') if m in sys.modules))\n"
        )
        src = str(Path(godement.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        assert out.stdout.strip() == "[]"

    def test_successive_calls_share_no_flags(self, tmp_path, z2, capsys):
        # one parser serves every call of the process; each call parses into
        # a fresh namespace, so no flag or default carries over
        path = write_phi21(tmp_path, z2)
        assert godement.cli._parser() is godement.cli._parser()
        assert run_cli("sqrt", path, "--method", "iterative", "--tol", "1e-3") == 0
        assert json.loads(capsys.readouterr().out)["method"] == "iterative"
        assert run_cli("sqrt", path) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["method"] == "spectral" and result["residual"] <= 1e-12
        assert run_cli("certify", path, "--group", "z6") == 2
        assert run_cli("certify", path) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "positive_definite"
        assert run_cli("certify", path, "--group", "z2") == 0

    def test_output_is_one_line(self, tmp_path, z2, capsys):
        assert run_cli("certify", write_phi21(tmp_path, z2)) == 0
        assert capsys.readouterr().out.count("\n") == 1


class TestSqrt:
    def test_spectral_worked_example(self, tmp_path, z2, capsys):
        assert run_cli("sqrt", write_phi21(tmp_path, z2), "--method", "spectral") == 0
        result = json.loads(capsys.readouterr().out)
        assert result["residual"] <= 1e-12
        psi = matfun_from_json(result["psi"])
        s3 = np.sqrt(3)
        assert np.allclose(psi.values.ravel(), [(s3 + 1) / 2, (s3 - 1) / 2])

    def test_iterative(self, tmp_path, z2, capsys):
        assert run_cli("sqrt", write_phi21(tmp_path, z2), "--method", "iterative") == 0
        result = json.loads(capsys.readouterr().out)
        assert result["method"] == "iterative"
        assert result["iterations"] > 0
        assert result["monotone_trace"] == sorted(result["monotone_trace"])

    def test_non_pd_input(self, tmp_path, z2):
        # a file in the legacy nested layout, edited in place, read end to end
        obj = legacy_json(phi_21(z2))
        obj["values"][0][0][0] = [1.0, 0.0]
        obj["values"][1][0][0] = [2.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run_cli("sqrt", str(path)) == 2


class TestInvalidTolerances:
    """A tolerance or threshold no check can use is an input error (exit 2), not a verdict."""

    @pytest.mark.parametrize("method", ["spectral", "iterative"])
    @pytest.mark.parametrize("tol", ["nan", "0", "inf"])
    def test_sqrt(self, tmp_path, z2, capsys, method, tol):
        assert run_cli("sqrt", write_phi21(tmp_path, z2), "--method", method, "--tol", tol) == 2
        assert "tol must be positive and finite" in capsys.readouterr().err

    def test_suite(self, capsys):
        assert run_cli("suite", "--groups", "z2", "--trials", "1", "--tol", "inf") == 2
        assert "tol must be positive and finite" in capsys.readouterr().err

    def test_truncate(self, tmp_path, z2, capsys):
        assert run_cli("truncate", write_phi21(tmp_path, z2), "-t", "nan") == 2
        assert "threshold must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "1e-10"])
    def test_rep_demo_has_no_tol(self, capsys, tol):
        # the pair checks judge at one constant, so argparse refuses the flag
        with pytest.raises(SystemExit) as exc:
            run_cli("rep-demo", "--tol", tol)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


class TestTruncate:
    def test_worked_example(self, tmp_path, z2, capsys):
        assert run_cli("truncate", write_phi21(tmp_path, z2), "--threshold", "2.0") == 0
        cut = matfun_from_json(json.loads(capsys.readouterr().out))
        assert np.allclose(cut.values.ravel(), [0.5, -0.5])


class TestSuite:
    def test_small_suite_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "suite", "--groups", "z6", "--dims", "1", "--trials", "2",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert "timestamp" in report
        assert {r["theorem"] for r in report["reports"]} == {"A", "B", "C", "lemma_2_1"}

    def test_byte_identical_modulo_timestamp(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run_cli("suite", "--groups", "d3", "--dims", "1", "--trials", "2",
                    "--seed", "4", "--out", str(out))
            obj = json.loads(out.read_text())
            obj.pop("timestamp")
            outs.append(json.dumps(obj, sort_keys=True))
        assert outs[0] == outs[1]

    def test_csv_rows(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli("suite", "--groups", "z2", "--dims", "1", "--trials", "3",
                       "--csv", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theorem,group,n,trial,worst_residual,passed,iterations"
        assert len(lines) == 1 + 4 * 3  # header + one row per (theorem, trial)
        for row in csv.DictReader(lines):
            # the iterative root's step count for Theorem A, empty for the others
            assert (int(row["iterations"]) > 0) if row["theorem"] == "A" else row["iterations"] == ""

    def test_empty_groups_rejected_without_flag(self, capsys):
        # no flag allows an empty run: the suite has nothing to verify
        assert run_cli("suite", "--groups", "", "--trials", "1") == 2
        assert "no groups given" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            run_cli("suite", "--groups", "", "--allow-empty")

    def test_empty_dims_is_input_error(self, capsys):
        # once exited 0 with "passed": true and no reports
        assert run_cli("suite", "--dims", "", "--trials", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no dimensions given" in captured.err

    def test_bad_group_spec(self):
        assert run_cli("suite", "--groups", "zz,,9", "--trials", "1") == 2

    @pytest.mark.parametrize("spec", ["trivial", "cyclic:1"])
    def test_one_eigenvalue_cell_is_input_error_before_any_trial(self, monkeypatch, capsys, spec):
        # once ran every Theorem A and B trial, then exited 2 on Theorem C's split
        ran = []
        monkeypatch.setattr(godement.theorems, "_TRIALS", {"A": lambda *args: ran.append(args)})
        assert run_cli("suite", "--groups", spec, "--dims", "1", "--trials", "2") == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert "one eigenvalue, and Theorem C needs two to split the spectrum" in captured.err

    def test_parser_defaults_are_the_librarys(self):
        parser = build_parser()
        # every PD verdict is at DEFAULT_PD_TOL: neither certify nor the library sets another
        assert "tol" not in vars(parser.parse_args(["certify", "phi.json"]))
        assert list(inspect.signature(is_positive_definite).parameters) == ["a"]
        root_tols = {inspect.signature(f).parameters["tol"].default
                     for f in (sqrt_spectral, sqrt_iterative, check_theorem_a)}
        for method in ("spectral", "iterative"):
            assert {parser.parse_args(["sqrt", "phi.json", "--method", method]).tol} == root_tols
        args, config = parser.parse_args(["suite"]), SuiteConfig()
        assert tuple(args.groups.split(",")) == config.groups
        assert tuple(int(d) for d in args.dims.split(",")) == config.dims
        assert (args.trials, args.seed, args.tol, args.name) == (config.trials, config.seed, config.tol, config.name)
        assert {config.tol} == root_tols


class TestRepDemo:
    def test_regular(self, capsys):
        assert run_cli("rep-demo", "--group", "s3", "--n", "2", "--seed", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["details"]["direct_sum"][0] >= -1e-10

    def test_tensor(self, capsys):
        assert run_cli("rep-demo", "--group", "d3", "--n", "2", "--tensor") == 0

    @pytest.mark.parametrize("tensor", [False, True])
    def test_n_below_one_is_input_error(self, capsys, tensor):
        # n = 0 once passed on zero vectors
        assert run_cli("rep-demo", "--n", "0", *(["--tensor"] if tensor else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "dimension n must be >= 1, got 0" in captured.err

    def test_tensor_too_large_is_input_error(self, capsys):
        # s5 regular x regular would take 371 GiB; the refusal comes before any
        # allocation, the 28 MB regular representation included
        tracemalloc.start()
        try:
            assert run_cli("rep-demo", "--group", "s5", "--tensor") == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        captured = capsys.readouterr()
        assert captured.out == "" and "over the 2 GiB limit" in captured.err

    def test_draw_over_the_size_limit_is_input_error(self, s3, monkeypatch, capsys):
        # --n 200000000 on s3 once died in numpy on a 17.9 GiB draw; with the limit
        # at s3's regular representation, 37 vectors of dimension 6 pass it
        monkeypatch.setattr(godement.groups, "_MAX_ARRAY_BYTES", s3.order**3 * 16)
        assert run_cli("rep-demo", "--group", "s3", "--n", "36") == 0
        capsys.readouterr()
        assert run_cli("rep-demo", "--group", "s3", "--n", "37") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "complex Gaussian draw needs" in captured.err

    def test_regular_too_large_is_input_error(self, capsys):
        # z1000's regular representation would take 14.9 GiB; it once reached
        # np.zeros unchecked.  Only the 8 MB Cayley table is built.
        tracemalloc.start()
        try:
            assert run_cli("rep-demo", "--group", "z1000") == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        captured = capsys.readouterr()
        assert captured.out == "" and "over the 2 GiB limit" in captured.err

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import godement
from godement import l2_norm, make_pd, matfun_from_json, matfun_to_json, random_matfun
from godement.cli import main
from conftest import phi_21, relabeled_s3


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
        obj = matfun_to_json(phi_21(z2))
        obj["values"][0][0][0] = [1.0, 0.0]
        obj["values"][1][0][0] = [2.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run_cli("certify", str(path)) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "not_positive_definite"

    def test_group_mismatch_flag(self, tmp_path, z2):
        assert run_cli("certify", write_phi21(tmp_path, z2), "--group", "z6") == 2

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


class TestCustomTable:
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
        obj = matfun_to_json(phi_21(z2))
        obj["values"][0][0][0] = [1.0, 0.0]
        obj["values"][1][0][0] = [2.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run_cli("sqrt", str(path)) == 2


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
        assert lines[0] == "theorem,group,n,trial,worst_residual,passed"
        assert len(lines) == 1 + 4 * 3  # header + one row per (theorem, trial)

    def test_empty_groups_rejected_without_flag(self):
        assert run_cli("suite", "--groups", "", "--trials", "1") == 2

    def test_empty_groups_allowed_with_flag(self, capsys):
        assert run_cli("suite", "--groups", "", "--trials", "1", "--allow-empty") == 0

    def test_bad_group_spec(self):
        assert run_cli("suite", "--groups", "zz,,9", "--trials", "1") == 2


class TestRepDemo:
    def test_regular(self, capsys):
        assert run_cli("rep-demo", "--group", "s3", "--n", "2", "--seed", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["details"]["direct_sum"][0] >= -1e-10

    def test_tensor(self, capsys):
        assert run_cli("rep-demo", "--group", "d3", "--n", "2", "--tensor") == 0

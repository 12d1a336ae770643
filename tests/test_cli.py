"""Tests for the experiment runner CLI."""

import csv
import json
import os
import subprocess
import sys

import pytest

import seqclone
from seqclone.cli import main


def run_cli(args, tmp_path=None, env_extra=None):
    """Invoke the CLI in-process; returns (exit_code, captured stderr)."""
    import contextlib
    import io
    import os

    old_env = {}
    for key, value in (env_extra or {}).items():
        old_env[key] = os.environ.get(key)
        os.environ[key] = value
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        for key, value in old_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, err.getvalue()


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestGmInfo:
    def test_alpha_values_two_clones(self, tmp_path):
        out = tmp_path / "info.csv"
        code, _ = run_cli(["gm-info", "--clones", "2", "-o", str(out)])
        assert code == 0
        rows = read_rows(out)
        alphas = sorted(
            (int(r["index"]), float(r["value"])) for r in rows if r["record"] == "alpha"
        )
        assert abs(alphas[0][1] - 0.8165) < 5e-5
        assert abs(alphas[1][1] - 0.5774) < 5e-5

    def test_single_clone_fidelity_one(self, tmp_path):
        out = tmp_path / "info.csv"
        run_cli(["gm-info", "--clones", "1", "-o", str(out)])
        fid = [float(r["value"]) for r in read_rows(out) if r["record"] == "clone_fidelity"]
        assert abs(fid[0] - 1.0) < 1e-12

    def test_bond_profile_within_twice_clones(self, tmp_path):
        out = tmp_path / "info.csv"
        run_cli(["gm-info", "--clones", "7", "-o", str(out)])
        rows = read_rows(out)
        max_bond = [int(r["value"]) for r in rows if r["record"] == "max_bond"]
        assert max_bond[0] <= 14

    def test_mps_dump_roundtrips(self, tmp_path):
        from seqclone import mps as mps_mod

        out = tmp_path / "info.csv"
        dump = tmp_path / "chain.json"
        run_cli(["gm-info", "--clones", "2", "-o", str(out), "--mps-out", str(dump)])
        chain = mps_mod.from_json(dump.read_text())
        assert chain.n_qubits == 3

    def test_mps_out_rejects_several_clone_counts(self, tmp_path):
        dump = tmp_path / "chain.json"
        code, err = run_cli([
            "gm-info", "--clones", "2,3", "-o", str(tmp_path / "info.csv"),
            "--mps-out", str(dump),
        ])
        assert code == 2
        assert "mps-out" in err
        assert not dump.exists()

    def test_rejects_large_clone_count(self, tmp_path):
        code, err = run_cli(["gm-info", "--clones", "9", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "clones" in err


class TestRegularize:
    def test_row_count_matches_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        code, _ = run_cli([
            "regularize", "--clones", "2", "--bond-caps", "2,3",
            "--methods", "svd,variational", "--seed", "1", "-o", str(out),
            "--threads", "1",
        ])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {
            "svd_truncation", "variational_seeded_by_svd",
        }

    def test_rows_reparse_into_reports(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli([
            "regularize", "--clones", "3", "--bond-caps", "2",
            "--methods", "variational", "--seed", "2", "-o", str(out),
            "--threads", "1",
        ])
        for row in read_rows(out):
            fid = float(row["fidelity"])
            err = float(row["error"])
            assert 0.0 <= fid <= 1.0 + 1e-12
            assert abs(err - (1.0 - fid)) < 1e-12
            assert int(row["n"]) == 2 * int(row["M"]) - 1
            assert row["wall_seconds"] == ""

    def test_json_format(self, tmp_path):
        out = tmp_path / "scan.json"
        run_cli([
            "regularize", "--clones", "2", "--bond-caps", "2",
            "--methods", "svd", "--format", "json", "-o", str(out),
            "--threads", "1",
        ])
        doc = json.loads(out.read_text())
        assert doc["schema"] == "seqclone.results/1"
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["wall_seconds"] is None

    def test_timing_flag_populates_wall_seconds(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli([
            "regularize", "--clones", "2", "--bond-caps", "2",
            "--methods", "svd", "-o", str(out), "--threads", "1", "--timing",
        ])
        assert float(read_rows(out)[0]["wall_seconds"]) > 0.0

    def test_rejects_unknown_method(self, tmp_path):
        code, err = run_cli([
            "regularize", "--clones", "2", "--bond-caps", "2",
            "--methods", "nope", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "method" in err

    def test_resource_cap_exit_code(self, tmp_path):
        code, err = run_cli([
            "regularize", "--clones", "9", "--bond-caps", "2",
            "--methods", "svd", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        assert "SEQCLONE_MAX_QUBITS" in err

    def test_env_var_raises_cap_with_warning(self, tmp_path):
        out = tmp_path / "scan.csv"
        code, err = run_cli(
            [
                "regularize", "--clones", "2", "--bond-caps", "2",
                "--methods", "svd", "-o", str(out), "--threads", "1",
            ],
            env_extra={"SEQCLONE_MAX_QUBITS": "17"},
        )
        assert code == 0
        assert "unsupported" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-sweeps", "0"), ("--max-sweeps", "-3"), ("--tol", "0"), ("--tol", "nan"),
         ("--tol", "-0.5")],
    )
    def test_rejects_invalid_sweep_settings(self, tmp_path, flag, value):
        code, err = run_cli([
            "regularize", "--clones", "2", "--bond-caps", "2", "--methods", "variational",
            "-o", str(tmp_path / "x.csv"), "--threads", "1", flag, value,
        ])
        assert code == 2
        assert flag[2:] in err


class TestSynthesize:
    def test_single_row_and_reported_fields(self, tmp_path):
        out = tmp_path / "synth.json"
        code, _ = run_cli([
            "synthesize", "--qubits", "3", "--aux", "on", "--restarts", "1",
            "--seed", "1", "--max-sweeps", "5", "--format", "json",
            "-o", str(out), "--threads", "1",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        row = doc["rows"][0]
        assert row["n"] == 3 and row["M"] == 2
        assert row["aux"] == "on" and row["method"] == "xxz"
        assert 0.0 <= row["fidelity"] <= 1.0 + 1e-9

    def test_rejects_zero_max_sweeps(self, tmp_path):
        code, err = run_cli([
            "synthesize", "--qubits", "3", "--max-sweeps", "0",
            "-o", str(tmp_path / "x.csv"), "--threads", "1",
        ])
        assert code == 2
        assert "max-sweeps" in err

    def test_rejects_even_register(self, tmp_path):
        code, err = run_cli([
            "synthesize", "--qubits", "4", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "qubits" in err


class TestDeterminism:
    def test_regularize_byte_identical(self, tmp_path):
        argv = [
            "regularize", "--clones", "2,3", "--bond-caps", "2",
            "--methods", "svd,variational", "--seed", "7", "--threads", "2",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(argv + ["-o", str(a)])
        run_cli(argv + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_synthesize_byte_identical(self, tmp_path):
        argv = [
            "synthesize", "--qubits", "3", "--restarts", "2", "--seed", "3",
            "--max-sweeps", "4", "--threads", "1",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(argv + ["-o", str(a)])
        run_cli(argv + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_defaults_from_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bond-caps=2\nmethods=svd\nseed=5\n")
        out = tmp_path / "scan.csv"
        code, _ = run_cli([
            "--config", str(cfg), "regularize", "--clones", "2",
            "-o", str(out), "--threads", "1",
        ])
        assert code == 0
        rows = read_rows(out)
        assert rows[0]["seed"] == "5"
        assert rows[0]["method"] == "svd_truncation"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed=5\n")
        out = tmp_path / "scan.csv"
        run_cli([
            "--config", str(cfg), "regularize", "--clones", "2",
            "--bond-caps", "2", "--methods", "svd", "--seed", "9",
            "-o", str(out), "--threads", "1",
        ])
        assert read_rows(out)[0]["seed"] == "9"

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("not a pair\n")
        code, err = run_cli([
            "--config", str(cfg), "regularize", "--clones", "2",
            "--bond-caps", "2", "--methods", "svd",
        ])
        assert code == 2
        assert "key=value" in err


class TestInputQubitParsing:
    def test_custom_input_qubit(self, tmp_path):
        out = tmp_path / "info.csv"
        code, _ = run_cli([
            "gm-info", "--clones", "2", "-o", str(out),
            "--input-qubit", "1,0;0,0",
        ])
        assert code == 0
        fid = [float(r["value"]) for r in read_rows(out) if r["record"] == "clone_fidelity"]
        assert abs(fid[0] - 5 / 6) < 1e-12

    def test_rejects_malformed(self, tmp_path):
        code, err = run_cli([
            "gm-info", "--clones", "2", "--input-qubit", "1;0",
        ])
        assert code == 2
        assert "input-qubit" in err

    def test_rejects_unnormalized(self, tmp_path):
        code, err = run_cli([
            "gm-info", "--clones", "2", "--input-qubit", "1,0;1,0",
        ])
        assert code == 2
        assert "input-qubit" in err

    def test_rejects_nan_amplitude(self, tmp_path):
        code, err = run_cli([
            "gm-info", "--clones", "2", "--input-qubit", "nan,0;0,0",
        ])
        assert code == 2
        assert "input-qubit" in err


class TestNoDenseTargets:
    """regularize and gm-info work from the cloner chain, never the dense state."""

    @pytest.fixture(autouse=True)
    def forbid_dense_state(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("dense cloner state built")

        monkeypatch.setattr("seqclone.cloning.gm_state", refuse)
        monkeypatch.setattr("seqclone.cli.gm_state", refuse)

    def test_regularize(self, tmp_path):
        code, _ = run_cli([
            "regularize", "--clones", "2,4", "--bond-caps", "2,3",
            "--methods", "svd,variational", "-o", str(tmp_path / "scan.csv"),
            "--threads", "1",
        ])
        assert code == 0

    def test_gm_info_with_mps_out(self, tmp_path):
        code, _ = run_cli([
            "gm-info", "--clones", "4", "-o", str(tmp_path / "info.csv"),
            "--mps-out", str(tmp_path / "chain.json"),
        ])
        assert code == 0


def test_console_entry_point():
    # the child finds the package where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(seqclone.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "seqclone.cli", "gm-info", "--clones", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "alpha" in proc.stdout

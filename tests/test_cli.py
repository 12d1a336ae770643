"""Tests for the experiment runner CLI."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import seqclone
from seqclone import cli, compression, sequential
from seqclone.cli import main
from seqclone.cloning import gm_mps


def run_cli(args):
    """Invoke the CLI in-process; returns (exit_code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def count_calls(monkeypatch, module, name):
    """Records each call of ``module.name`` and returns the record."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


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
        code, err = run_cli(["gm-info", "--clones", "51", "-o", str(tmp_path / "x.csv")])
        assert code == 3
        assert "clones" in err

    @pytest.mark.parametrize("clones, code", [("50,51", 3), ("3,0", 2)])
    def test_every_clone_count_checked_before_any_fidelity(
        self, tmp_path, monkeypatch, clones, code
    ):
        calls = count_calls(monkeypatch, cli, "clone_fidelities")
        out = tmp_path / "x.csv"
        assert run_cli(["gm-info", "--clones", clones, "-o", str(out)])[0] == code
        assert calls == []
        assert not out.exists()

    def test_fifty_clones(self, tmp_path):
        out = tmp_path / "info.csv"
        code, _ = run_cli(["gm-info", "--clones", "50", "-o", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert [r["value"] for r in rows if r["record"] == "max_bond"] == ["50"]
        fids = [float(r["value"]) for r in rows if r["record"] == "clone_fidelity"]
        assert len(fids) == 50
        assert max(abs(f - 101 / 150) for f in fids) < 1e-12


class TestRegularize:
    def test_row_count_matches_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        code, _ = run_cli([
            "regularize", "--clones", "2", "--bond-caps", "2,3",
            "--methods", "svd,variational", "--seed", "1", "-o", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {
            "svd_truncation", "variational_seeded_by_svd",
        }

    def test_chain_built_once_per_clone_count(self, tmp_path, monkeypatch):
        built = []

        def counting_gm_mps(spec):
            built.append(spec.clones)
            return gm_mps(spec)

        monkeypatch.setattr(cli, "gm_mps", counting_gm_mps)
        out = tmp_path / "scan.csv"
        code, _ = run_cli([
            "regularize", "--clones", "2,3", "--bond-caps", "2,3",
            "--methods", "svd,variational,variational-unseeded", "-o", str(out),
        ])
        assert code == 0
        assert built == [2, 3]
        assert [(r["M"], r["n"]) for r in read_rows(out)] == [("2", "3")] * 6 + [("3", "5")] * 6

    def test_rows_reparse_into_reports(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli([
            "regularize", "--clones", "3", "--bond-caps", "2",
            "--methods", "variational", "--seed", "2", "-o", str(out),
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
        ])
        doc = json.loads(out.read_text())
        assert doc["schema"] == "seqclone.results/1"
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["wall_seconds"] is None

    def test_timing_flag_populates_wall_seconds(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli([
            "regularize", "--clones", "2", "--bond-caps", "2",
            "--methods", "svd", "-o", str(out), "--timing",
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
            "regularize", "--clones", "51", "--bond-caps", "2",
            "--methods", "svd", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        assert "limit of 50 clones" in err

    def test_resource_cap_before_any_compression(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, compression, "compress")
        out = tmp_path / "x.csv"
        code, err = run_cli([
            "regularize", "--clones", "2,51", "--bond-caps", "2",
            "--methods", "svd", "-o", str(out),
        ])
        assert code == 3
        assert "limit of 50 clones" in err
        assert calls == []
        assert not out.exists()

    def test_fifty_clones_at_floor(self, tmp_path):
        out = tmp_path / "scan.csv"
        code, _ = run_cli([
            "regularize", "--clones", "50", "--bond-caps", "2,3,4",
            "--methods", "svd,variational", "-o", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 6
        m = 50
        for row in rows:
            d = int(row["bond_cap"])
            floor = 1.0 - math.sqrt(d * (2 * m - d + 1) / (m * (m + 1)))
            assert abs(float(row["error"]) - floor) < 1e-12

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-sweeps", "0"), ("--max-sweeps", "-3"), ("--tol", "0"), ("--tol", "nan"),
         ("--tol", "-0.5"), ("--tol", "inf")],
    )
    def test_rejects_invalid_sweep_settings(self, tmp_path, flag, value):
        code, err = run_cli([
            "regularize", "--clones", "2", "--bond-caps", "2", "--methods", "variational",
            "-o", str(tmp_path / "x.csv"), flag, value,
        ])
        assert code == 2
        assert flag[2:] in err

    # a negative seed is rejected also where no generator would use it
    @pytest.mark.parametrize("methods", ["variational-unseeded", "svd,variational"])
    def test_rejects_negative_seed(self, tmp_path, methods):
        code, err = run_cli([
            "regularize", "--clones", "2", "--bond-caps", "2",
            "--methods", methods, "--seed", "-1",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert err == "error: seed: must be >= 0, got -1\n"
        assert not (tmp_path / "x.csv").exists()


class TestSynthesize:
    def test_single_row_and_reported_fields(self, tmp_path):
        out = tmp_path / "synth.json"
        code, _ = run_cli([
            "synthesize", "--qubits", "3", "--aux", "on", "--restarts", "1",
            "--seed", "1", "--max-sweeps", "5", "--format", "json",
            "-o", str(out),
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
            "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "max-sweeps" in err

    @pytest.mark.parametrize("aux", ["on", "off"])
    def test_rejects_negative_seed(self, tmp_path, aux):
        code, err = run_cli([
            "synthesize", "--qubits", "3", "--aux", aux, "--seed", "-1",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert err == "error: seed: must be >= 0, got -1\n"
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_unknown_aux(self, tmp_path, capsys):
        # argparse's choices reject it before the command runs
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--qubits", "3", "--aux", "maybe", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--aux" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_even_register(self, tmp_path):
        code, err = run_cli([
            "synthesize", "--qubits", "4", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "qubits" in err

    def test_resource_cap_exit_code(self, tmp_path):
        code, err = run_cli([
            "synthesize", "--qubits", "101", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        assert "101 qubits" in err and "limit of 50 clones" in err

    def test_resource_cap_before_any_synthesis(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, sequential, "optimize_schedule")
        out = tmp_path / "x.csv"
        code, err = run_cli([
            "synthesize", "--qubits", "3,101", "--restarts", "1", "--max-sweeps", "1",
            "-o", str(out),
        ])
        assert code == 3
        assert "101 qubits" in err and "limit of 50 clones" in err
        assert calls == []
        assert not out.exists()

    def test_coupling_model_flag_is_gone(self, tmp_path, capsys):
        # the unrestricted baseline is regularize --bond-caps 2 --methods variational
        with pytest.raises(SystemExit) as exc:
            main([
                "synthesize", "--qubits", "3", "--coupling-model", "general",
                "-o", str(tmp_path / "x.csv"),
            ])
        assert exc.value.code == 2
        assert "--coupling-model" in capsys.readouterr().err

    def test_config_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--config=exp.cfg", "synthesize", "--qubits", "3", "-o", str(out)])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_regularize_byte_identical(self, tmp_path):
        argv = [
            "regularize", "--clones", "2,3", "--bond-caps", "2",
            "--methods", "svd,variational", "--seed", "7",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        # --threads is accepted and ignored
        assert run_cli(argv + ["-o", str(a), "--threads", "1"])[0] == 0
        assert run_cli(argv + ["-o", str(b), "--threads", "2"])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synthesize_byte_identical(self, tmp_path):
        argv = [
            "synthesize", "--qubits", "3", "--restarts", "2", "--seed", "3",
            "--max-sweeps", "4",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(argv + ["-o", str(a)])
        run_cli(argv + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag", ["-o", "--mps-out"])
def test_unwritable_output_is_config_error(tmp_path, flag):
    path = tmp_path / "missing" / "out"
    # the last -o wins, so the "-o" case writes its table to the missing directory
    code, err = run_cli([
        "gm-info", "--clones", "2", "-o", str(tmp_path / "info.csv"), flag, str(path),
    ])
    assert code == 2
    assert err.startswith(f"error: output: cannot write {path}: ")


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
    """regularize, gm-info and synthesize work from the cloner chain, never
    a dense state."""

    @pytest.fixture(autouse=True)
    def forbid_dense_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense state built")

        for name in (
            "seqclone.cloning.gm_state",
            "seqclone.mps.to_statevector",
            "seqclone.mps.from_statevector",
            "seqclone.sequential.from_statevector",
        ):
            monkeypatch.setattr(name, refuse)

    def test_regularize(self, tmp_path):
        code, _ = run_cli([
            "regularize", "--clones", "2,4", "--bond-caps", "2,3",
            "--methods", "svd,variational", "-o", str(tmp_path / "scan.csv"),
        ])
        assert code == 0

    def test_gm_info_with_mps_out(self, tmp_path):
        code, _ = run_cli([
            "gm-info", "--clones", "4", "-o", str(tmp_path / "info.csv"),
            "--mps-out", str(tmp_path / "chain.json"),
        ])
        assert code == 0

    def test_synthesize(self, tmp_path):
        code, _ = run_cli([
            "synthesize", "--qubits", "3,5", "--restarts", "1", "--max-sweeps", "1",
            "-o", str(tmp_path / "synth.csv"),
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


# Runs in a fresh interpreter, so nothing the test session imported counts.
_IMPORT_PROBE = """
import json, sys
import numpy as np
import seqclone
from seqclone import cli
from seqclone.cloning import GMSpec, gm_chain
from seqclone.mps import MatrixProductState, norm

def watched_modules():
    # scipy, and numpy.random: only unseeded sweeping draws numbers;
    # concurrent and multiprocessing: every command runs in this one process
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "concurrent", "multiprocessing")
                  or m.split(".")[:2] == ["numpy", "random"])

out = sys.argv[1]
loaded = {"import": watched_modules()}
codes = [
    cli.main(["gm-info", "--clones", "3", "-o", out + "/info.csv"]),
    cli.main(["regularize", "--clones", "3", "--bond-caps", "2",
              "--methods", "svd,variational", "-o", out + "/scan.csv"]),
]
loaded["gm-info, regularize"] = watched_modules()
codes.append(cli.main(["synthesize", "--qubits", "3", "--aux", "on", "--restarts", "1",
                       "--max-sweeps", "1", "-o", out + "/synth.csv"]))
loaded["synthesize"] = watched_modules()
res = seqclone.optimize_schedule(
    gm_chain(GMSpec(2)), 3, aux=True, restarts=1, seed=1, max_sweeps=1, inner_maxfev=20
)
loaded["optimize_schedule"] = watched_modules()
# a fixed chain out of the class's reach, so the global search runs
grid = [np.arange(1.0, 1.0 + 2 * l * r).reshape(2, l, r) for l, r in ((1, 2), (2, 2), (2, 1))]
sites = [np.exp(1j * g ** 1.5) / (g + k) for k, g in enumerate(grid)]
sites[0] = sites[0] / norm(MatrixProductState(sites=sites))
searched = seqclone.optimize_schedule(
    MatrixProductState(sites=sites), 3, aux=True, restarts=1, seed=0, max_sweeps=1, inner_maxfev=20
)
loaded["global search"] = watched_modules()
print(json.dumps({"codes": codes, "loaded": loaded, "fidelity": res.fidelity,
                  "residual": float(res.step_residuals.max()),
                  "searched_residual": float(searched.step_residuals.max())}))
"""


def test_no_scipy_module_loads(tmp_path):
    src = os.path.dirname(os.path.dirname(seqclone.__file__))
    blas = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, **blas, "PYTHONPATH": src},
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0, 0]
    for stage, modules in probe["loaded"].items():
        assert modules == [], f"{stage} loaded {modules}"
    assert 0.0 < probe["fidelity"] <= 1.0
    assert probe["residual"] <= 1e-12  # certified: the global search never ran
    assert probe["searched_residual"] > 1e-12  # uncertified: the global search ran

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from potentops.cli import EXIT_IO, EXIT_OK, EXIT_RESIDUAL, EXIT_VALIDATION, main


def run_cli(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_preset_scenario_succeeds(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        assert run_cli("weak-value", "--out", str(out)) == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "scenario,g,value_re,value_im,prob_exact,residual"

    def test_forced_tolerance_failure(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code = run_cli("weak-value", "--out", str(out), "--tolerance-override", "-1")
        assert code == EXIT_RESIDUAL
        assert "exceed" in capsys.readouterr().err
        assert out.exists()  # rows are still emitted for inspection

    def test_validation_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("scenario: weak-value\npsi: [1, 0, 0]\n")
        assert run_cli("weak-value", "--config", str(cfg)) == EXIT_VALIDATION
        assert "psi" in capsys.readouterr().err

    def test_ragged_matrix_literal_names_the_key(self, capsys, tmp_path):
        cfg = tmp_path / "ragged.yaml"
        cfg.write_text("scenario: weak-value\nobservable: [[1, 0], [0]]\n")
        assert run_cli("weak-value", "--config", str(cfg)) == EXIT_VALIDATION
        assert "'observable' rows must all have length 2" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [".nan", ".inf"])
    @pytest.mark.parametrize("kind, entry, key", [
        ("weak-value", "observable: [[{bad}, 0], [0, 1]]", "observable"),
        ("weak-value", "psi: [{bad}, 1]", "psi"),
        ("time-machine", "hamiltonian: [[{bad}, 0], [0, 1]]", "hamiltonian"),
        ("modular-value", "meter: {{kind: qubit, alpha: {bad}, beta: 1}}", "meter.alpha"),
    ])
    def test_non_finite_literal_names_the_key(self, capsys, tmp_path, kind, entry, key, bad):
        cfg = tmp_path / "non_finite.yaml"
        cfg.write_text(f"scenario: {kind}\n{entry.format(bad=bad)}\n")
        assert run_cli(kind, "--config", str(cfg)) == EXIT_VALIDATION
        assert f"'{key}' must be finite" in capsys.readouterr().err

    def test_kind_subcommand_mismatch(self, capsys, tmp_path):
        cfg = tmp_path / "tm.yaml"
        cfg.write_text("scenario: time-machine\n")
        assert run_cli("weak-value", "--config", str(cfg)) == EXIT_VALIDATION

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        assert run_cli("weak-value", "--config", str(tmp_path / "nope.yaml")) == EXIT_IO

    def test_unwritable_destination(self, capsys, tmp_path):
        dest = tmp_path / "no_such_dir" / "rows.csv"
        assert run_cli("weak-value", "--out", str(dest)) == EXIT_IO


class TestOutputs:
    def test_stdout_default(self, capsys):
        assert run_cli("time-machine") == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("scenario,t_prime,fidelity,success_norm,residual\n")

    def test_json_format(self, capsys):
        assert run_cli("time-machine", "--format", "json") == EXIT_OK
        out = capsys.readouterr().out
        assert out.lstrip().startswith("[")

    def test_seed_flag_changes_random_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("completeness", "--seed", "1", "--out", str(a))
        run_cli("completeness", "--seed", "2", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_config_output_block_respected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        dest = tmp_path / "rows.json"
        cfg.write_text("scenario: time-machine\noutput: {format: json, path: %s}\n"
                       % dest.as_posix())
        assert run_cli("time-machine", "--config", str(cfg)) == EXIT_OK
        assert dest.read_text().lstrip().startswith("[")


class TestVerify:
    def test_passes_and_prints_lines(self, capsys):
        assert run_cli("verify", "--seed", "5") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("ok ") >= 15
        assert "checks passed" in out

    def test_forced_failure(self, capsys):
        assert run_cli("verify", "--tolerance-override", "-1") == EXIT_RESIDUAL
        assert "FAIL" in capsys.readouterr().out


def test_nan_residual_exits_2(monkeypatch, capsys, tmp_path):
    # a NaN residual compares False against any tolerance; it must still fail
    from potentops import cli, scenarios

    real = scenarios.run_scenario

    def nan_residuals(cfg):
        return [{**row, "residual": float("nan")} for row in real(cfg)]

    monkeypatch.setattr(scenarios, "run_scenario", nan_residuals)
    monkeypatch.setattr(cli, "run_scenario", nan_residuals)
    assert run_cli("weak-value", "--out", str(tmp_path / "rows.csv")) == EXIT_RESIDUAL
    assert re.match(r"potentops: (\d+)/\1 rows exceed", capsys.readouterr().err)
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text("base:\n  scenario: modular-value\nsweep:\n  g: [0.1, 0.2]\n")
    assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")) \
        == EXIT_RESIDUAL
    assert re.match(r"potentops: (\d+)/\1 rows exceed", capsys.readouterr().err)


class TestSweep:
    def test_sweep_runs_grid(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(
            "base:\n  scenario: modular-value\n  g: [0.3]\n"
            "sweep:\n  g: [0.1, 0.2]\n")
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("point,scenario,g,")
        assert len(lines) == 3

    def test_sweep_requires_config(self, capsys):
        assert run_cli("sweep") == EXIT_VALIDATION

    @pytest.mark.parametrize("kinds", ["[weak-value, completeness]",
                                       "[weak-value, modular-value]"])
    def test_mixed_kinds_refused_without_output(self, capsys, tmp_path, kinds):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(f"base:\n  scenario: weak-value\nsweep:\n  scenario: {kinds}\n")
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == EXIT_VALIDATION
        assert "one scenario kind" in capsys.readouterr().err
        assert not out.exists()

    def test_forced_tolerance_failure_still_writes_rows(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("base:\n  scenario: modular-value\n  g: [0.3]\n"
                       "sweep:\n  g: [0.1, 0.2]\n")
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--config", str(cfg), "--out", str(out),
                       "--tolerance-override", "-1")
        assert code == EXIT_RESIDUAL
        assert capsys.readouterr().err == \
            "potentops: 2/2 rows exceed the residual tolerance -1\n"
        assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("kind", ["weak-value", "modular-value", "potent-values",
                                  "potent-operator", "completeness", "conditional",
                                  "time-machine"])
def test_preset_determinism_cheap_kinds(kind, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(kind, "--seed", "7", "--out", str(a)) == EXIT_OK
    assert run_cli(kind, "--seed", "7", "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


# Runs in a fresh interpreter: every kind, verify and a sweep, the Pade
# cross-check routes included, must leave scipy unimported.
_IMPORT_GUARD = """
import contextlib, io, json, sys
from potentops.cli import main
from potentops.scenarios import KINDS
out = sys.argv[1]
codes = {kind: main([kind, "--out", f"{out}/{kind}.csv"]) for kind in KINDS}
with contextlib.redirect_stdout(io.StringIO()):
    codes["verify"] = main(["verify"])
codes["sweep"] = main(["sweep", "--config", f"{out}/sweep.yaml", "--out", f"{out}/sweep.csv"])
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def test_cheap_kinds_never_import_scipy(tmp_path):
    (tmp_path / "sweep.yaml").write_text(
        "base:\n  scenario: modular-value\nsweep:\n  g: [0.1, 0.2]\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["codes"]) == {"weak-value", "modular-value", "potent-values",
                                    "potent-operator", "completeness", "pointer-shift",
                                    "conditional", "time-machine", "verify", "sweep"}
    assert result["codes"] == dict.fromkeys(result["codes"], EXIT_OK)
    assert not result["scipy"], "a command imported scipy"

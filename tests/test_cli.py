import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from potentops.cli import EXIT_IO, EXIT_OK, EXIT_RESIDUAL, EXIT_VALIDATION, main
from potentops.scenarios import KINDS


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

    @pytest.mark.parametrize("kind, entry, key", [
        ("weak-value", "g: [{huge}]", "g"),
        ("weak-value", "psi: [{huge}, 1]", "psi"),
        ("weak-value", "observable: [[{huge}, 0], [0, 1]]", "observable"),
        ("time-machine", "hamiltonian: [[1, 0], [0, {huge}]]", "hamiltonian"),
    ])
    def test_huge_integer_literal_names_the_key(self, capsys, tmp_path, kind, entry, key):
        # 401 digits: a YAML int that no float can hold
        cfg = tmp_path / "huge.yaml"
        cfg.write_text(f"scenario: {kind}\n{entry.format(huge='1' + '0' * 400)}\n")
        assert run_cli(kind, "--config", str(cfg)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert (f"configuration error: '{key}' must be finite, got an integer beyond the "
                "float range") in err

    @pytest.mark.parametrize("kind, key", [("weak-value", "psi"), ("time-machine", "meter_state")])
    def test_overflowing_amplitudes_run_as_their_direction(self, capsys, tmp_path, kind, key):
        # |(1e308, 1e308)| overflows when squared but is finite; the state is
        # the one (1, 1) gives, and the warning reports the true norm.
        outputs = {}
        for amp, shown in (("1e308", r"1\.41421e\+308"), ("1", r"1\.41421\)")):
            cfg = tmp_path / f"{amp}.yaml"
            cfg.write_text(f"scenario: {kind}\n{key}: [{amp}, {amp}]\n")
            with pytest.warns(UserWarning, match=rf"'{key}': amplitudes normalized "
                                                  rf"\(norm was {shown}"):
                assert run_cli(kind, "--config", str(cfg)) == EXIT_OK
            outputs[amp] = capsys.readouterr().out
        assert outputs["1e308"] == outputs["1"]
        assert outputs["1"].count("\n") == len(KINDS[kind].template.get("g", [0])) + 1

    def test_kind_subcommand_mismatch(self, capsys, tmp_path):
        cfg = tmp_path / "tm.yaml"
        cfg.write_text("scenario: time-machine\n")
        assert run_cli("weak-value", "--config", str(cfg)) == EXIT_VALIDATION

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        assert run_cli("weak-value", "--config", str(tmp_path / "nope.yaml")) == EXIT_IO

    def test_unwritable_destination(self, capsys, tmp_path):
        dest = tmp_path / "no_such_dir" / "rows.csv"
        assert run_cli("weak-value", "--out", str(dest)) == EXIT_IO

    # An allocation that fails is reported on one line and exits 1; numpy's
    # linspace is made to raise as it does for this range, so nothing is allocated.
    def test_memory_error_is_one_line(self, capsys, monkeypatch, tmp_path):
        linspace = np.linspace
        message = ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                   "and data type float64")

        def oversized(start, stop, num, *args, **kwargs):
            if num > 10**9:
                raise MemoryError(message)
            return linspace(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", oversized)
        cfg = tmp_path / "huge.yaml"
        cfg.write_text("scenario: modular-value\ng: {start: 0.1, stop: 1.0, num: 1000000000000}\n")
        assert run_cli("modular-value", "--config", str(cfg)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"potentops: memory error: {message}\n"

    # A typo on the command line is a validation error, never a residual failure.
    @pytest.mark.parametrize("argv", [["weak-value", "--seed", "abc"],
                                      ["weak-value", "--format", "xml"],
                                      ["nosuch"], [], ["weak-value", "--bogus"]])
    def test_malformed_command_line(self, capsys, argv):
        assert run_cli(*argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: potentops")
        assert ": error: " in captured.err

    def test_help_exits_0(self, capsys):
        assert run_cli("--help") == EXIT_OK
        assert "usage: potentops" in capsys.readouterr().out


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

    @pytest.mark.parametrize("command", ["weak-value", "completeness", "verify"])
    def test_negative_seed_names_the_key(self, capsys, command):
        assert run_cli(command, "--seed", "-1") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "'seed' must be a non-negative integer, got -1" in captured.err
        assert captured.out == ""

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

    def test_config_refused(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: weak-value\n")
        assert run_cli("verify", "--config", str(cfg)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "--config" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_without_out_refused(self, capsys, fmt):
        assert run_cli("verify", "--format", fmt) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "--format" in captured.err
        assert captured.out == ""

    def test_format_with_out_writes_rows(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        assert run_cli("verify", "--format", "json", "--out", str(out)) == EXIT_OK
        assert "checks passed" in capsys.readouterr().out
        assert all(row["scenario"] == "verify" for row in json.loads(out.read_text()))


def test_projector_weak_sum_row_can_fail(monkeypatch, capsys):
    # Pi_last + 4e-11 I keeps every projector axiom within PROJECTOR_TOL, so
    # the family passes the guards, and shifts the weak-value sum by exactly
    # 4e-11: the row, not a refusal, reports it against its 1e-12 tolerance.
    from potentops import scenarios

    draw = scenarios.random_projector_decomposition

    def shifted(dim, blocks, rng):
        projectors = draw(dim, blocks, rng)
        return projectors[:-1] + [projectors[-1] + 4e-11 * np.eye(dim)]

    monkeypatch.setattr(scenarios, "random_projector_decomposition", shifted)
    assert run_cli("verify") == EXIT_RESIDUAL
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split()[1] for line in fails] == ["projector_weak_values_sum"]


def test_nan_residual_exits_2(monkeypatch, capsys, tmp_path):
    # A runner whose residual comes out NaN must fail the oracle check (exit
    # 2), not be refused as a non-finite value (exit 1).
    from potentops.scenarios import KINDS

    for name in ("weak-value", "modular-value", "time-machine"):
        kind = KINDS[name]

        def nan_residuals(cfg, run=kind.run):
            return [{**row, "residual": np.nan} for row in run(cfg)]

        monkeypatch.setitem(KINDS, name, dataclasses.replace(kind, run=nan_residuals))
    assert run_cli("weak-value", "--out", str(tmp_path / "rows.csv")) == EXIT_RESIDUAL
    assert re.match(r"potentops: (\d+)/\1 rows exceed", capsys.readouterr().err)
    assert (tmp_path / "rows.csv").read_text().splitlines()[1].endswith(",nan")
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text("base:\n  scenario: modular-value\nsweep:\n  g: [0.1, 0.2]\n")
    assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")) \
        == EXIT_RESIDUAL
    assert re.match(r"potentops: (\d+)/\1 rows exceed", capsys.readouterr().err)
    # verify gates each kind's row from that kind's own runner
    assert run_cli("verify") == EXIT_RESIDUAL
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split()[1] for line in fails] == ["weak-value", "modular-value", "time-machine"]


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

    @pytest.mark.parametrize("doc", [
        "base:\n  scenario: modular-value\n  output: {{format: json, path: {dest}}}\n"
        "sweep:\n  g: [0.1, 0.2]\n",
        "base:\n  scenario: modular-value\nsweep:\n  g: [0.1, 0.2]\n"
        "  output.path: [{dest}]\n",
    ], ids=["base", "sweep-key"])
    def test_output_in_sweep_config_refused(self, capsys, tmp_path, doc):
        dest = tmp_path / "rows.json"
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(doc.format(dest=dest.as_posix()))
        assert run_cli("sweep", "--config", str(cfg)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "'output'" in captured.err
        assert captured.out == ""
        assert not dest.exists()

    @pytest.mark.parametrize("key, named", [("1", "1"), ("true", "True"), ("~", "None"),
                                            ("0.5", "0.5")])
    def test_non_string_key_refused(self, capsys, tmp_path, key, named):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(f"base:\n  scenario: modular-value\nsweep:\n  {key}: [0.1]\n")
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"sweep key {named} is not" in captured.err
        assert captured.out == ""
        assert not out.exists()

    # a key refused for its value is named in the CLI's words, before any point runs
    @pytest.mark.parametrize("value", ["0.1", "[]"], ids=["scalar", "empty"])
    def test_value_that_is_not_a_nonempty_list_refused(self, capsys, tmp_path, value):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(f"base:\n  scenario: modular-value\nsweep:\n  g: {value}\n")
        assert run_cli("sweep", "--config", str(cfg)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == ("potentops: configuration error: "
                                "sweep key 'g' must map to a nonempty list\n")
        assert captured.out == ""

    def test_format_and_out_flags(self, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("base:\n  scenario: modular-value\nsweep:\n  g: [0.1, 0.2]\n")
        out = tmp_path / "rows.json"
        assert run_cli("sweep", "--config", str(cfg), "--format", "json",
                       "--out", str(out)) == EXIT_OK
        assert [row["point"] for row in json.loads(out.read_text())] == [0, 1]

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


# Odd YAML: mixed-type unknown keys, a key written twice, a '<<' merge and
# an unhashable key, each in a scenario and in a sweep document.
SWEEP_BASE = "base:\n  scenario: {kind}\n{base}sweep:\n  seed: [0]\n{sweep}"
MIXED_KEYS = "1: 2\nx: 3\n"
DUPLICATE_G = "g: [0.1]\ng: [0.2]\n"
MERGED_METER = "meter: {<<: {kind: qubit, alpha: 1, beta: 0}, alpha: 0.6, beta: 0.8}\n"


def _indent(text):
    return "".join(f"  {line}\n" for line in text.splitlines())


class TestOddYaml:
    @pytest.mark.parametrize("command, doc, context", [
        ("weak-value", "scenario: weak-value\n" + MIXED_KEYS, "weak-value config"),
        ("potent-values", "scenario: potent-values\nmeter: {1: 2, x: 3}\n", "'meter'"),
        ("weak-value", "scenario: weak-value\ng: {start: 0, stop: 1, num: 2, 1: 2, x: 3}\n",
         "'g' range"),
        ("weak-value", "scenario: weak-value\noutput: {1: 2, x: 3}\n", "'output'"),
        ("sweep", SWEEP_BASE.format(kind="weak-value", base="", sweep="") + MIXED_KEYS,
         "sweep config"),
        ("sweep", SWEEP_BASE.format(kind="potent-values", base="  meter: {1: 2, x: 3}\n",
                                    sweep=""), "'meter'"),
        ("sweep", SWEEP_BASE.format(kind="weak-value", base="",
                                    sweep="  g: [{start: 0, stop: 1, num: 2, 1: 2, x: 3}]\n"),
         "'g' range"),
    ], ids=["top", "meter", "range", "output", "sweep-top", "sweep-meter", "sweep-range"])
    def test_mixed_type_unknown_keys_named(self, capsys, tmp_path, command, doc, context):
        cfg = tmp_path / "odd.yaml"
        cfg.write_text(doc)
        assert run_cli(command, "--config", str(cfg)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"unknown key(s) [1, 'x'] in {context}" in captured.err

    @pytest.mark.parametrize("doc, where, named", [
        ("scenario: weak-value\n" + DUPLICATE_G, "line 3, column 1", "'g'"),
        ("scenario: potent-values\nmeter: {alpha: 1, alpha: 0}\n", "line 2, column 19",
         "'alpha'"),
        (SWEEP_BASE.format(kind="weak-value", base=_indent(DUPLICATE_G), sweep=""),
         "line 4, column 3", "'g'"),
        (SWEEP_BASE.format(kind="weak-value", base="", sweep=_indent(DUPLICATE_G)),
         "line 6, column 3", "'g'"),
    ], ids=["scenario", "meter", "sweep-base", "sweep"])
    def test_duplicate_key_refused(self, capsys, tmp_path, doc, where, named):
        cfg = tmp_path / "twice.yaml"
        cfg.write_text(doc)
        command = "sweep" if doc.startswith("base") else doc.split()[1]
        assert run_cli(command, "--config", str(cfg)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"invalid YAML at {where}: found duplicate key {named}" in captured.err

    @pytest.mark.parametrize("where", ["scenario", "sweep"])
    def test_merged_keys_may_be_overridden(self, capsys, tmp_path, where):
        cfg = tmp_path / "merge.yaml"
        cfg.write_text(f"scenario: potent-values\n{MERGED_METER}" if where == "scenario"
                       else SWEEP_BASE.format(kind="potent-values", base=_indent(MERGED_METER),
                                              sweep=""))
        assert run_cli("sweep" if where == "sweep" else "potent-values",
                       "--config", str(cfg), "--format", "json") == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["value_re"] == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("where", ["scenario", "sweep"])
    def test_unhashable_key_keeps_pyyaml_refusal(self, capsys, tmp_path, where):
        entry = "? [1, 2]\n: 3\n"
        cfg = tmp_path / "unhashable.yaml"
        cfg.write_text(f"scenario: weak-value\n{entry}" if where == "scenario"
                       else SWEEP_BASE.format(kind="weak-value", base=_indent(entry), sweep=""))
        assert run_cli("sweep" if where == "sweep" else "weak-value",
                       "--config", str(cfg)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "found unhashable key" in err and "Traceback" not in err


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


# Runs in a fresh interpreter: the kinds that draw nothing at random, and a
# sweep of one, must leave numpy.random (~10 ms of a cold process) unloaded.
_NO_RANDOM_GUARD = """
import json, sys
from potentops.cli import main
out = sys.argv[1]
kinds = ["weak-value", "modular-value", "potent-values", "potent-operator",
         "pointer-shift", "time-machine"]
codes = {kind: main([kind, "--out", f"{out}/{kind}.csv"]) for kind in kinds}
codes["sweep"] = main(["sweep", "--config", f"{out}/sweep.yaml", "--out", f"{out}/sweep.csv"])
print(json.dumps({"codes": codes, "random": "numpy.random" in sys.modules}))
"""


def test_kinds_that_draw_nothing_never_import_numpy_random(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = subprocess.run([sys.executable, "-c",
                            "import sys, numpy; print('numpy.random' in sys.modules)"],
                           env=env, capture_output=True, text=True, timeout=120)
    if probe.stdout.strip() != "False":
        pytest.skip("this numpy loads numpy.random on import")
    (tmp_path / "sweep.yaml").write_text(
        "base:\n  scenario: modular-value\nsweep:\n  g: [0.1, 0.2]\n")
    proc = subprocess.run([sys.executable, "-c", _NO_RANDOM_GUARD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == dict.fromkeys(result["codes"], EXIT_OK)
    assert len(result["codes"]) == 7
    assert not result["random"], "a kind that draws nothing imported numpy.random"

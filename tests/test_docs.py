"""The README's command list, output-column table and demos against the code."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from potentops.cli import build_parser
from potentops.scenarios import KINDS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TABLE_ROW = re.compile(r"^\| ([a-z-]+) \| `([a-z_,]+)` \| .* \| ([0-9.e-]+) \|$")
SUBCOMMANDS = [*KINDS, "verify", "sweep"]


def _readme() -> str:
    return README.read_text(encoding="utf-8")


def test_output_table_matches_kind_records():
    section = _readme().split("### Output columns", 1)[1].split("\n## ", 1)[0]
    table = {m[1]: (tuple(m[2].split(",")), float(m[3]))
             for m in map(TABLE_ROW.match, section.splitlines()) if m}
    assert list(table) == list(KINDS)
    for name, kind in KINDS.items():
        assert table[name] == (kind.columns, kind.tolerance), name


def test_subcommands_are_the_kinds_plus_verify_and_sweep():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == SUBCOMMANDS
    usage = re.search(r"potentops \{([^}]*)\}", _readme())[1]
    assert [s.strip() for s in usage.split("|")] == SUBCOMMANDS


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()

"""``tools/cross_version.py`` finds the running interpreter in agreement with
itself and with the golden eval report, and names a missing interpreter."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cross_version.py"


def run_tool(*pythons: str, tmp_path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-B", str(TOOL), *pythons], cwd=tmp_path, capture_output=True, text=True,
        timeout=300,
    )


def test_same_interpreter_agrees(tmp_path):
    proc = run_tool(sys.executable, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("all 21 outputs byte-identical")


def test_missing_interpreter_exits_2(tmp_path):
    proc = run_tool(str(tmp_path / "no-python"), tmp_path=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"cannot run {tmp_path / 'no-python'}")

"""Demo scripts whose narration is pinned byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, cwd=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_geometry_tour_stdout_is_pinned():
    proc = run_demo("geometry_tour")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / "geometry_tour.stdout").read_bytes()


@pytest.mark.parametrize(
    "name", ["ring_convergence", "staircase_q1", "unstable_pairing", "nitsche_comparison"]
)
def test_ladder_demo_stdout_is_pinned(tmp_path, name):
    # The ladder demos write results/ into their working directory.
    proc = run_demo(name, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / f"{name}.stdout").read_bytes()

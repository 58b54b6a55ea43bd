"""Demo scripts whose narration is pinned byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_geometry_tour_stdout_is_pinned():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "geometry_tour.py")],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / "geometry_tour.stdout").read_bytes()

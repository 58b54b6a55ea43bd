"""tools/parity.py runs end to end in one checkout and reads no drift there.

save then compare, in the same checkout, must exit 0 and print 0 on every
key; compare itself must report a changed array as nonzero drift.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_save_then_compare_reads_zero_on_every_key(tmp_path):
    ref = tmp_path / "ref.npz"
    save = run_tool("save", str(ref))
    assert save.returncode == 0, save.stderr
    compare = run_tool("compare", str(ref))
    assert compare.returncode == 0, compare.stdout + compare.stderr
    values = dict(line.rsplit(": ", 1) for line in compare.stdout.splitlines())
    assert "ring-p3/dof_table" in values
    assert {key for key, value in values.items() if value != "0"} == set()


def test_compare_prints_the_drift_of_a_changed_array(capsys):
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    ref = {"same": np.arange(3.0), "moved": np.array([2.0, 4.0])}
    new = {"same": np.arange(3.0), "moved": np.array([2.0, 4.5])}
    assert parity.compare(ref, new) == 0
    assert capsys.readouterr().out.splitlines() == ["moved: 0.125", "same: 0"]

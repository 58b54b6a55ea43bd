"""tools/parity.py runs end to end in one checkout and reads no drift there.

save then compare, in the same checkout, must exit 0 and print 0 on every
key, the preset ladders' per-branch error fields included; compare itself
must report a changed array as nonzero drift, fail on a drift past
DRIFT_BOUND, compare a saved CSR triple as one matrix, and read a roundoff
tail of a right-hand side, saved as one key, as no drift; save orders V's
dofs so that a renumbering of V moves no saved value.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

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
    # one right-hand side per system, so no block of it is scaled alone
    assert "ring-p3/taylor.rhs" in values
    # the matrix the solver factors, next to its blocks
    assert {"ring-p3/bvc.A", "ring-p3/bvc.K", "ring-p1/taylor.A"} <= values.keys()
    # the reference basis tables, at the volume rule and on every local edge
    assert {
        f"{tag}/basis.{where}.{part}"
        for tag in ("ring-p3", "staircase-p1-plain")
        for where in ("volume", "facet")
        for part in ("values", "gradients")
    } <= values.keys()
    assert not [key for key in values if key.endswith((".rhs_u", ".rhs_lam"))]
    # every branch of the preset ladders, per ErrorReport field, failures included
    assert {
        f"preset-{name}/{method}.{field}"
        for name in ("q1-ellipse", "p3-ring", "unstable-pairing")
        for method in ("bvc", "unmodified")
        for field in ("err_l2", "err_lambda", "triple", "dofs_u", "delta_h", "failed")
    } <= values.keys()
    assert {key for key, value in values.items() if value != "0"} == set()


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_prints_the_drift_of_a_changed_array(parity, capsys):
    ref = {"same": np.arange(3.0), "moved": np.array([2.0, 4.0])}
    new = {"same": np.arange(3.0), "moved": np.array([2.0, 4.5])}
    assert parity.compare(ref, new) == 1
    assert capsys.readouterr().out.splitlines() == ["moved: 0.125", "same: 0"]


def test_drift_within_the_bound_passes(parity, capsys):
    assert parity.DRIFT_BOUND == 1e-10
    ref = {"moved": np.array([2.0, 4.0])}
    assert parity.compare(ref, {"moved": np.array([2.0, 4.0 + 2e-10])}) == 0
    assert parity.compare(ref, {"moved": np.array([2.0, 4.0 + 8e-10])}) == 1
    assert capsys.readouterr().out.splitlines() == ["moved: 5e-11", "moved: 2e-10"]


def test_a_roundoff_tail_of_a_right_hand_side_reads_no_drift(parity, capsys):
    # The ring's multiplier load is pure roundoff (u_exact vanishes on the
    # boundary); within the whole right-hand side its change is scaled by
    # the primal load, not by itself.
    ref = {"taylor.rhs": np.array([0.5, -2.0, 2.4e-18, -1.1e-18])}
    new = {"taylor.rhs": ref["taylor.rhs"] + [0.0, 0.0, 1e-18, -1e-18]}
    assert parity.compare(ref, new) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert float(line.rsplit(": ", 1)[1]) <= parity.DRIFT_BOUND


def test_a_csr_matrix_is_compared_as_one_matrix(parity, capsys):
    # The same matrix with and without a stored exact zero: the raw CSR
    # arrays differ, the matrices do not.
    saved = {}
    for name, (data, indices, indptr) in {
        "A": ([2.0, 4.0, 1.0], [0, 1, 2], [0, 1, 3]),
        "stored-zero": ([2.0, 0.0, 4.0, 1.0], [0, 2, 1, 2], [0, 2, 4]),
        "moved": ([2.0, 4.0, 1.5], [0, 1, 2], [0, 1, 3]),
    }.items():
        saved[name] = {}
        parity._put_matrix(saved[name], "K", sp.csr_matrix((data, indices, indptr), shape=(2, 3)))
    assert parity.compare(saved["A"], saved["stored-zero"]) == 0
    assert parity.compare(saved["A"], saved["moved"]) == 1
    assert capsys.readouterr().out.splitlines() == ["K: 0", "K: 0.125"]


def test_a_renumbering_of_v_keeps_the_canonical_order(parity):
    # Dofs are ranked by their first slot in the dof table, cell by cell, so
    # after a renumbering the same dofs come in the same places.
    table = np.array([[2, 0, -1], [1, 2, 3]])
    new_number = np.array([3, 0, 2, 1])  # dof d is renamed new_number[d]
    renumbered = np.where(table >= 0, new_number[table], -1)
    order = parity._canonical_order(SimpleNamespace(dof_table=table))
    moved = parity._canonical_order(SimpleNamespace(dof_table=renumbered))
    assert order.tolist() == [2, 0, 1, 3]
    assert moved.tolist() == new_number[order].tolist()

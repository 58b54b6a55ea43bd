"""tools/bench_pairs.py runs one pair end to end, with this checkout on both
sides, and its summary reads the no-regression verdict from synthetic runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ladder_runs(values):
    return [{"result": {"metrics": {"ladder_s": {"value": v, "unit": "s"}}}} for v in values]


@pytest.mark.parametrize(
    "parent,change,within,unresolved",
    [
        ([1.0] * 5, [1.2] * 5, True, False),  # a 20% rise, inside the 0.24 bound
        ([1.0] * 5, [1.3] * 5, False, False),  # a 30% rise, past it
        ([0.6, 0.8, 1.0, 1.2, 1.4], [1.0] * 5, True, True),  # wider than the bound
        ([0.6, 0.8, 1.0, 1.2, 1.4], [0.5] * 5, True, False),  # every change run better
    ],
)
def test_summary_reads_the_bound(bench_pairs, parent, change, within, unresolved):
    (s,) = bench_pairs.summarize(ladder_runs(parent), ladder_runs(change)).values()
    assert s["within_bound"] is within
    assert s["unresolved"] is unresolved


def test_one_pair_writes_its_runs_and_summary(tmp_path):
    argv = [
        sys.executable, str(TOOL), "--parent", str(ROOT), "--label", "t", "--workload",
        "q1-ellipse", "--pairs", "1", "--levels", "2", "--seconds", "1", "--dir", str(tmp_path),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(doc["machine"]) == {
        "cpu_count", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
    }
    (series,) = doc["series"]
    assert "--workload q1-ellipse --seconds 1 --trace 0 --levels 2" in series["command"]
    for side in ("parent", "change"):
        (run,) = series[side]["runs"]
        assert run["seed"] == 0
        assert run["result"]["correct"] and run["result"]["failed"] == 0
    summary = series["summary"]
    assert set(summary) == {"ladder_s", "peak_rss_mb", "setup_s"}
    for s in summary.values():
        assert s["parent"]["q1"] <= s["parent"]["median"] <= s["parent"]["q3"]
        assert s["wins"] in (0, 1)
        assert isinstance(s["claim_rule_met"], bool)
        assert isinstance(s["within_bound"], bool)
        assert isinstance(s["unresolved"], bool)
    assert "peak_rss_mb" in proc.stdout and "change better in" in proc.stdout
    assert "claim rule" in proc.stdout and "bound" in proc.stdout

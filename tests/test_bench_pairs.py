"""tools/bench_pairs.py runs one pair end to end, with this checkout on both sides."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


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
    assert "peak_rss_mb" in proc.stdout and "change better in" in proc.stdout
    assert "claim rule" in proc.stdout

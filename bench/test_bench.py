"""Self-test of the benchmark on 2-level ladders.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bvcfem.study  # noqa: E402
import ladders  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

LEVELS = 2


@pytest.fixture(scope="module")
def reference():
    return ladders.load_reference()


def _traced_ladder(name, levels=LEVELS):
    workload = ladders.WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.span(tracing.ROOT):
        results = ladders.run_workload(workload, levels)
    return workload, tracer, results


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_printed_with_unit(name, trace, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--levels", str(LEVELS)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= LEVELS
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_output_check_rejects_perturbed_error(reference):
    workload = ladders.WORKLOADS["p3-ring-bvc"]
    results = ladders.run_workload(workload, LEVELS)
    assert ladders.check_ladder(workload, results, reference, LEVELS)[1:] == (0, [])

    report = results[0].records[1][1]
    exact = report.err_l2
    # Within the solver-path drift the tolerance allows ...
    report.err_l2 = exact * (1 + 1e-6)
    assert ladders.check_ladder(workload, results, reference, LEVELS)[1] == 0
    # ... but not beyond it.
    report.err_l2 = exact * (1 + 1e-3)
    attempted, failed, msgs = ladders.check_ladder(workload, results, reference, LEVELS)
    assert (attempted, failed) == (LEVELS, 1)
    assert "level 1" in msgs[0] and "err_l2" in msgs[0]


def test_output_check_rejects_changed_dof_count(reference):
    workload = ladders.WORKLOADS["q1-ellipse"]
    results = ladders.run_workload(workload, LEVELS)
    level, report = results[1].records[0]
    results[1].records[0] = (level, dataclasses.replace(report, dofs_u=report.dofs_u + 1))
    _, failed, msgs = ladders.check_ladder(workload, results, reference, LEVELS)
    assert failed == 1 and "dofs_u" in msgs[0]


@pytest.mark.parametrize("target", [
    ("bvcfem.study", "no_such_stage", "study.self_s", None),
    ("bvcfem.study", "ASSEMBLERS[no_such_method]", "assembly.facet_s", None),
])
def test_guard_rejects_missing_name(target):
    solve = bvcfem.study.solve
    with pytest.raises(tracing.TracingError, match="no longer exists"):
        with tracing.installed(tracing.Tracer(), tracing.TARGETS + (target,)):
            pass
    assert bvcfem.study.solve is solve


def test_guard_rejects_span_that_never_fired():
    workload, tracer, _ = _traced_ladder("p3-ring-bvc")
    tracing.check_fired(tracer, tracing.required_targets(workload.domain, workload.methods))
    with pytest.raises(tracing.TracingError, match=r"ASSEMBLERS\[taylor\]"):
        tracing.check_fired(tracer, tracing.required_targets("ring", ("bvc", "taylor")))


def test_counts_repeat_and_self_times_add_up():
    originals = {a: getattr(bvcfem.study, a) for a in ("solve", "run_level")}
    runs = []
    for _ in range(2):
        workload, tracer, _ = _traced_ladder("q1-ellipse")
        ladder_s, metrics = tracing.ladder_metrics(tracer, "bvc", LEVELS - 1)
        runs.append(metrics)
        timed = [v for k, v in metrics.items() if k in tracing.TIME_METRICS]
        assert sum(timed) == pytest.approx(ladder_s, rel=1e-9)
        table = tracing.level_table(tracer.spans)
        assert set(table) == {"bvc", "unmodified"}
        assert set(table["bvc"]) == {"0", "1"}
    assert {k: runs[0][k] for k in tracing.EXACT_COUNTS} == {
        k: runs[1][k] for k in tracing.EXACT_COUNTS
    }
    assert runs[0]["analysis.l2_h1_calls"] == 2
    assert runs[0]["solver.triangular_solves"] == 1
    assert runs[0]["solver.relres"] <= 1e-10
    assert {a: getattr(bvcfem.study, a) for a in originals} == originals

"""Convergence-ladder benchmark of bvcfem.

    python3 bench/run.py --workload p3-ring-bvc --seed 1 --seconds 40 --trace 0

Runs whole ladders of one workload (see bench/README.md), each in a fresh
process, for about --seconds seconds, checks every level against the stored
reference and prints the metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones, and the spans go to bench/out/trace-<workload>-seed<n>.json.
--workload all runs every workload in turn and prefixes the metric names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("p3-ring-bvc", "p3-ring-unmodified", "q1-ellipse")
SETUP_PROBES = 3         # setup-only processes per untraced run
MIN_UNTRACED = 2         # ladders per untraced run, whatever --seconds says
MIN_TRACED = 2           # traced ladders per traced run, for the repeat check
CHILD_TIMEOUT = 150.0    # seconds for one ladder process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def thread_env():
    return {"cpu_count": os.cpu_count(), **{v: os.environ.get(v) for v in THREAD_VARS}}


# --- child: one fresh process per ladder or setup probe ----------------------


def _setup(workload_name):
    """Import numpy, scipy and bvcfem and build the domain; returns seconds."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import bvcfem
    import ladders
    from bvcfem.geometry import make_ellipse_domain, make_ring_domain

    domain = ladders.WORKLOADS[workload_name].domain
    (make_ring_domain if domain == "ring" else make_ellipse_domain)()
    setup_s = time.perf_counter() - t0
    if not Path(bvcfem.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported bvcfem from {bvcfem.__file__}, not from {SRC}")
    return setup_s


def _ladder(workload_name, levels, trace):
    import resource

    import ladders
    import tracing

    workload = ladders.WORKLOADS[workload_name]
    reference = ladders.load_reference()
    out = {}
    tracer = tracing.Tracer()
    try:
        if trace:
            with tracing.installed(tracer), tracer.span(tracing.ROOT):
                results = ladders.run_workload(workload, levels)
                attempted, failed, msgs = ladders.check_ladder(workload, results, reference, levels)
            tracing.check_fired(tracer, tracing.required_targets(workload.domain, workload.methods))
            ladder_s, out["metrics"] = tracing.ladder_metrics(
                tracer, workload.branches[0].config.method, levels - 1
            )
            root = tracer.spans[0].start
            out["levels"] = tracing.level_table(tracer.spans)
            out["spans"] = [
                [s.name, s.parent, s.branch, s.level, s.start - root, s.end - root, self_s]
                for s, self_s in zip(tracer.spans, tracing.self_times(tracer.spans))
            ]
        else:
            t0 = time.perf_counter()
            results = ladders.run_workload(workload, levels)
            attempted, failed, msgs = ladders.check_ladder(workload, results, reference, levels)
            ladder_s = time.perf_counter() - t0
    except Exception:  # the ladder itself broke: every level counts as failed
        attempted = failed = levels * len(workload.branches)
        msgs = [traceback.format_exc(limit=4)]
        ladder_s = float("nan")
    out.update(
        ladder_s=ladder_s,
        attempted=attempted,
        failed=failed,
        messages=msgs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return out


def child_main(args):
    record = {"setup_s": _setup(args.workload)}
    if args.child == "ladder":
        record.update(_ladder(args.workload, args.levels, args.trace))
    print(json.dumps(record))
    return 0


# --- parent: schedule children for --seconds and summarise -------------------


def spawn(kind, workload, levels, trace=0):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", kind, "--workload", workload,
        "--levels", str(levels), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{kind} process exceeded {CHILD_TIMEOUT:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{kind} process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _schedule(seconds, start, durations, done, minimum):
    """Whether to start another ladder: the minimum first, then while it fits."""
    if done < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def measure_untraced(workload, seconds, levels):
    start = time.perf_counter()
    probes = [spawn("setup", workload, levels) for _ in range(SETUP_PROBES)]
    ladders, durations = [], []
    while _schedule(seconds, start, durations, len(ladders), MIN_UNTRACED):
        t0 = time.perf_counter()
        ladders.append(spawn("ladder", workload, levels))
        durations.append(time.perf_counter() - t0)
    metrics = {
        "ladder_s": statistics.median(r["ladder_s"] for r in ladders),
        # Resident memory is bimodal here (about 199 or 215 MiB on q1-ellipse),
        # by whether the kernel backs numpy's large arrays with huge pages;
        # the largest is the peak a user has to provision for.
        "peak_rss_mb": max(r["peak_rss_mb"] for r in ladders),
        "setup_s": statistics.median(r["setup_s"] for r in probes + ladders),
    }
    return ladders, metrics


def measure_traced(workload, seconds, levels, seed):
    """Untraced and traced ladders alternately: U T T, then U T while it fits."""
    start = time.perf_counter()
    untraced, traced, durations = [], [], []
    plan = [0] + [1] * MIN_TRACED
    while plan or _schedule(seconds, start, durations, 0, 0):
        trace = plan.pop(0) if plan else (0 if len(untraced) < len(traced) else 1)
        t0 = time.perf_counter()
        rec = spawn("ladder", workload, levels, trace)
        (traced if trace else untraced).append(rec)
        durations.append(time.perf_counter() - t0)
    from tracing import EXACT_COUNTS

    msgs = []
    counts = [tuple(r["metrics"][n] for n in EXACT_COUNTS) for r in traced if "metrics" in r]
    if len(set(counts)) > 1:
        msgs.append(f"counts differ between traced ladders: {counts}")
    if len(counts) < MIN_TRACED or len(counts) < len(traced):
        return untraced + traced, {}, msgs
    metrics = {n: statistics.median(r["metrics"][n] for r in traced) for n in traced[0]["metrics"]}
    metrics.update(zip(EXACT_COUNTS, counts[0]))
    metrics["tracing.overhead_s"] = statistics.median(
        r["ladder_s"] for r in traced
    ) - statistics.median(r["ladder_s"] for r in untraced)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    with open(trace_file, "w") as fh:
        json.dump(
            {
                "workload": workload, "seed": seed, "levels": levels, "env": thread_env(),
                "untraced_ladder_s": [r["ladder_s"] for r in untraced],
                "span_fields": ["name", "parent", "branch", "level", "start", "end", "self"],
                "traced": [
                    {k: r[k] for k in ("ladder_s", "metrics", "levels", "spans")} for r in traced
                ],
                "metrics": metrics,
            },
            fh,
        )
    return untraced + traced, metrics, msgs


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _finite(x):
    return x if x is not None and math.isfinite(x) else None


def run_one(workload, seed, seconds, trace, levels):
    units = declared_metrics(trace)
    print(f"{workload}  seed {seed} (recorded only: the ladders do not depend on it)")
    if trace:
        records, values, msgs = measure_traced(workload, seconds, levels, seed)
    else:
        records, values = measure_untraced(workload, seconds, levels)
        msgs = []
    for r in records:
        msgs += r["messages"]
    missing = sorted(set(units) - set(values))
    if missing and not msgs:
        msgs.append(f"metrics not measured: {missing}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for m in msgs:
        print(f"CHECK FAILED [{workload}]: {m}")
    metrics = {n: {"value": _finite(values.get(n)), "unit": u} for n, u in units.items()}
    for n, m in metrics.items():
        print(f"{workload}  {n} = {m['value']} {m['unit']}")
    return {
        "correct": not msgs and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="recorded only: the ladders are deterministic structured meshes")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--levels", type=int, default=5, help="ladder levels (the presets use 5)")
    p.add_argument("--child", choices=("setup", "ladder"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "bvcfem" / "__init__.py").is_file():
        print(f"error: bvcfem sources not found under {SRC}", file=sys.stderr)
        return 1
    try:
        if args.child:
            return child_main(args)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_one(w, args.seed, args.seconds, args.trace, args.levels) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

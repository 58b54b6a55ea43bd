"""Alternating pairs of benchmark runs: a parent checkout against this one.

    python tools/bench_pairs.py --parent ../parent --label pr27 \\
        --workload q1-ellipse --pairs 10 --seconds 40

Pair i runs `python3 bench/run.py --workload W --seconds S --trace 0
--levels L --seed i` once in the parent checkout and once in this one, the
parent first in even pairs and this checkout first in odd ones, so a drift
of the machine over the series charges both sides alike.  Each run is a
fresh `bench/run.py` in its own checkout, so each side builds what it runs
from its own sources.

The series goes to BENCH_<label>.json (in --dir, by default the root of
this checkout), in the shape of BENCH_pr25.json: the command, the machine
(CPU count and thread variables) and, per side, its commit and every run's
seed and last JSON line.  A summary adds, per metric, each side's median
and quartiles, the number of pairs this checkout won (by the direction of
BENCHMARK.json), claim_rule_met: won in at least nine tenths of the
pairs and the medians apart, in its favour, by more than the parent's
quartile distance, and the no-regression verdict against the metric's
BENCHMARK.json bound: within_bound, the change's median worse than the
parent's by at most bound times the parent's median, and unresolved, the
parent's quartile distance wider than that bound while not every change
run beats every parent run.  The summary is printed.  A file of the same
label that already exists keeps its series and gets this one appended, so
one file holds, say, a claim's pairs and the all-workload pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def commit(checkout: Path):
    """HEAD of checkout, with '+dirty' if its sources differ from it; None without git."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return None
    status = subprocess.run(
        [*git, "status", "--porcelain", "--", "src", "bench"], capture_output=True, text=True
    )
    return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def bench_run(checkout: Path, args, seed: int) -> dict:
    """The last JSON line of one bench/run.py in checkout."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", args.workload, "--seconds",
        str(args.seconds), "--trace", "0", "--levels", str(args.levels), "--seed", str(seed),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"bench/run.py failed in {checkout} ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent_runs, change_runs) -> dict:
    """Per metric: each side's median and quartiles, the pairs this checkout
    won and whether that meets the claim rule: won in at least nine tenths of
    the pairs, ties counting for neither side, with the medians further apart
    in its favour than the parent's quartiles are from each other.  Beside
    it the no-regression verdict, with tol the metric's BENCHMARK.json bound
    times the parent's median: within_bound, the change's median worse than
    the parent's by at most tol, and unresolved, the parent's quartile
    distance above tol while some change run does not beat every parent run."""
    with open(ROOT / "BENCHMARK.json") as fh:
        end_to_end = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    out = {}
    for name, metric in change_runs[0]["result"]["metrics"].items():
        a = [r["result"]["metrics"][name]["value"] for r in parent_runs]
        b = [r["result"]["metrics"][name]["value"] for r in change_runs]
        if None in a or None in b:
            out[name] = {"unit": metric["unit"], "missing": True, "claim_rule_met": False}
            continue
        declared = end_to_end[name.rsplit(".", 1)[-1]]
        sign = -1.0 if declared["better"] == "lower" else 1.0
        parent, change = quartiles(a), quartiles(b)
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        gap = sign * (change["median"] - parent["median"])
        spread = parent["q3"] - parent["q1"]
        tol = declared["bound"] * abs(parent["median"])
        beats_all = all(sign * (y - x) > 0 for x in a for y in b)
        out[name] = {
            "unit": metric["unit"],
            "parent": parent,
            "change": change,
            "wins": wins,
            "claim_rule_met": wins >= 0.9 * len(a) and gap > spread,
            "within_bound": -gap <= tol,
            "unresolved": spread > tol and not beats_all,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    p.add_argument("--workload", required=True, help="a bench/run.py workload, or all")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--dir", type=Path, default=ROOT, help="where BENCH_<label>.json goes")
    args = p.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {side: [] for side in sides}
    for seed in range(args.pairs):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for side in order:
            result = bench_run(sides[side], args, seed)
            runs[side].append({"seed": seed, "result": result})
            print(f"pair {seed} {side}: correct {result['correct']}, failed {result['failed']}",
                  flush=True)

    series = {
        "command": f"python3 bench/run.py --workload {args.workload} --seconds {args.seconds:g} "
        f"--trace 0 --levels {args.levels} --seed <pair>",
        "workload": args.workload,
        "pairs": args.pairs,
        "parent": {"commit": commit(sides["parent"]), "runs": runs["parent"]},
        "change": {"commit": commit(ROOT), "runs": runs["change"]},
        "summary": summarize(runs["parent"], runs["change"]),
    }
    path = args.dir / f"BENCH_{args.label}.json"
    doc = {
        "about": "Alternating pairs of bench/run.py runs, parent checkout against the "
        "change, written by tools/bench_pairs.py: every run's last JSON line, and per "
        "metric each side's median and quartiles, the pairs the change won, whether "
        "that meets the claim rule (claim_rule_met), and the no-regression verdict "
        "against the metric's bound (within_bound, unresolved).",
        "machine": {"cpu_count": os.cpu_count(), **{v: os.environ.get(v) for v in THREAD_VARS}},
        "series": [],
    }
    if path.exists():
        with open(path) as fh:
            doc = json.load(fh)
    doc["series"].append(series)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

    print(f"{args.workload}: {args.pairs} pairs, wrote {path}")
    for name, s in series["summary"].items():
        if s.get("missing"):
            print(f"  {name}: not measured on every run")
            continue
        a, b = s["parent"], s["change"]
        print(f"  {name}: {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] -> "
              f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] {s['unit']}, "
              f"change better in {s['wins']} of {args.pairs}, "
              f"claim rule {'met' if s['claim_rule_met'] else 'not met'}, "
              f"{'within' if s['within_bound'] else 'beyond'} bound"
              f"{', unresolved' if s['unresolved'] else ''}")
    results = [r["result"] for rs in runs.values() for r in rs]
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

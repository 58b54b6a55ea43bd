"""Benchmark workloads: whole convergence ladders through the public API.

Each workload is one call into ``bvcfem.study`` (``run_study`` or
``run_preset``) followed by the output check.  A level fails if it raised,
if the study recorded it as singular, or if its error norms leave the
reference in ``reference.json``; a ladder fails if a branch leaves its rate
windows.

Write the reference (from the commit whose results are the baseline) with

    PYTHONPATH=src python3 bench/ladders.py --write-reference
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from bvcfem.study import StudyConfig, run_preset, run_study

REFERENCE = Path(__file__).with_name("reference.json")

# Relative tolerance on every float of a level's record.  Solving the P3
# level-4 bvc system with SuperLU in symmetric mode (MMD_AT_PLUS_A) instead
# of the shipped RCM path, at relres 2.3e-12, moves err_l2 by 4.3e-6,
# err_lambda by 7.9e-8 and err_h1 by 2.1e-9 relative (level 3: 6.1e-8 in
# err_l2).  1e-4 leaves 23x headroom over that drift.  A wrong system or
# solve is off by far more: dropping the correction (unmodified instead of
# bvc) changes err_l2 by a factor 1.16 on the coarsest Q1 level and 9700 on
# the finest P3 level.
ERR_RTOL = 1e-4
FLOAT_FIELDS = ("h", "err_l2", "err_h1", "err_lambda", "triple", "delta_h", "normal_dev")
INT_FIELDS = ("nno", "dofs_u", "dofs_lambda")
UNBOUNDED = -math.inf


@dataclass(frozen=True)
class Branch:
    config: StudyConfig
    windows: dict        # norm -> (lo, hi) on the last-3 least-squares rate

    @property
    def key(self):
        c = self.config
        return f"{c.domain}/{c.element}/{c.method}"


@dataclass(frozen=True)
class Workload:
    name: str
    branches: tuple      # the first is the primary; the rest are companions
    preset: str | None = None

    @property
    def domain(self):
        return self.branches[0].config.domain

    @property
    def methods(self):
        return tuple(b.config.method for b in self.branches)


_P3_BVC = StudyConfig(domain="ring", element="p3", method="bvc")
_Q1_BVC = StudyConfig(domain="ellipse", element="q1", method="bvc")

# Rate windows are copied from the presets and acceptance criteria as they
# stood when the benchmark was added, so a change to the library's own
# windows does not loosen the benchmark.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "p3-ring-bvc",
            (Branch(_P3_BVC, {"l2": (3.7, 4.3), "h1": (2.8, 3.3), "lambda": (2.6, 3.4)}),),
        ),
        Workload(
            "p3-ring-unmodified",
            (Branch(replace(_P3_BVC, method="unmodified"), {"l2": (UNBOUNDED, 2.5)}),),
        ),
        Workload(
            "q1-ellipse",
            (
                Branch(_Q1_BVC, {"l2": (1.7, 2.3), "h1": (0.8, 1.3)}),
                Branch(replace(_Q1_BVC, method="unmodified"), {"l2": (UNBOUNDED, 1.2)}),
            ),
            preset="q1-ellipse",
        ),
    )
}


def run_workload(workload: Workload, levels: int = 5):
    """One ladder of the workload; returns a StudyResult per branch."""
    if workload.preset is not None:
        result, _ = run_preset(workload.preset, levels=levels)
        results = [result, result.companion]
    else:
        results = [run_study(replace(b.config, levels=levels)) for b in workload.branches]
    keys = [(r.config.domain, r.config.element, r.config.method) for r in results]
    want = [(b.config.domain, b.config.element, b.config.method) for b in workload.branches]
    if keys != want:
        raise RuntimeError(f"{workload.name}: ran {keys}, expected {want}")
    return results


def _record(report):
    return {f: getattr(report, f) for f in INT_FIELDS + FLOAT_FIELDS}


def level_problems(got: dict, ref: dict, rtol: float = ERR_RTOL) -> list:
    """Ways one level's record differs from its reference record."""
    out = []
    for f in INT_FIELDS:
        if got[f] != ref[f]:
            out.append(f"{f}={got[f]} != reference {ref[f]}")
    for f in FLOAT_FIELDS:
        g, r = got[f], ref[f]
        if (g is None) != (r is None):
            out.append(f"{f}={g} != reference {r}")
        elif g is not None and not abs(g - r) <= rtol * abs(r):
            out.append(f"{f}={g!r} off reference {r!r} by {abs(g - r) / abs(r):.2e} relative")
    return out


def check_ladder(workload: Workload, results, reference: dict, levels: int):
    """(levels attempted, levels failed, messages) for one ladder."""
    attempted = levels * len(workload.branches)
    failed = 0
    msgs = []
    for branch, result in zip(workload.branches, results):
        recorded = dict(result.records)
        errors = dict(result.failures)
        refs = reference[branch.key]
        for level in range(levels):
            if level in errors:
                problems = [f"raised: {errors[level]}"]
            elif level not in recorded:
                problems = ["no record"]
            else:
                problems = level_problems(_record(recorded[level]), refs[level])
            if problems:
                failed += 1
                msgs.append(f"{branch.key} level {level}: " + "; ".join(problems))
        if levels < 3:
            continue  # no rate can be fitted
        if result.rates is None:
            msgs.append(f"{branch.key}: no rates fitted")
            continue
        for norm, (lo, hi) in branch.windows.items():
            if norm not in result.rates:
                msgs.append(f"{branch.key}: no {norm} rate")
                continue
            rate = result.rates[norm].last3
            if not lo <= rate <= hi:
                msgs.append(f"{branch.key}: {norm} rate {rate:.3f} outside [{lo}, {hi}]")
    return attempted, failed, msgs


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def write_reference(levels: int = 5):
    out = {}
    for workload in WORKLOADS.values():
        for branch, result in zip(workload.branches, run_workload(workload, levels)):
            if result.failures:
                raise RuntimeError(f"{branch.key}: levels failed {result.failures}")
            out[branch.key] = [_record(r) for _, r in result.records]
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: PYTHONPATH=src python3 bench/ladders.py --write-reference")
    write_reference()

"""A preset's methods are solved level by level on one shared rung.

The shared ladder must give every branch exactly what a ladder of its own
gives, and nothing of a rung may outlive it: at each solve, the previous
rung's mesh and V are gone, and at the companion's solve so is the shared
primal assembly.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from bvcfem import study
from bvcfem.spaces import quadrature
from bvcfem.study import PRESETS, run_preset, run_study


@pytest.mark.parametrize("name, levels", [("q1-ellipse", 3), ("p3-ring", 2)])
def test_shared_ladder_equals_separate_ladders(name, levels):
    # p3-ring condenses its interior dofs: a condensation shared by both
    # methods must not be applied twice.
    result, _ = run_preset(name, levels=levels)
    config = replace(PRESETS[name].config, levels=levels)
    for branch in (result, result.companion):
        alone = run_study(replace(config, method=branch.config.method))
        assert branch.records == alone.records
        assert branch.failures == alone.failures == []
        assert np.array_equal(branch.elevation, alone.elevation)


def test_shared_ladder_keeps_the_unstable_failures():
    # The companion raises SingularSystem at every level while bvc goes on.
    result, _ = run_preset("unstable-pairing", levels=3)
    config = replace(PRESETS["unstable-pairing"].config, levels=3)
    bvc, unmodified = run_study(config), run_study(replace(config, method="unmodified"))
    assert result.records == bvc.records and result.failures == bvc.failures == []
    assert result.companion.failures == unmodified.failures
    assert [level for level, _ in unmodified.failures] == [0, 1, 2]


@pytest.mark.parametrize("name", ["q1-ellipse", "unstable-pairing"])
def test_no_rung_outlives_its_level(monkeypatch, name):
    rungs, primal, solved = [], [], []
    build_level, assemble_primal, solve = study.build_level, study.assemble_primal, study.solve

    def recorded_build(config, level, domain):
        V, Lam = build_level(config, level, domain)
        rungs.append((weakref.ref(V), weakref.ref(V.mesh)))
        return V, Lam

    def recorded_primal(V, Lam, domain):
        out = assemble_primal(V, Lam, domain)
        primal.append(weakref.ref(out.K))
        return out

    def checked_solve(system):
        assert [ref() for refs in rungs[:-1] for ref in refs] == [None] * 2 * (len(rungs) - 1)
        companion = system.method != "bvc"
        assert (primal[-1]() is None) == companion
        vals, grads = system.V.basis(quadrature(system.V.mesh.cell_kind, 4).points)
        assert not vals.flags.writeable and not grads.flags.writeable
        solved.append(system.method)
        return solve(system)

    monkeypatch.setattr(study, "build_level", recorded_build)
    monkeypatch.setattr(study, "assemble_primal", recorded_primal)
    monkeypatch.setattr(study, "solve", checked_solve)
    run_preset(name, levels=3)
    assert solved == ["bvc", "unmodified"] * 3

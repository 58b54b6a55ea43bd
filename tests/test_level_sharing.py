"""A preset's methods are solved level by level on one shared rung.

The shared ladder must give every branch exactly what a ladder of its own
gives, and nothing of a rung may outlive it: at each solve, the previous
rung's mesh and V are gone, and at the companion's solve so is the shared
primal assembly.  The companion reuses the first method's column orders
instead of computing its own.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import spilu

import bvcfem.solver
from bvcfem import study
from bvcfem.spaces import quadrature
from bvcfem.study import PRESETS, StudyConfig, run_preset, run_study


@pytest.mark.parametrize("name, levels", [("q1-ellipse", 3), ("p2-ring", 3), ("p3-ring", 2)])
def test_shared_ladder_equals_separate_ladders(name, levels):
    # p3-ring condenses its interior dofs: a condensation shared by both
    # methods must not be applied twice.  The companion's reused column
    # order is the one its own ladder computes, so the records are equal.
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

    def checked_solve(system, order):
        assert [ref() for refs in rungs[:-1] for ref in refs] == [None] * 2 * (len(rungs) - 1)
        companion = system.method != "bvc"
        assert (primal[-1]() is None) == companion
        vals, grads = system.V.basis(quadrature(system.V.mesh.cell_kind, 4).points)
        assert not vals.flags.writeable and not grads.flags.writeable
        solved.append(system.method)
        return solve(system, order)

    monkeypatch.setattr(study, "build_level", recorded_build)
    monkeypatch.setattr(study, "assemble_primal", recorded_primal)
    monkeypatch.setattr(study, "solve", checked_solve)
    run_preset(name, levels=3)
    assert solved == ["bvc", "unmodified"] * 3


@pytest.fixture
def spilu_calls(monkeypatch):
    """The number of minimum-degree passes the solver runs."""
    calls = []

    def counted_spilu(*args, **kwargs):
        calls.append(1)
        return spilu(*args, **kwargs)

    monkeypatch.setattr(bvcfem.solver, "spilu", counted_spilu)
    return calls


@pytest.mark.parametrize(
    "name, levels", [("q1-ellipse", 3), ("p3-ring", 2), ("unstable-pairing", 3)]
)
def test_companion_reuses_the_column_order(spilu_calls, name, levels):
    # bvc's factorization gives the companion its step: no pass of its own.
    result, _ = run_preset(name, levels=levels)
    assert len(result.records) == levels
    assert spilu_calls == []


def test_standalone_companion_orders_each_level(spilu_calls):
    run_study(StudyConfig(domain="ellipse", element="q1", method="unmodified", levels=3))
    assert spilu_calls == [1] * 3


def test_standalone_rung_keeps_no_order(monkeypatch):
    # Nothing solved after the one method of a rung: no order is kept.
    orders, solve = [], study.solve

    def recorded_solve(system, order):
        orders.append(order)
        return solve(system, order)

    monkeypatch.setattr(study, "solve", recorded_solve)
    run_study(StudyConfig(domain="ellipse", element="q1", method="bvc", levels=3))
    assert orders == [None] * 3

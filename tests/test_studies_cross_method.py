"""Cross-method studies that are cheap enough outside the acceptance suite."""

import functools

import numpy as np
import pytest

from bvcfem.study import PRESETS, Preset, StudyConfig, check_rates, main, run_study


@pytest.fixture(scope="module")
def short_ladders():
    configs = {
        "bvc": StudyConfig(domain="ring", element="p2", method="bvc", levels=4),
        "taylor": StudyConfig(domain="ring", element="p2", method="taylor", levels=4),
    }
    return {name: run_study(cfg) for name, cfg in configs.items()}


def test_taylor_matches_bvc_rates(short_ladders):
    # The non-symmetric Taylor correction and the symmetric one differ by
    # O(rho^2) terms, so the observed rates agree within noise.
    bvc = short_ladders["bvc"].rates
    taylor = short_ladders["taylor"].rates
    assert abs(taylor["l2"].last3 - bvc["l2"].last3) < 0.3
    assert abs(taylor["h1"].last3 - bvc["h1"].last3) < 0.3
    assert 2.7 <= taylor["l2"].last3 <= 3.4


def test_taylor_errors_close_to_bvc(short_ladders):
    for rb, rt in zip(short_ladders["bvc"].reports, short_ladders["taylor"].reports):
        assert rt.err_l2 == pytest.approx(rb.err_l2, rel=0.5)


def test_triple_norm_rate_is_energy_order(short_ladders):
    # |||(u - u_h, lambda~ - lambda_h)||| decays at the energy rate k = 2.
    fit = short_ladders["bvc"].rates["triple"]
    assert 1.8 <= fit.last3 <= 2.4


def test_preset_rate_check_failure_exits_2(monkeypatch, tmp_path):
    impossible = Preset(
        config=StudyConfig(domain="ring", element="p2", method="bvc", levels=3),
        check=functools.partial(check_rates, checks={"l2": (9.0, 9.5)}),
    )
    monkeypatch.setitem(PRESETS, "impossible", impossible)
    assert main(["--preset", "impossible"]) == 2

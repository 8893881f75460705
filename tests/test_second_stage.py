from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from oracles import fe_dummy_ols
from passthru.mg_panel import PassThroughPanel, build_passthrough_spec, estimate_decade_passthroughs
from passthru.panel_data import DecadeWindow, PanelDataset
from passthru.regression_core import DegenerateVarianceError, TooFewRowsError
from passthru.second_stage import (
    NonPositiveCovariateError,
    SecondStageError,
    second_stage_fit,
    table5_results,
)
from passthru.synth_lab import DgpParams, generate_panel

COUNTRIES = ("AT", "US", "JP", "SE", "FR")
DECADES = ("1980s", "1990s", "2000s", "2010s")


def panel_of(rows) -> PassThroughPanel:
    """The column panel of (country, decade, passthrough, kof, em6, em10, avg_inflation) rows."""
    country, decade, passthrough, *covariates = zip(*rows)
    names = ("kof", "em6", "em10", "avg_inflation")
    return PassThroughPanel(country, decade, np.array(passthrough), dict(zip(names, map(np.array, covariates))))


def build_panel(rule, em6_rule=None) -> PassThroughPanel:
    """Panel with one row per (country, decade); `rule(i, em6) -> passthrough`."""
    rows = []
    for i, country in enumerate(COUNTRIES):
        for d, decade in enumerate(DECADES):
            em6 = (em6_rule or (lambda i, d: 0.004 * (1 + i) * 1.8**d))(i, d)
            rows.append((country, decade, rule(i, em6), 0.6 + 0.02 * i + 0.05 * d, em6, 1.4 * em6, 0.05 - 0.01 * d))
    return panel_of(rows)


def test_exact_log_linear_rule_pooled():
    panel = build_panel(lambda i, em6: -0.1 - 0.15 * math.log(em6))
    r = second_stage_fit(panel, "em6", fe=False)
    assert r.coefficient == pytest.approx(-0.15, abs=1e-12)
    assert r.constant == pytest.approx(-0.1, abs=1e-12)
    assert r.r2 == pytest.approx(1.0, abs=1e-12)
    assert r.n == 20
    assert not r.fe


def test_country_offsets_need_fixed_effects():
    # offsets line up with the country's openness level, biasing the pooled slope
    panel = build_panel(lambda i, em6: 0.3 * i - 0.15 * math.log(em6))
    fe = second_stage_fit(panel, "em6", fe=True)
    pooled = second_stage_fit(panel, "em6", fe=False)
    assert fe.coefficient == pytest.approx(-0.15, abs=1e-8)
    assert abs(pooled.coefficient - fe.coefficient) > 0.01
    assert fe.r2_within == pytest.approx(1.0, abs=1e-10)
    assert fe.n_countries == 5


def test_fe_matches_dummy_variable_oracle():
    rng = np.random.default_rng(17)
    noise = iter(rng.normal(0, 0.05, 100))
    panel = build_panel(lambda i, em6: 0.2 * i - 0.1 * math.log(em6) + next(noise))
    r = second_stage_fit(panel, "em6", fe=True)
    x = np.log(panel.covariates["em6"][:, None])
    y = panel.passthrough
    groups = list(panel.country)
    expected = fe_dummy_ols(x, y, groups)[0]
    assert r.coefficient == pytest.approx(expected, abs=1e-10)


def test_fe_invariant_to_per_country_shifts():
    panel = build_panel(lambda i, em6: -0.1 - 0.15 * math.log(em6))
    base = second_stage_fit(panel, "em6", fe=True)
    offsets = np.array([0.7 * COUNTRIES.index(c) for c in panel.country])
    shifted = second_stage_fit(replace(panel, passthrough=panel.passthrough + offsets), "em6", fe=True)
    assert shifted.coefficient == pytest.approx(base.coefficient, abs=1e-10)


def test_sign_stability_under_covariate_rescaling():
    panel = build_panel(lambda i, em6: -0.1 - 0.15 * math.log(em6))
    base = second_stage_fit(panel, "em6", fe=False)
    for c in (3.0, 0.2):
        scaled_covariates = panel.covariates | {"em6": c * panel.covariates["em6"]}
        scaled = second_stage_fit(replace(panel, covariates=scaled_covariates), "em6", fe=False)
        assert scaled.coefficient == pytest.approx(base.coefficient, rel=1e-12)
        assert scaled.constant == pytest.approx(base.constant - base.coefficient * math.log(c), rel=1e-10)


def test_non_positive_covariate():
    panel = build_panel(lambda i, em6: 0.1, em6_rule=lambda i, d: 0.01 if d else -0.01)
    with pytest.raises(NonPositiveCovariateError):
        second_stage_fit(panel, "em6", fe=False)


def test_too_few_rows():
    rows = (
        ("AT", "1980s", 0.1, math.nan, 0.01, math.nan, math.nan),
        ("US", "1980s", 0.2, math.nan, 0.02, math.nan, math.nan),
    )
    with pytest.raises(TooFewRowsError):
        second_stage_fit(panel_of(rows), "em6", fe=False)


def test_missing_covariate_rows_are_dropped():
    panel = build_panel(lambda i, em6: -0.1 - 0.15 * math.log(em6))
    em6 = panel.covariates["em6"].copy()
    em6[0] = math.nan
    r = second_stage_fit(replace(panel, covariates=panel.covariates | {"em6": em6}), "em6", fe=False)
    assert r.n == 19


def test_one_row_per_country_is_degenerate():
    rows = tuple(
        (c, "2010s", 0.1 * i, math.nan, 0.01 * (1 + i), math.nan, math.nan)
        for i, c in enumerate(COUNTRIES)
    )
    with pytest.raises(DegenerateVarianceError):
        second_stage_fit(panel_of(rows), "em6", fe=True)


def test_unknown_covariate():
    panel = build_panel(lambda i, em6: 0.1)
    with pytest.raises(SecondStageError):
        second_stage_fit(panel, "openness", fe=False)


def test_table5_results_layout():
    panel = build_panel(lambda i, em6: -0.1 - 0.12 * math.log(em6))
    results = table5_results(panel)
    assert [(r.covariate, r.fe) for r in results] == [
        ("kof", False), ("kof", True),
        ("em6", False), ("em6", True),
        ("em10", False), ("em10", True),
    ]
    for r in results:
        assert r.n == 20
        if r.fe:
            assert r.r2 is None and r.r2_within is not None and r.r2_between is not None
        else:
            assert r.r2 is not None and r.r2_within is None


def synthetic_decade_panel(seed: int, hole_rate: float) -> PassThroughPanel:
    """The headline decade panel of generate_panel(DgpParams(seed=seed)), less a random share of its cells.

    With holes, C03 also lacks em10 throughout, so its rows drop out of the
    em10 columns.
    """
    ds = generate_panel(DgpParams(seed=seed))
    values, _ = ds.complete_cells(ds.variables)
    values[np.random.default_rng(seed).random(values.shape) < hole_rate] = np.nan
    if hole_rate:
        values[ds.variables.index("em10"), ds.countries.index("C03")] = np.nan
    ds = PanelDataset(ds.countries, ds.years, ds.variables, values)
    return estimate_decade_passthroughs(ds, build_passthrough_spec(), [DecadeWindow(y) for y in (1980, 1990, 2000, 2010)])


# sha256 of every field of the table5_results of synthetic_decade_panel(1, 0.0) and then of
# synthetic_decade_panel(3, 0.05), one field a line, each float as float.hex
SECOND_STAGE_SHA256 = "d890980d5c0160c8d31865fd380b5ba811d621ce26a64fd9ae82c7651b61a1c1"


def test_table5_results_are_pinned_to_the_last_bit():
    lines = [
        value.hex() if isinstance(value, float) else repr(value)
        for panel in (synthetic_decade_panel(1, 0.0), synthetic_decade_panel(3, 0.05))
        for result in table5_results(panel)
        for value in astuple(result)
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SECOND_STAGE_SHA256

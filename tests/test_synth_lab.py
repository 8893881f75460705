from __future__ import annotations

import json
import math

import numpy as np
import pytest

from passthru.mg_panel import build_passthrough_spec, fit_country, materialize_design
from passthru.panel_data import TransformSpec, apply_transform
from passthru.synth_lab import (
    DgpParams,
    Z90,
    InvalidParamsError,
    _ar1,
    default_truths,
    dgp_params_from_mapping,
    dgp_params_to_mapping,
    generate_panel,
    monte_carlo,
)

SPEC = build_passthrough_spec("cpi", "ulc")


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        DgpParams(n_years=5)
    with pytest.raises(InvalidParamsError):
        DgpParams(sigma_eps=-0.1)
    with pytest.raises(InvalidParamsError):
        DgpParams(rho=0.97, sigma_mu1=0.0)
    with pytest.raises(InvalidParamsError):
        DgpParams(cost_ar=1.0)
    with pytest.raises(InvalidParamsError):
        DgpParams(lambda_schedule=())
    with pytest.raises(InvalidParamsError):
        DgpParams(seed=-1)


def test_noise_free_homogeneous_panel():
    p = DgpParams(n_countries=4, n_years=30, rho=0.4, lam=0.3,
                  sigma_mu1=0, sigma_mu2=0, sigma_eps=0, alpha_mean=0.012, seed=5)
    ds, truths = generate_panel(p, return_truth=True)
    assert all(t.rho_i == 0.4 and t.lam_i == 0.3 for t in truths)
    mat = materialize_design(ds, SPEC)
    for country in ds.countries:
        fit = fit_country(mat, SPEC, country)
        assert fit.coef("dln_cpi_lag1") == pytest.approx(0.4, abs=1e-8)
        assert fit.coef("dln_ulc") == pytest.approx(0.3, abs=1e-8)


def test_determinism_same_seed():
    p = DgpParams(n_countries=3, n_years=15, seed=8)
    assert generate_panel(p) == generate_panel(p)
    assert generate_panel(p, seed=(8, 1)) == generate_panel(p, seed=(8, 1))
    assert generate_panel(p, seed=(8, 1)) != generate_panel(p, seed=(8, 2))


def test_levels_round_trip_to_growth_rates():
    p = DgpParams(n_countries=3, n_years=25, seed=9)
    ds = generate_panel(p, include_growth=True)
    for var, growth in (("cpi", "cpi_growth"), ("ulc", "ulc_growth")):
        recovered = apply_transform(ds, TransformSpec.log_diff(var), f"d_{var}")
        for country in ds.countries:
            for year in ds.years[1:]:
                assert recovered.value(f"d_{var}", country, year) == pytest.approx(
                    ds.value(growth, country, year), abs=1e-10
                )


def test_stationarity_guard():
    p = DgpParams(n_countries=60, n_years=12, rho=0.7, sigma_mu1=0.4, seed=10)
    _, truths = generate_panel(p, return_truth=True)
    assert max(abs(t.rho_i) for t in truths) < 0.95


def test_schedule_changes_lambda_by_decade():
    sched = (0.3, 0.0)
    p = DgpParams(n_countries=2, n_years=20, lambda_schedule=sched,
                  sigma_mu1=0, sigma_mu2=0, sigma_eps=0, seed=11)
    ds = generate_panel(p)
    windows = [(1980, 1989), (1990, 1999)]
    mat = materialize_design(ds, SPEC)
    from passthru.panel_data import DecadeWindow, window

    for (start, _), expected in zip(windows, sched):
        sub = window(mat, DecadeWindow.from_start(start))
        fit = fit_country(sub, SPEC, "C00")
        assert fit.coef("dln_ulc") == pytest.approx(expected, abs=1e-6)


def test_monte_carlo_report_shape_and_serialization():
    p = DgpParams(n_countries=6, n_years=20, seed=12)
    report = monte_carlo(p, SPEC, reps=3)
    assert report.reps == 3
    assert set(report.slots) == {"dln_cpi_lag1", "dln_ulc", "const"}
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["slots"]["dln_ulc"]["truth"] == 0.25
    with pytest.raises(InvalidParamsError):
        monte_carlo(p, SPEC, reps=1)


def test_monte_carlo_parallel_matches_serial():
    p = DgpParams(n_countries=5, n_years=20, seed=13)
    serial = monte_carlo(p, SPEC, reps=6)
    parallel = monte_carlo(p, SPEC, reps=6, n_jobs=4)
    for name in serial.slots:
        assert serial.slots[name] == parallel.slots[name]


def test_monte_carlo_doubling_reps_self_consistency():
    p = DgpParams(n_countries=8, n_years=30, seed=14)
    short = monte_carlo(p, SPEC, reps=60)
    long = monte_carlo(p, SPEC, reps=120)
    # shared seed stream: the first 60 replications coincide, so the bias
    # estimate can move at most by the sampling noise of the extension
    sd = max(short.slots["dln_ulc"].rmse, 1e-12)
    change = abs(long.slots["dln_ulc"].bias - short.slots["dln_ulc"].bias)
    assert change < 2.0 / math.sqrt(60) * sd + 1e-12


def test_mg_estimates_within_two_se_of_truth_in_most_reps():
    # each coefficient should sit inside +/- 2 SE of its true value in
    # roughly 19 out of 20 replications
    p = DgpParams(n_countries=21, n_years=40, rho=0.4, lam=0.25,
                  sigma_mu1=0.1, sigma_mu2=0.1, sigma_eps=0.01, seed=20)
    from passthru.mg_panel import mean_group

    reps = 150
    hits = 0
    for rep in range(reps):
        ds = generate_panel(p, seed=(p.seed, rep))
        mat = materialize_design(ds, SPEC)
        r = mean_group([fit_country(mat, SPEC, c) for c in mat.countries])
        hits += abs(r.coef("dln_ulc") - 0.25) < 2.0 * r.se_of("dln_ulc")
    assert 0.90 <= hits / reps <= 0.99


def test_pooled_fe_bias_exceeds_mg_under_heterogeneity():
    # persistent cost growth plus heterogeneous slopes is the setting where
    # pooled within estimation goes wrong and the group mean does not
    p = DgpParams(n_countries=30, n_years=60, rho=0.4, lam=0.25,
                  sigma_mu1=0.2, sigma_mu2=0.2, sigma_eps=0.01,
                  cost_ar=0.9, cost_sd=0.02, seed=15)
    mg = monte_carlo(p, SPEC, reps=60)
    pooled = monte_carlo(p, SPEC, reps=60, estimator="pooled_fe")
    assert abs(pooled.slots["dln_ulc"].bias) > abs(mg.slots["dln_ulc"].bias)
    assert abs(pooled.slots["dln_ulc"].bias) > 3 * abs(mg.slots["dln_ulc"].bias)


def test_dgp_params_from_mapping():
    mapping = {
        "dgp.countries": "7", "dgp.years": "25", "dgp.rho": "0.3", "dgp.lam": "0.2",
        "dgp.sigma_eps": "0.02", "dgp.seed": "3", "dgp.lambda_schedule": "0.25, 0.1",
        "other.key": "ignored",
    }
    p = dgp_params_from_mapping(mapping)
    assert (p.n_countries, p.n_years, p.rho, p.lam) == (7, 25, 0.3, 0.2)
    assert p.lambda_schedule == (0.25, 0.1)
    with pytest.raises(InvalidParamsError):
        dgp_params_from_mapping({"dgp.mystery": "1"})
    with pytest.raises(InvalidParamsError):
        dgp_params_from_mapping({"dgp.rho": "abc"})


def test_dgp_params_mapping_round_trip():
    p = DgpParams(n_countries=7, rho=0.3, sigma_eps=0.02, lambda_schedule=(0.25, 0.1), seed=3)
    mapping = dgp_params_to_mapping(p)
    assert mapping["dgp.countries"] == "7"
    assert mapping["dgp.lambda_schedule"] == "0.25,0.1"
    assert dgp_params_from_mapping(mapping) == p
    assert dgp_params_from_mapping(dgp_params_to_mapping(DgpParams())) == DgpParams()


def test_ar1_matches_lfilter_bit_for_bit():
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.normal(0.0, rng.uniform(0.001, 1.0), int(rng.integers(1, 120)))
        coef = float(rng.uniform(-0.99, 0.99))
        assert np.array_equal(_ar1(x, coef), signal.lfilter([1.0], [1.0, -coef], x))


def test_z90_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    assert Z90 == float(stats.norm.ppf(0.95))


def test_default_truths_mapping():
    truths = default_truths(DgpParams(), SPEC)
    assert truths == {"dln_cpi_lag1": 0.4, "dln_ulc": 0.25, "const": 0.01}

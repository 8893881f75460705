from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import simulate_panel
from passthru import pools, synth_lab
from passthru.mg_panel import (
    MgError,
    ModelSpec,
    Term,
    TooFewCountriesError,
    build_passthrough_spec,
    country_arrays,
    fit_country,
    long_run_effect,
    materialize_design,
    mean_group,
    pooled_fixed_effects,
)
from passthru.panel_data import PANEL_SCHEMA, TransformSpec, apply_transform, panel_csv_text
from passthru.synth_lab import (
    BLOCK_REPS,
    ESTIMATORS,
    DgpParams,
    Z90,
    InvalidParamsError,
    _ar1,
    _block,
    default_truths,
    generate_panel,
    monte_carlo,
)

SPEC = build_passthrough_spec("cpi", "ulc")


def mg_of(ds):
    return mean_group(country_arrays(ds, SPEC), SPEC.design_columns)


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
    for name in ("rho", "lam", "sigma_mu1", "sigma_mu2", "alpha_mean", "alpha_sd", "sigma_eps", "cost_ar", "cost_sd"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParamsError, match=f"^{name} must be finite"):
                DgpParams(**{name: value})
    with pytest.raises(InvalidParamsError, match=r"^lambda_schedule\[1\] must be finite, got nan"):
        DgpParams(lambda_schedule=(0.1, math.nan))
    for name in ("n_countries", "n_years", "start_year", "burn_in", "seed"):
        for value in (2.0, 20.5, True, "3", None):
            with pytest.raises(InvalidParamsError, match=f"^{name} must be an int, got {value!r}$"):
                DgpParams(**{name: value})
    for name in ("rho", "lam", "sigma_mu1", "sigma_mu2", "alpha_mean", "alpha_sd", "sigma_eps", "cost_ar", "cost_sd"):
        for value in (True, False, "0.4", None, 1j, [0.4]):
            with pytest.raises(InvalidParamsError, match=rf"^{name} must be a real number, got {re.escape(repr(value))}$"):
                DgpParams(**{name: value})
    for schedule in ([0.1, 0.2], 0.1, "0.1"):
        with pytest.raises(InvalidParamsError, match=rf"^lambda_schedule must be a tuple, got {re.escape(repr(schedule))}$"):
            DgpParams(lambda_schedule=schedule)
    for entry in ("0.2", None, True, (0.2,)):
        with pytest.raises(InvalidParamsError, match=rf"^lambda_schedule\[1\] must be a real number, got {re.escape(repr(entry))}$"):
            DgpParams(lambda_schedule=(0.1, entry))
    assert DgpParams(rho=np.float64(0.4), lam=1, lambda_schedule=(np.float64(0.2), 0)).lam == 1


def test_a_lambda_schedule_starts_on_a_decade():
    # schedule entry d covers start_year + 10 d .. + 9: from 1985 it would straddle the 1990s window
    with pytest.raises(InvalidParamsError, match=r"^start_year must be a multiple of 10 with a schedule, got 1985$"):
        DgpParams(start_year=1985, lambda_schedule=(0.3, 0.0))
    assert DgpParams(start_year=1985).start_year == 1985
    assert DgpParams(start_year=1990, lambda_schedule=(0.3, 0.0)).start_year == 1990


def test_redraw_limit_names_the_persistence_draw():
    # every rho_i candidate lies near 5, outside the stationary bound
    with pytest.raises(InvalidParamsError, match="^could not draw a stationary persistence coefficient$"):
        generate_panel(DgpParams(rho=5.0, sigma_mu1=0.01))


def test_noise_free_homogeneous_panel():
    p = DgpParams(n_countries=4, n_years=30, rho=0.4, lam=0.3,
                  sigma_mu1=0, sigma_mu2=0, sigma_eps=0, alpha_mean=0.012, seed=5)
    ds, rho, mu2, _ = synth_lab._simulate(p, {"": p.seed})
    assert (rho == 0.4).all() and (p.lam + mu2 == 0.3).all()
    mat = materialize_design(ds, SPEC)
    cols = SPEC.design_columns
    for country in ds.countries:
        fit = fit_country(mat, SPEC, country)
        assert fit.coefficients[cols.index("dln_cpi_lag1")] == pytest.approx(0.4, abs=1e-8)
        assert fit.coefficients[cols.index("dln_ulc")] == pytest.approx(0.3, abs=1e-8)


def test_determinism_same_seed():
    p = DgpParams(n_countries=3, n_years=15, seed=8)
    assert generate_panel(p) == generate_panel(p)
    assert generate_panel(p, seed=(8, 1)) == generate_panel(p, seed=(8, 1))
    assert generate_panel(p, seed=(8, 1)) != generate_panel(p, seed=(8, 2))


def test_levels_round_trip_to_growth_rates():
    p = DgpParams(n_countries=3, n_years=25, seed=9)
    ds = synth_lab._simulate(p, {"": p.seed}, PANEL_SCHEMA + ("cpi_growth", "ulc_growth"))[0]
    for var, growth in (("cpi", "cpi_growth"), ("ulc", "ulc_growth")):
        recovered = apply_transform(ds, TransformSpec.log_diff(var), f"d_{var}")
        for country in ds.countries:
            for year in ds.years[1:]:
                assert recovered.value(f"d_{var}", country, year) == pytest.approx(
                    ds.value(growth, country, year), abs=1e-10
                )


def test_stationarity_guard():
    p = DgpParams(n_countries=60, n_years=12, rho=0.7, sigma_mu1=0.4, seed=10)
    _, rho, _, _ = synth_lab._simulate(p, {"": p.seed})
    assert np.abs(rho).max() < 0.95


def test_schedule_changes_lambda_by_decade():
    sched = (0.3, 0.0)
    p = DgpParams(n_countries=2, n_years=20, lambda_schedule=sched,
                  sigma_mu1=0, sigma_mu2=0, sigma_eps=0, seed=11)
    ds = generate_panel(p)
    windows = [(1980, 1989), (1990, 1999)]
    mat = materialize_design(ds, SPEC)
    from passthru.panel_data import DecadeWindow, window

    for (start, _), expected in zip(windows, sched):
        sub = window(mat, DecadeWindow(start))
        fit = fit_country(sub, SPEC, "C00")
        assert fit.coefficients[SPEC.design_columns.index("dln_ulc")] == pytest.approx(expected, abs=1e-6)


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
    serial = monte_carlo(p, SPEC, reps=2 * BLOCK_REPS)
    parallel = monte_carlo(p, SPEC, reps=2 * BLOCK_REPS, n_jobs=4)
    for name in serial.slots:
        assert serial.slots[name] == parallel.slots[name]


# sha256 of the sort_keys JSON report of monte_carlo(DgpParams(seed=42), headline spec, reps=40)
REPORT_SHA256 = {
    "mg": "4c11164d16c2d6918760aa813a2d3be7532b9e814909c572228b5ead802c923c",
    "pooled_fe": "e78d32239a1c3c7e7cbc848a23c91ab3422289bbc4573d21d3779885545b62e6",
}


@pytest.mark.parametrize("n_jobs", [1, 2, 3])
@pytest.mark.parametrize("estimator", sorted(REPORT_SHA256))
def test_monte_carlo_reports_are_pinned_for_every_worker_count(estimator, n_jobs):
    report = monte_carlo(DgpParams(seed=42), build_passthrough_spec(), reps=40, estimator=estimator, n_jobs=n_jobs)
    payload = json.dumps(report.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == REPORT_SHA256[estimator]


@pytest.mark.parametrize("n_jobs", [0, -1, 1.5, "2", True, None])
def test_monte_carlo_rejects_a_bad_n_jobs(n_jobs):
    with pytest.raises(InvalidParamsError, match="n_jobs"):
        monte_carlo(DgpParams(n_countries=3, n_years=12, seed=1), SPEC, reps=3, n_jobs=n_jobs)


@pytest.mark.parametrize("reps", [1, 0, -5, 3.0, "3", True, None])
def test_monte_carlo_rejects_a_bad_reps(reps):
    with pytest.raises(InvalidParamsError, match="reps"):
        monte_carlo(DgpParams(n_countries=3, n_years=12, seed=1), SPEC, reps=reps)


def test_numpy_integers_count_as_ints():
    values = {"n_countries": 4, "n_years": 15, "start_year": 1990, "burn_in": 7, "seed": 3}
    built = DgpParams(**{name: np.int64(v) for name, v in values.items()})
    assert built == DgpParams(**values)
    assert panel_csv_text(generate_panel(built)) == panel_csv_text(generate_panel(DgpParams(**values)))
    p = DgpParams(n_countries=3, n_years=12, seed=1)
    want = json.dumps(monte_carlo(p, SPEC, reps=4).to_json_dict(), sort_keys=True)
    got = monte_carlo(p, SPEC, reps=np.int64(4), n_jobs=np.int64(1)).to_json_dict()
    assert json.dumps(got, sort_keys=True) == want
    assert type(got["reps"]) is int


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records starts, tasks and shutdowns, runs the tasks in this process."""

    sizes: list[int] = []  # max_workers of each pool started
    shutdowns: list[tuple[int, bool]] = []  # (max_workers, cancel_futures) of each shutdown
    tasks: list[list] = []  # the items of each map call

    def __init__(self, max_workers, mp_context):
        self.max_workers = max_workers
        self.closed = False
        self.sizes.append(max_workers)

    def map(self, fn, items):
        items = list(items)
        self.tasks.append(items)
        for item in items:
            if self.closed:  # a real pool cancels the tasks left at shutdown
                raise CancelledError()
            yield fn(item)

    def shutdown(self, wait=True, cancel_futures=False):
        self.closed = True
        self.shutdowns.append((self.max_workers, cancel_futures))


class _FailingPool(_InlinePool):
    """A stand-in whose tasks fail, as they do when a worker dies."""

    def map(self, fn, items):
        raise BrokenProcessPool("a worker died")


P_POOL = DgpParams(n_countries=3, n_years=12, seed=2)


@pytest.fixture
def inline_pool(monkeypatch):
    """ProcessPoolExecutor replaced by _InlinePool, with no pool kept before or after the test."""
    pools.discard()
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "shutdowns", [])
    monkeypatch.setattr(_InlinePool, "tasks", [])
    monkeypatch.setattr(pools, "ProcessPoolExecutor", _InlinePool)
    yield
    pools.discard()


@pytest.mark.parametrize(("reps", "n_jobs", "pool"), [
    (3, 8, []),
    (BLOCK_REPS, 2, []),
    (BLOCK_REPS + 1, 8, [2]),
    (2 * BLOCK_REPS + 5, 8, [3]),
    (2 * BLOCK_REPS + 5, 2, [2]),
    (2 * BLOCK_REPS + 5, 1, []),
])
def test_monte_carlo_pool_has_one_worker_per_block_at_most(inline_pool, reps, n_jobs, pool):
    report = monte_carlo(P_POOL, SPEC, reps=reps, n_jobs=n_jobs)
    assert _InlinePool.sizes == pool
    assert report == monte_carlo(P_POOL, SPEC, reps=reps)


@pytest.mark.parametrize(("reps", "n_jobs"), [
    (50, 2), (5 * BLOCK_REPS // 2, 2), (BLOCK_REPS + 1, 8), (100, 3), (2 * BLOCK_REPS + 1, 2), (97, 4),
])
def test_monte_carlo_gives_each_worker_an_equal_share_of_blocks(inline_pool, reps, n_jobs):
    monte_carlo(P_POOL, SPEC, reps=reps, n_jobs=n_jobs)
    [blocks] = _InlinePool.tasks
    [workers] = _InlinePool.sizes
    sizes = [len(block) for block in blocks]
    assert [r for block in blocks for r in block] == list(range(reps))
    assert len(blocks) % workers == 0
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= BLOCK_REPS


@pytest.mark.parametrize("estimator", ["mg", "pooled_fe"])
@pytest.mark.parametrize("reps", [40, 97])
def test_monte_carlo_reports_do_not_depend_on_the_block_size(monkeypatch, reps, estimator):
    reports = set()
    for cap in (1, 7, BLOCK_REPS, 50):
        monkeypatch.setattr(synth_lab, "BLOCK_REPS", cap)
        report = monte_carlo(P_POOL, SPEC, reps=reps, estimator=estimator)
        reports.add(json.dumps(report.to_json_dict(), sort_keys=True))
    assert len(reports) == 1


def test_monte_carlo_aggregates_as_fsum_and_keeps_nan_and_inf_estimates(monkeypatch):
    truths = {"dln_ulc": 0.25, "dln_cpi_lag1": 0.4, "const": 0.01}
    found = {  # cancelling terms that a plain sum rounds; an infinite estimate; a NaN one
        "dln_ulc": [1e16, 0.25, -1e16, 0.5, 3.0, 1e-17],
        "dln_cpi_lag1": [0.4, math.inf, 0.1, 0.2, 0.3, 0.5],
        "const": [math.nan, 0.0, 0.01, 0.02, 0.0, 0.03],
    }
    ses = [0.1, 0.2, 1e16, 0.1, 0.1, 0.3]

    def fake(p, spec, slots, fit, reps):
        return [[found[s][r] for s in slots] for r in reps], [[ses[r]] * len(slots) for r in reps]

    monkeypatch.setattr(synth_lab, "_block", fake)
    assert default_truths(P_POOL, SPEC) == truths
    report = monte_carlo(P_POOL, SPEC, reps=6)
    for name, truth in truths.items():
        errors = [e - truth for e in found[name]]
        covered = sum(1 for e, s in zip(errors, ses) if abs(e) <= Z90 * s)
        want = (math.fsum(found[name]) / 6, math.fsum(errors) / 6, math.sqrt(math.fsum(e * e for e in errors) / 6), covered / 6)
        got = report.slots[name]
        assert repr((got.mean_estimate, got.bias, got.rmse, got.coverage)) == repr(want)
    assert math.fsum(found["dln_ulc"]) / 6 != sum(found["dln_ulc"]) / 6


def _median_fit(ds, spec, n, slots):
    """A toy block fit: each slot's median over each replication's countries, with no standard error."""
    found = country_arrays(ds, spec)
    idx = [spec.design_columns.index(name) for name in slots]
    medians = np.median(found.coefficients[:, idx].reshape(-1, n, len(slots)), axis=1)
    return medians, np.full(medians.shape, math.nan)


def test_an_estimator_added_to_the_table_gets_a_report(monkeypatch):
    monkeypatch.setitem(synth_lab.ESTIMATORS, "median", (_median_fit, ESTIMATORS["pooled_fe"][1]))
    reps = BLOCK_REPS + 3  # two blocks
    report = monte_carlo(P_POOL, SPEC, reps=reps, estimator="median", n_jobs=1)
    assert report.estimator == "median"
    assert set(report.slots) == {"dln_cpi_lag1", "dln_ulc"}  # the default truths less "const", as for pooled_fe
    alone = []  # each replication's country coefficients, fitted on its own panel
    for r in range(reps):
        ds = materialize_design(generate_panel(P_POOL, seed=(P_POOL.seed, r)), SPEC)
        alone.append(country_arrays(ds, SPEC).coefficients)
    for name, stats in report.slots.items():
        medians = [float(np.median(c[:, SPEC.design_columns.index(name)])) for c in alone]
        assert stats.mean_estimate == math.fsum(medians) / reps
        assert stats.truth == default_truths(P_POOL, SPEC)[name]
        assert stats.coverage == 0.0  # a NaN standard error covers nothing


def _mean_group_lr_fit(ds, spec, n, slots):
    """A toy block fit: each replication's mean-group lam / (1 - rho), with no standard error."""
    theta, _ = synth_lab._mean_group_fit(ds, spec, n, ("dln_cpi_lag1", "dln_ulc"))
    lr = (theta[:, 1] / (1.0 - theta[:, 0]))[:, None]
    return lr, np.full(lr.shape, math.nan)


def test_a_slot_need_not_be_a_design_column(monkeypatch):
    monkeypatch.setitem(synth_lab.ESTIMATORS, "mg_lr", (_mean_group_lr_fit, lambda p, spec: {"lr": p.lam / (1 - p.rho)}))
    reps = BLOCK_REPS + 3  # two blocks
    report = monte_carlo(P_POOL, SPEC, reps=reps, estimator="mg_lr")
    assert "lr" not in SPEC.design_columns
    [(name, stats)] = report.slots.items()
    assert (name, stats.truth) == ("lr", P_POOL.lam / (1 - P_POOL.rho))
    alone = [long_run_effect(mg_of(materialize_design(generate_panel(P_POOL, seed=(P_POOL.seed, r)), SPEC)),
                             "dln_ulc", "dln_cpi_lag1")[0] for r in range(reps)]
    assert stats.mean_estimate == math.fsum(alone) / reps
    assert stats.coverage == 0.0
    # the table's own entries report exactly their slots, with their truths
    want = {"mg": {"dln_cpi_lag1": 0.4, "dln_ulc": 0.25, "const": 0.01}, "pooled_fe": {"dln_cpi_lag1": 0.4, "dln_ulc": 0.25}}
    for estimator, truths in want.items():
        assert ESTIMATORS[estimator][1](P_POOL, SPEC) == truths
        slots = monte_carlo(P_POOL, SPEC, reps=2, estimator=estimator).slots
        assert {name: stats.truth for name, stats in slots.items()} == truths


def test_monte_carlo_names_an_estimator_with_no_slots_before_any_block(inline_pool):
    # no lag and no cost term: pooled_fe's only default truth would be the constant it does not estimate
    spec = ModelSpec(
        dependent=Term("dln_cpi", TransformSpec.log_diff("cpi")),
        regressors=(Term("output_gap", TransformSpec.identity("output_gap"), role="control"),),
    )
    with pytest.raises(InvalidParamsError, match="^no slots with known true values$"):
        monte_carlo(P_POOL, spec, reps=2 * BLOCK_REPS, estimator="pooled_fe", n_jobs=2)
    assert _InlinePool.sizes == [] and _InlinePool.tasks == []


def test_monte_carlo_keeps_its_pool_for_calls_of_the_same_size(inline_pool):
    monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    kept = pools._pool
    monte_carlo(P_POOL, SPEC, reps=3, n_jobs=2)  # one block: runs in this process
    assert monte_carlo(P_POOL, SPEC, reps=3 * BLOCK_REPS, n_jobs=2) == monte_carlo(P_POOL, SPEC, reps=3 * BLOCK_REPS)
    assert _InlinePool.sizes == [2]
    assert _InlinePool.shutdowns == []
    assert pools._pool is kept


def test_monte_carlo_resizes_its_pool_for_another_worker_count(inline_pool):
    monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    monte_carlo(P_POOL, SPEC, reps=3 * BLOCK_REPS, n_jobs=3)
    assert _InlinePool.sizes == [2, 3]
    assert [workers for workers, _ in _InlinePool.shutdowns] == [2]
    assert pools._pool[1] == 3 and not pools._pool[2].closed


def test_monte_carlo_discards_a_pool_that_raised(inline_pool, monkeypatch):
    monkeypatch.setattr(pools, "ProcessPoolExecutor", _FailingPool)
    with pytest.raises(BrokenProcessPool, match="a worker died"):
        monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    assert pools._pool is None
    assert _InlinePool.shutdowns == [(2, True)]
    monkeypatch.setattr(pools, "ProcessPoolExecutor", _InlinePool)
    report = monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    assert _InlinePool.sizes == [2, 2]
    assert report == monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS)


def test_monte_carlo_never_reuses_a_pool_from_another_process(inline_pool):
    monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    pid, workers, inherited = pools._pool
    pools._pool = (pid + 1, workers, inherited)  # as a child of os.fork finds its parent's pool
    monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    assert _InlinePool.sizes == [2, 2]
    assert _InlinePool.shutdowns == []  # the parent's pool is the parent's to shut down
    assert pools._pool[0] == os.getpid() and pools._pool[2] is not inherited


def test_a_fork_of_the_pool_owner_runs_the_same_monte_carlo(passes_in_a_fork):
    p = DgpParams(seed=42)
    serial = monte_carlo(p, SPEC, reps=2 * BLOCK_REPS)
    monte_carlo(p, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)  # this process now holds a kept pool
    assert pools._pool[:2] == (os.getpid(), 2)
    passes_in_a_fork(lambda: monte_carlo(p, SPEC, reps=2 * BLOCK_REPS, n_jobs=2) == serial)


def test_a_pool_forked_after_blas_threads_ran_gives_the_serial_report(passes_in_a_fork):
    p = DgpParams(seed=43)
    serial = monte_carlo(p, SPEC, reps=2 * BLOCK_REPS)

    def check():
        a = np.random.default_rng(0).normal(size=(512, 512))
        a @ a  # a product this size starts OpenBLAS's threads in this process
        pools.discard()
        return monte_carlo(p, SPEC, reps=2 * BLOCK_REPS, n_jobs=2) == serial

    passes_in_a_fork(check)


MC_SCRIPT = """
from passthru import pools
from passthru.mg_panel import build_passthrough_spec
from passthru.synth_lab import DgpParams, monte_carlo

monte_carlo(DgpParams(seed=3), build_passthrough_spec("cpi", "ulc"), reps=50, n_jobs=2)
print(*pools._pool[2]._processes)
"""


def test_a_script_with_a_monte_carlo_pool_and_no_main_guard_exits_cleanly(script_exits_cleanly):
    # run as a file, not `python -c`: a start method that re-runs the main module re-runs a file only
    script_exits_cleanly(MC_SCRIPT)


def test_monte_carlo_calls_from_threads_take_turns_on_the_pool(inline_pool):
    serial = monte_carlo(P_POOL, SPEC, reps=3 * BLOCK_REPS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as threads:
            calls = [threads.submit(monte_carlo, P_POOL, SPEC, reps=3 * BLOCK_REPS, n_jobs=n) for n in [2, 3] * 4]
            reports = [call.result(timeout=120) for call in calls]
    finally:
        sys.setswitchinterval(interval)
    assert all(report == serial for report in reports)


@pytest.mark.parametrize("estimator", ["ols", "MG", "", ["mg"]])
def test_monte_carlo_names_an_unknown_estimator_before_any_block(inline_pool, estimator):
    with pytest.raises(InvalidParamsError, match=f"^unknown estimator {re.escape(repr(estimator))}$"):
        monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, estimator=estimator, n_jobs=2)
    assert _InlinePool.sizes == [] and _InlinePool.tasks == []


def test_monte_carlo_rejects_a_pooled_fe_constant_truth_before_any_block():
    # pooled_fe's slots leave out the constant, which the within transform absorbs, and mg's hold it
    assert "const" not in monte_carlo(P_POOL, SPEC, reps=2, estimator="pooled_fe").slots
    assert "const" in monte_carlo(P_POOL, SPEC, reps=2).slots


def test_pooled_fe_names_a_regressor_the_within_transform_drops():
    # with no cost shocks, cost growth is zero everywhere: constant within every country
    p = DgpParams(n_countries=5, n_years=20, cost_sd=0.0, seed=1)
    with pytest.raises(MgError, match=r"^pooled fixed effects: within transform drops dln_ulc, constant in every"):
        monte_carlo(p, SPEC, reps=2, estimator="pooled_fe")
    with pytest.raises(TooFewCountriesError):  # as mg fails on the same panel, by name
        monte_carlo(p, SPEC, reps=2, estimator="mg")


@st.composite
def small_dgps(draw) -> DgpParams:
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False)  # noqa: E731
    return DgpParams(
        n_countries=draw(st.integers(2, 5)),
        n_years=draw(st.integers(10, 24)),
        rho=draw(floats(-0.9, 0.9)),
        lam=draw(floats(-0.5, 0.5)),
        # up to 1.0: a rho_i outside the stationary bound is often redrawn
        sigma_mu1=draw(st.sampled_from([0.0, 0.1, 0.6, 1.0])),
        sigma_mu2=draw(st.sampled_from([0.0, 0.1])),
        alpha_sd=draw(st.sampled_from([0.0, 0.005])),
        sigma_eps=draw(floats(0.001, 0.05)),
        cost_ar=draw(floats(-0.9, 0.9)),
        lambda_schedule=draw(st.one_of(st.none(), st.lists(floats(-0.5, 0.5), min_size=1, max_size=3).map(tuple))),
        burn_in=draw(st.integers(0, 30)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=40, deadline=None)
@given(p=small_dgps(), seed=st.integers(0, 2**32))
def test_generate_panel_matches_the_per_country_reference(p, seed):
    ds, rho, mu2, alpha = synth_lab._simulate(p, {"": seed})
    values, expected_truths = simulate_panel(p, seed)
    assert ds == generate_panel(p, seed=seed)
    assert np.array_equal(ds.complete_cells(["cpi", "ulc", "kof", "em6", "em10"])[0], values)
    assert list(zip(rho.tolist(), (p.lam + mu2).tolist(), alpha.tolist())) == expected_truths


def test_one_stacked_call_takes_both_draw_paths():
    # rho 0.9 with sigma_mu1 0.3: some seeds draw a rho_i outside the stationary bound
    p = DgpParams(n_countries=4, n_years=12, rho=0.9, sigma_mu1=0.3, sigma_mu2=0.1, alpha_sd=0.005, burn_in=5)
    seeds = range(12)
    m, row = p.n_countries, 3 + 2 * (p.burn_in + p.n_years) + 4 * p.n_years
    # a seed redraws when a rho_i of one draw of all its countries' rows leaves the bound
    first_rho = [p.rho + 0.3 * np.random.default_rng(seed).standard_normal((m, row))[:, 0] for seed in seeds]
    redrawn = [bool(np.any(np.abs(rho) >= 0.95)) for rho in first_rho]
    assert any(redrawn) and not all(redrawn)

    ds, rho, mu2, alpha = synth_lab._simulate(p, {f"S{seed}:": seed for seed in seeds})
    values = ds.complete_cells(["cpi", "ulc", "kof", "em6", "em10"])[0]
    for k, seed in enumerate(seeds):
        expected_values, expected_truths = simulate_panel(p, seed)
        rows = slice(k * m, (k + 1) * m)
        assert np.array_equal(values[:, rows], expected_values)
        assert list(zip(rho[rows].tolist(), (p.lam + mu2[rows]).tolist(), alpha[rows].tolist())) == expected_truths
        assert np.array_equal(rho[rows], first_rho[k]) != redrawn[k]


@settings(max_examples=30, deadline=None)
@given(p=small_dgps(), reps=st.integers(1, 8), data=st.data())
def test_any_split_into_blocks_gives_each_replication_its_own_fit(p, reps, data):
    cuts = sorted(data.draw(st.sets(st.integers(1, reps - 1), max_size=reps - 1)) if reps > 1 else set())
    blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, reps])]
    slots = ("dln_cpi_lag1", "dln_ulc")
    for estimator in ("mg", "pooled_fe"):
        found = [_block(p, SPEC, slots, ESTIMATORS[estimator][0], block) for block in blocks]
        estimates, ses = (np.concatenate(parts) for parts in zip(*found))
        assert estimates.shape == ses.shape == (reps, len(slots))
        for rep in range(reps):
            ds = materialize_design(generate_panel(p, seed=(p.seed, rep)), SPEC)
            if estimator == "mg":
                alone = mg_of(ds)
                assert estimates[rep].tolist() == [alone.coef(name) for name in slots]
                assert ses[rep].tolist() == [alone.se[alone.columns.index(name)] for name in slots]
            else:
                alone = pooled_fixed_effects(ds, SPEC)
                assert estimates[rep].tolist() == [alone.coef(name) for name in slots]
                assert ses[rep].tolist() == [alone.se_classical(name) for name in slots]


@pytest.mark.parametrize("estimator", ["mg", "pooled_fe"])
@pytest.mark.parametrize(("p", "redraws"), [
    # rho 0.9 with sigma_mu1 0.3: some replications redraw a rho_i outside the stationary bound
    (DgpParams(n_countries=4, n_years=12, rho=0.9, sigma_mu1=0.3, burn_in=5, seed=3), True),
    (DgpParams(n_countries=4, n_years=30, lambda_schedule=(0.3, 0.2, 0.1), seed=4), False),
])
def test_a_block_builds_the_cells_and_design_of_each_full_panel(monkeypatch, p, redraws, estimator):
    built = []
    monkeypatch.setattr(synth_lab, "materialize_design", lambda ds, spec: built.append(materialize_design(ds, spec)) or built[-1])
    reps, m, slots = 6, p.n_countries, ("dln_cpi_lag1", "dln_ulc")
    width = 2 + 2 * (p.burn_in + p.n_years) + 4 * p.n_years  # rho_i and mu2_i, then the series draws
    first = [np.random.default_rng((p.seed, r)).standard_normal(m * width)[::width] for r in range(reps)]
    assert any(np.any(np.abs(p.rho + p.sigma_mu1 * z) >= 0.95) for z in first) == redraws
    estimates, ses = _block(p, SPEC, slots, ESTIMATORS[estimator][0], range(reps))
    assert estimates.shape == ses.shape == (reps, len(slots))
    [ds] = built
    layers = ("cpi", "ulc", "dln_cpi", "dln_cpi_lag1", "dln_ulc")
    assert ds.variables == layers  # only the series the spec reads, then its design
    for r in range(reps):
        full = materialize_design(generate_panel(p, seed=(p.seed, r)), SPEC)
        for name in layers:
            values, observed = ds.complete_cells([name])
            want_values, want_observed = full.complete_cells([name])
            assert np.array_equal(values[:, r * m:(r + 1) * m], want_values, equal_nan=True)
            assert np.array_equal(observed[r * m:(r + 1) * m], want_observed)
        if estimator == "mg":
            alone = mg_of(full)
            assert estimates[r].tolist() == [alone.coef(name) for name in slots]
            assert ses[r].tolist() == [alone.se[alone.columns.index(name)] for name in slots]
        else:
            alone = pooled_fixed_effects(full, SPEC)
            assert estimates[r].tolist() == [alone.coef(name) for name in slots]
            assert ses[r].tolist() == [alone.se_classical(name) for name in slots]


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
    reps = 150
    hits = 0
    for rep in range(reps):
        ds = generate_panel(p, seed=(p.seed, rep))
        mat = materialize_design(ds, SPEC)
        r = mg_of(mat)
        hits += abs(r.coef("dln_ulc") - 0.25) < 2.0 * r.se[r.columns.index("dln_ulc")]
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

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import sys
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import simulate_panel
from passthru import synth_lab
from passthru.mg_panel import (
    build_passthrough_spec,
    fit_countries,
    fit_country,
    materialize_design,
    mean_group,
    pooled_fixed_effects,
)
from passthru.panel_data import TransformSpec, apply_transform
from passthru.synth_lab import (
    BLOCK_REPS,
    DgpParams,
    Z90,
    InvalidParamsError,
    _ar1,
    _block,
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
    for name in ("rho", "lam", "sigma_mu1", "sigma_mu2", "alpha_mean", "alpha_sd", "sigma_eps", "cost_ar", "cost_sd"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParamsError, match=f"^{name} must be finite"):
                DgpParams(**{name: value})
    with pytest.raises(InvalidParamsError, match=r"^lambda_schedule\[1\] must be finite, got nan"):
        DgpParams(lambda_schedule=(0.1, math.nan))


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


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records starts and shutdowns, runs the tasks in this process."""

    sizes: list[int] = []  # max_workers of each pool started
    shutdowns: list[tuple[int, bool]] = []  # (max_workers, cancel_futures) of each shutdown

    def __init__(self, max_workers, mp_context):
        self.max_workers = max_workers
        self.closed = False
        self.sizes.append(max_workers)

    def map(self, fn, items):
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
    synth_lab._discard_pool()
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "shutdowns", [])
    monkeypatch.setattr(synth_lab, "ProcessPoolExecutor", _InlinePool)
    yield
    synth_lab._discard_pool()


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


def test_monte_carlo_keeps_its_pool_for_calls_of_the_same_size(inline_pool):
    monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    kept = synth_lab._pool
    monte_carlo(P_POOL, SPEC, reps=3, n_jobs=2)  # one block: runs in this process
    assert monte_carlo(P_POOL, SPEC, reps=3 * BLOCK_REPS, n_jobs=2) == monte_carlo(P_POOL, SPEC, reps=3 * BLOCK_REPS)
    assert _InlinePool.sizes == [2]
    assert _InlinePool.shutdowns == []
    assert synth_lab._pool is kept


def test_monte_carlo_resizes_its_pool_for_another_worker_count(inline_pool):
    monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    monte_carlo(P_POOL, SPEC, reps=3 * BLOCK_REPS, n_jobs=3)
    assert _InlinePool.sizes == [2, 3]
    assert [workers for workers, _ in _InlinePool.shutdowns] == [2]
    assert synth_lab._pool[1] == 3 and not synth_lab._pool[2].closed


def test_monte_carlo_discards_a_pool_that_raised(inline_pool, monkeypatch):
    monkeypatch.setattr(synth_lab, "ProcessPoolExecutor", _FailingPool)
    with pytest.raises(BrokenProcessPool, match="a worker died"):
        monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    assert synth_lab._pool is None
    assert _InlinePool.shutdowns == [(2, True)]
    monkeypatch.setattr(synth_lab, "ProcessPoolExecutor", _InlinePool)
    report = monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    assert _InlinePool.sizes == [2, 2]
    assert report == monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS)


def test_monte_carlo_never_reuses_a_pool_from_another_process(inline_pool):
    monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    pid, workers, inherited = synth_lab._pool
    synth_lab._pool = (pid + 1, workers, inherited)  # as a child of os.fork finds its parent's pool
    monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, n_jobs=2)
    assert _InlinePool.sizes == [2, 2]
    assert _InlinePool.shutdowns == []  # the parent's pool is the parent's to shut down
    assert synth_lab._pool[0] == os.getpid() and synth_lab._pool[2] is not inherited


def test_monte_carlo_runs_its_blocks_itself_in_a_fork_of_the_forkserver_owner():
    p = DgpParams(seed=42)
    serial = monte_carlo(p, SPEC, reps=20)
    monte_carlo(p, SPEC, reps=20, n_jobs=2)  # this process now owns the forkserver
    pid = os.fork()
    if pid == 0:  # the child must leave through os._exit, whatever happens
        code = 1
        try:
            code = 0 if monte_carlo(p, SPEC, reps=20, n_jobs=2) == serial else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 120
    while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if ended[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 120 s")
    assert os.waitstatus_to_exitcode(ended[1]) == 0


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


@pytest.mark.parametrize("estimator", ["mg", "pooled_fe"])
def test_monte_carlo_names_an_unknown_truths_slot_before_any_block(inline_pool, estimator):
    with pytest.raises(InvalidParamsError, match="truths: unknown slot 'x'"):
        monte_carlo(P_POOL, SPEC, reps=2 * BLOCK_REPS, truths={"dln_ulc": 0.25, "x": 1.0},
                    estimator=estimator, n_jobs=2)
    assert _InlinePool.sizes == []


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
    ds, truths = generate_panel(p, seed=seed, return_truth=True)
    values, expected_truths = simulate_panel(p, seed)
    assert np.array_equal(ds.complete_cells(["cpi", "ulc", "kof", "em6", "em10"])[0], values)
    assert [(t.rho_i, t.lam_i, t.alpha_i) for t in truths] == expected_truths


@settings(max_examples=30, deadline=None)
@given(p=small_dgps(), reps=st.integers(1, 8), data=st.data())
def test_any_split_into_blocks_gives_each_replication_its_own_fit(p, reps, data):
    cuts = sorted(data.draw(st.sets(st.integers(1, reps - 1), max_size=reps - 1)) if reps > 1 else set())
    blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, reps])]
    slots = ("dln_cpi_lag1", "dln_ulc")
    for estimator in ("mg", "pooled_fe"):
        stacked = [r for block in blocks for r in _block(p, SPEC, slots, estimator, block)]
        for rep, got in enumerate(stacked):
            ds = materialize_design(generate_panel(p, seed=(p.seed, rep)), SPEC)
            if estimator == "mg":
                alone = mean_group(fit_countries(ds, SPEC))
                assert got == {name: (alone.coef(name), alone.se_of(name)) for name in slots}
            else:
                alone = pooled_fixed_effects(ds, SPEC)
                assert got == {name: (alone.coef(name), alone.se_classical(name)) for name in slots}


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
    with pytest.raises(InvalidParamsError, match="^dgp.lambda_schedule: cannot parse 'abc'$"):
        dgp_params_from_mapping({"dgp.lambda_schedule": "0.1, abc"})


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

"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import assert_same_tree, bf_fit_tree, ols_normal_equations
from passthru import tree_forest
from passthru.cli_report import main, render_table, second_stage_table
from passthru.mg_panel import (
    MgResult,
    PassThroughPanel,
    build_passthrough_spec,
    estimate_decade_passthroughs,
    long_run_effect,
)
from passthru.panel_data import DecadeWindow
from passthru.regression_core import DesignMatrix, ols_fit
from passthru.second_stage import second_stage_fit, table5_results
from passthru.synth_lab import DgpParams, generate_panel, monte_carlo
from passthru.tree_forest import (
    AxisSpec,
    SplitParams,
    fit_forest,
    fit_tree,
    importance,
    partial_dependence,
)


def report(number: int, detail: str, elapsed: float, budget: float) -> None:
    print(f"[PASS] criterion {number}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s runtime budget"


# ---------------------------------------------------------------------------
# 1. Decade medians of the bundled covariate fixture, bit-for-bit.

def test_criterion_1_fig2_medians(tmp_path):
    start = time.perf_counter()
    rc = main(["preset", "fig2", "--out", str(tmp_path), "--format", "json"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    payload = json.loads((tmp_path / "medians.json").read_text())
    cells = {
        (row["label"], col): cell["estimate"]
        for row in payload["rows"]
        for col, cell in zip(payload["columns"], row["cells"])
    }
    expected = {
        ("1980s", "em6"): 0.0041, ("2010s", "em6"): 0.02855,
        ("1980s", "em10"): 0.0058, ("2010s", "em10"): 0.0442,
    }
    for key, value in expected.items():
        assert cells[key] == pytest.approx(value, abs=1e-12), key
    report(1, "EM-6 medians 0.0041 -> 0.02855, EM-10 0.0058 -> 0.0442", elapsed, 1.0)


# ---------------------------------------------------------------------------
# 2. Long-run identity against every published (persistence, cost) pair.

PUBLISHED_LT_CELLS = [
    (0.507, 0.124, 0.252), (0.297, 0.276, 0.394), (0.357, 0.247, 0.385),
    (-0.169, 0.064, 0.055), (0.385, -0.002, -0.003),
    (0.588, 0.143, 0.348), (0.319, 0.246, 0.361), (0.411, 0.280, 0.476),
    (0.081, 0.036, 0.039), (0.278, 0.024, 0.034),
    (0.560, 0.095, 0.216), (0.442, 0.200, 0.357), (0.151, -0.015, -0.018),
    (0.235, 0.001, 0.002),
]


def test_criterion_2_long_run_identity():
    start = time.perf_counter()
    worst = 0.0
    for rho, lam, printed in PUBLISHED_LT_CELLS:
        r = MgResult(
            columns=("rho", "lam"),
            coefficients=np.array([rho, lam]),
            covariance=np.zeros((2, 2)),
            se=np.zeros(2),
            n_countries=2,
            total_obs=0,
            sigma_pooled=0.0,
        )
        value, _ = long_run_effect(r, "lam", "rho")
        assert value == pytest.approx(lam / (1.0 - rho), abs=1e-12)
        worst = max(worst, abs(value - printed))
        assert abs(value - printed) <= 0.002, (rho, lam, printed, value)
    report(2, f"14 published long-run cells within +/-0.002 (worst {worst:.4f})",
           time.perf_counter() - start, 5.0)


# ---------------------------------------------------------------------------
# 3. Monte Carlo recovery of the cost coefficient with honest coverage.

def test_criterion_3_monte_carlo_recovery():
    start = time.perf_counter()
    spec = build_passthrough_spec("cpi", "ulc")
    params = DgpParams(
        n_countries=21, n_years=40, rho=0.4, lam=0.25,
        sigma_mu1=0.1, sigma_mu2=0.1, sigma_eps=0.01, seed=42,
    )
    outcome = monte_carlo(params, spec, reps=500)
    stats = outcome.slots["dln_ulc"]
    assert abs(stats.bias) < 0.01, stats
    assert 0.85 <= stats.coverage <= 0.95, stats
    report(3, f"bias {stats.bias:+.4f}, 90% coverage {stats.coverage:.3f} over 500 reps",
           time.perf_counter() - start, 60.0)


# ---------------------------------------------------------------------------
# 4. Decade-by-decade recovery of a falling pass-through schedule.

def test_criterion_4_decade_decline_shape():
    start = time.perf_counter()
    schedule = (0.25, 0.25, 0.05, 0.0)
    spec = build_passthrough_spec("cpi", "ulc")
    params = DgpParams(
        n_countries=21, n_years=40, sigma_mu1=0.1, sigma_mu2=0.1,
        sigma_eps=0.01, lambda_schedule=schedule, seed=42,
    )
    windows = [DecadeWindow(1980 + 10 * j) for j in range(4)]
    reps = 200
    sums = np.zeros(4)
    for rep in range(reps):
        ds = generate_panel(params, seed=(params.seed, rep))
        panel = estimate_decade_passthroughs(ds, spec, windows)
        for j, w in enumerate(windows):
            sums[j] += float(np.mean(panel.passthrough[np.array(panel.decade) == w.label]))
    means = sums / reps
    errors = means - np.array(schedule)
    assert np.all(np.abs(errors) < 0.03), means
    report(4, f"decade means {np.round(means, 4).tolist()} track {schedule}",
           time.perf_counter() - start, 60.0)


# ---------------------------------------------------------------------------
# 5. Least-squares engine vs an explicit normal-equations oracle.

def test_criterion_5_ols_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(6, 51))
        k = int(rng.integers(1, 6))
        if n <= k:
            continue
        x = rng.normal(size=(n, k)) * rng.uniform(0.1, 10.0, size=k)
        if rng.random() < 0.5:
            x[:, 0] = 1.0
        sv = np.linalg.svd(x, compute_uv=False)
        if sv[-1] == 0.0 or sv[0] / sv[-1] >= 1e6:
            continue
        y = rng.normal(size=n)
        fit = ols_fit(DesignMatrix(x, y, tuple(f"c{j}" for j in range(k))))
        expected = ols_normal_equations(x, y)
        scale = np.maximum(np.abs(expected), 1e-12)
        assert np.all(np.abs(fit.coefficients - expected) / scale < 1e-9)
        checked += 1
    report(5, "1000 random designs match (X'X)^-1 X'y to 1e-9 relative",
           time.perf_counter() - start, 10.0)


# ---------------------------------------------------------------------------
# 6. Tree growth vs the exhaustive brute-force enumerator, node for node.

def test_criterion_6_tree_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for trial in range(200):
        n = int(rng.integers(4, 41))
        k = int(rng.integers(1, 4))
        x = rng.normal(size=(n, k))
        if trial % 4 == 0:
            x = np.round(x, 1)  # deliberate ties
        y = rng.normal(size=n)
        min_leaf = int(rng.integers(1, 6))
        tree = fit_tree(x, y, SplitParams(min_leaf=min_leaf))
        assert_same_tree(tree, bf_fit_tree(x, y, min_leaf), path=f"trial{trial}")
    report(6, "200 random datasets match the brute-force tree node for node",
           time.perf_counter() - start, 30.0)


# ---------------------------------------------------------------------------
# 7. Forest determinism across tree batches, and the subsample contract.

def test_criterion_7_forest_determinism_and_bagging(monkeypatch):
    start = time.perf_counter()
    rng = np.random.default_rng(58)
    n = 58
    x = np.column_stack([rng.uniform(0.002, 0.06, n), rng.uniform(0.005, 0.05, n)])
    y = np.where(x[:, 0] < 0.01, 0.4, 0.05) + rng.normal(0, 0.03, n)
    axes = (
        AxisSpec(float(x[:, 0].min()), float(x[:, 0].max()), 50),
        AxisSpec(float(x[:, 1].min()), float(x[:, 1].max()), 50),
    )
    grids = []
    expected_m = math.ceil(2 * n / 3)
    # trees grown together: the pair budget caps a batch at budget // m trees;
    # one batch per worker on 2 CPUs, batches of 6 or 7 on 2, and all in one
    batches = {"500": (tree_forest._ROUTE_PAIRS, 2), "7": (7 * expected_m, 2), "1000": (1000 * expected_m, 1)}
    for budget, cpus in batches.values():
        monkeypatch.setattr(tree_forest, "_ROUTE_PAIRS", budget)
        monkeypatch.setattr(tree_forest, "usable_cpus", lambda cpus=cpus: cpus)
        forest = fit_forest(x, y, n_trees=1000, seed=99)
        grids.append(partial_dependence(forest, axes).to_csv().encode())
        for idx in forest.row_indices:
            assert len(np.unique(idx)) == expected_m == len(idx)
    assert grids[0] == grids[1] == grids[2]
    report(7, f"byte-identical 50x50 grids for batches of {'/'.join(batches)} trees; "
           "all subsamples ceil(2n/3) distinct rows",
           time.perf_counter() - start, 30.0)


# ---------------------------------------------------------------------------
# 8. Qualitative importance and partial-dependence shape on a dominant-openness rule.

def test_criterion_8_importance_and_pd_shapes():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    n = 58
    openness = rng.uniform(0.002, 0.06, n)
    inflation = rng.uniform(0.005, 0.05, n)
    base = np.where(openness < 0.01, 0.4, 0.05 * (inflation > 0.02) * (inflation - 0.02) / 0.01)
    lam = base + rng.normal(0.0, 0.03, n)
    x = np.column_stack([openness, inflation])

    tree = fit_tree(x, lam, feature_names=("openness", "inflation"))
    shares = importance(tree)
    ratio = shares.share("openness") / max(shares.share("inflation"), 1e-12)
    assert ratio >= 3.0, ratio

    forest = fit_forest(x, lam, n_trees=1000, seed=3, feature_names=("openness", "inflation"))
    axes = (
        AxisSpec(float(openness.min()), float(openness.max()), 50),
        AxisSpec(float(inflation.min()), float(inflation.max()), 50),
    )
    grid = partial_dependence(forest, axes, slices=[("openness", 0.045)])
    curve = grid.slices[0]
    low_side = curve.predictions[curve.along_values <= 0.02]
    high_side = curve.predictions[curve.along_values > 0.02]
    assert float(low_side.max()) < 0.1, "pass-through should stay low below 2% inflation"
    assert float(high_side.max()) > 0.1, "pass-through should rise above 0.1 beyond 2% inflation"
    report(8, f"openness/inflation importance ratio {ratio:.1f} >= 3; "
              f"high-openness curve crosses 0.1 only beyond 2% inflation",
           time.perf_counter() - start, 60.0)


# ---------------------------------------------------------------------------
# 9. Second-stage fixed-effects contract and the rendered table layout.

def test_criterion_9_second_stage_contract():
    start = time.perf_counter()
    countries = ("AT", "US", "JP", "SE", "FR")
    offsets = (0.05, -0.02, 0.11, 0.0, -0.07)
    rows = []
    for i, country in enumerate(countries):
        for d, decade in enumerate(("1980s", "1990s", "2000s", "2010s")):
            em6 = 0.004 * (1 + i) * 1.7**d
            rows.append((
                country, decade, offsets[i] - 0.15 * math.log(em6),
                0.6 + 0.01 * i + 0.05 * d, em6, 1.4 * em6, 0.05 - 0.01 * d,
            ))
    country, decade, passthrough, *covariates = zip(*rows)
    names = ("kof", "em6", "em10", "avg_inflation")
    panel = PassThroughPanel(country, decade, np.array(passthrough), dict(zip(names, map(np.array, covariates))))
    fe = second_stage_fit(panel, "em6", fe=True)
    assert fe.coefficient == pytest.approx(-0.15, abs=1e-8)

    table = second_stage_table(table5_results(panel))
    assert table.columns == ("(I)", "(II)", "(III)", "(IV)", "(V)", "(VI)")
    labels = [row.label for row in table.rows]
    assert labels == [
        "constant",
        "ln (globalisation index)",
        "ln (EM-6 import penetration)",
        "ln (EM-10 import penetration)",
        "observations",
        "country fixed effects",
        "R2",
        "R2 within",
        "R2 between",
    ]
    text = render_table(table, "text")
    assert "country fixed effects" in text
    fe_flags = [cell.text for cell in table.rows[5].cells]
    assert fe_flags == ["no", "yes", "no", "yes", "no", "yes"]
    report(9, "FE slope -0.15 recovered to 1e-8; six-column layout with R2 variants",
           time.perf_counter() - start, 1.0)

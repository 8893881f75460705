from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import cell, fe_dummy_ols, ols_normal_equations
from passthru.mg_panel import ModelSpec, Term, pooled_fixed_effects
from passthru.panel_data import PanelDataset, TransformSpec
from passthru.regression_core import (
    DegenerateVarianceError,
    DesignMatrix,
    RegressionError,
    ShapeMismatchError,
    SingularDesignError,
    TooFewRowsError,
    UnmappedRowError,
    ols_fit,
    ols_stack,
    r2_components,
    robust_cov,
    within_transform,
)


def design(x, y, names, **kwargs) -> DesignMatrix:
    return DesignMatrix(np.asarray(x, float), np.asarray(y, float), tuple(names), **kwargs)


# ---------------------------------------------------------------- ols_fit

def test_exact_line():
    x = np.arange(5.0)
    d = design(np.column_stack([np.ones(5), x]), 1.0 + 2.0 * x, ("const", "x"))
    fit = ols_fit(d)
    assert fit.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
    assert fit.sigma == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 1.0


def test_duplicated_column_is_singular():
    x = np.arange(5.0)
    d = design(np.column_stack([np.ones(5), x, x]), x, ("const", "a", "a_copy"))
    with pytest.raises(SingularDesignError) as err:
        ols_fit(d)
    assert "a_copy" in err.value.columns or "a" in err.value.columns


def test_exact_linear_combination_is_singular():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 3))
    combo = x[:, 0] - 2.0 * x[:, 1] + 0.5 * x[:, 2]
    d = design(np.column_stack([x, combo]), rng.normal(size=30), ("a", "b", "c", "combo"))
    with pytest.raises(SingularDesignError) as err:
        ols_fit(d)
    assert err.value.columns == ("combo",)


def test_too_few_rows():
    with pytest.raises(TooFewRowsError):
        ols_fit(design(np.ones((2, 3)), np.zeros(2), ("a", "b", "c")))


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(8, 50))
        k = int(rng.integers(1, 5))
        x = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        y = rng.normal(size=n)
        d = design(x, y, ("const", *[f"x{j}" for j in range(k)]))
        expected = ols_normal_equations(x, y)
        got = ols_fit(d).coefficients
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)


def test_residuals_orthogonal_and_mean_zero():
    rng = np.random.default_rng(3)
    x = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
    y = rng.normal(size=40) * 5.0 + 2.0
    fit = ols_fit(design(x, y, ("const", "a", "b")))
    assert np.max(np.abs(x.T @ fit.residuals)) <= 1e-8 * max(1.0, np.abs(y).max())
    assert abs(fit.residuals.mean()) <= 1e-10 * y.std()
    assert 0.0 <= fit.r2 <= 1.0


def test_scale_equivariance():
    rng = np.random.default_rng(9)
    x = np.column_stack([np.ones(25), rng.normal(size=(25, 2))])
    y = rng.normal(size=25)
    base = ols_fit(design(x, y, ("const", "a", "b")))
    for c in (1e-6, 0.5, -3.0, 1e7):
        scaled = x.copy()
        scaled[:, 1] *= c
        fit = ols_fit(design(scaled, y, ("const", "a", "b")))
        assert fit.coef("a") == pytest.approx(base.coef("a") / c, rel=1e-10)
        assert np.allclose(fit.fitted, base.fitted, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------- ols_stack

@st.composite
def mixed_stacks(draw):
    """Stacks (G, n, k) whose slices are regular, have an all-zero column, or are collinear."""
    g, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    n = draw(st.integers(k, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(g, n, k)) * draw(st.sampled_from((1e-3, 1.0, 1e4)))
    for s, kind in enumerate(draw(st.lists(st.sampled_from(("regular", "zero", "collinear")), min_size=g, max_size=g))):
        j = int(rng.integers(k))
        if kind == "zero":
            x[s, :, j] = 0.0
        elif kind == "collinear" and k > 1:
            x[s, :, j] = x[s, :, (j + 1) % k] * rng.choice((-2.0, 0.5, 3.0))
    return x, rng.normal(size=(g, n))


@settings(max_examples=150, deadline=None)
@given(stack=mixed_stacks())
def test_stack_slices_equal_ols_fit_and_single_slice_stacks(stack):
    x, y = stack
    ok, coef, fitted, r = ols_stack(x, y)
    for g in range(x.shape[0]):
        try:
            fit = ols_fit(design(x[g], y[g], [f"c{j}" for j in range(x.shape[2])]))
        except SingularDesignError:
            assert not ok[g]
            assert np.isnan(coef[g]).all() and np.isnan(fitted[g]).all() and np.isnan(r[g]).all()
            continue
        assert ok[g]
        assert coef[g].tobytes() == fit.coefficients.tobytes()
        assert fitted[g].tobytes() == fit.fitted.tobytes()
        alone = ols_stack(x[g][None], y[g][None])
        assert r[g].tobytes() == alone[3][0].tobytes()


def test_stack_rejects_too_few_rows():
    with pytest.raises(TooFewRowsError):
        ols_stack(np.random.default_rng(0).random((2, 2, 3)), np.zeros((2, 2)))


def test_stack_rejects_mismatched_shapes():
    rng = np.random.default_rng(1)
    with pytest.raises(ShapeMismatchError):
        ols_stack(rng.random((2, 5, 2)), rng.random((2, 4)))
    with pytest.raises(ShapeMismatchError):
        ols_stack(rng.random((5, 2)), rng.random(5))


def test_stack_rejects_non_finite_cells():
    x, y = np.random.default_rng(2).random((2, 5, 2)), np.zeros((2, 5))
    x[1, 3, 0] = np.nan
    with pytest.raises(RegressionError, match="non-finite"):
        ols_stack(x, y)
    y[0, 0] = np.inf
    with pytest.raises(RegressionError, match="non-finite"):
        ols_stack(np.ones((2, 5, 1)), y)


# ---------------------------------------------------------------- robust_cov

def test_robust_cov_matches_hand_sandwich():
    # X = [[1,0],[1,1],[1,2]], y = [0,1,1]: residuals (-1/6, 1/3, -1/6),
    # HC1 = 3 * (X'X)^-1 X' diag(e^2) X (X'X)^-1 = [[7/72, -1/24], [-1/24, 1/24]]
    d = design([[1, 0], [1, 1], [1, 2]], [0, 1, 1], ("const", "x"))
    fit = ols_fit(d)
    expected = np.array([[7 / 72, -1 / 24], [-1 / 24, 1 / 24]])
    assert np.allclose(robust_cov(fit, d), expected, rtol=0, atol=1e-14)


def test_robust_cov_zero_residuals():
    x = np.arange(6.0)
    d = design(np.column_stack([np.ones(6), x]), 3.0 - x, ("const", "x"))
    fit = ols_fit(d)
    assert np.allclose(robust_cov(fit, d), 0.0, atol=1e-20)


def test_robust_close_to_classical_under_homoskedasticity():
    rng = np.random.default_rng(12)
    n = 10000
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = 1.0 + 0.5 * x[:, 1] + rng.normal(size=n)
    d = design(x, y, ("const", "x"))
    fit = ols_fit(d)
    se_classical = np.sqrt(np.diag(fit.cov_classical))
    se_robust = np.sqrt(np.diag(robust_cov(fit, d)))
    assert np.all(np.abs(se_robust / se_classical - 1.0) < 0.05)


def test_robust_equals_classical_when_squared_residuals_equal():
    # constant-only fit on +/- c residuals
    d = design(np.ones((4, 1)), [1.0, -1.0, 1.0, -1.0], ("const",))
    fit = ols_fit(d)
    assert np.allclose(robust_cov(fit, d), fit.cov_classical, rtol=1e-12)


def test_robust_cov_shape_mismatch():
    d = design([[1, 0], [1, 1], [1, 2]], [0, 1, 1], ("const", "x"))
    other = design([[1, 0], [1, 1]], [0, 1], ("const", "x"))
    fit = ols_fit(d)
    with pytest.raises(ShapeMismatchError):
        robust_cov(fit, other)


# ---------------------------------------------------------------- within

def test_within_single_entity_is_global_centering():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 1)) + 4.0
    y = rng.normal(size=12) + 7.0
    d = design(x, y, ("x",))
    demeaned = within_transform(d, ["only"] * 12)
    assert np.allclose(demeaned.x[:, 0], x[:, 0] - x[:, 0].mean())
    assert np.allclose(demeaned.y, y - y.mean())
    assert demeaned.absorbed_dof == 1


def test_within_absorbs_entity_constants():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 1))
    groups = ["a"] * 10 + ["b"] * 10
    y = 2.0 * x[:, 0] + np.where(np.array(groups) == "a", 5.0, -3.0) + rng.normal(0, 0.1, 20)
    base = ols_fit(within_transform(design(x, y, ("x",)), groups))
    shifted = y + np.where(np.array(groups) == "a", 11.0, -7.0)
    fit = ols_fit(within_transform(design(x, shifted, ("x",)), groups))
    assert fit.coef("x") == pytest.approx(base.coef("x"), abs=1e-10)


def test_within_matches_dummy_variable_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(24, 2))
    groups = ["a", "b", "c"] * 8
    y = 1.5 * x[:, 0] - 0.7 * x[:, 1] + rng.normal(size=24)
    fit = ols_fit(within_transform(design(x, y, ("x0", "x1")), groups))
    expected = fe_dummy_ols(x, y, groups)
    assert np.allclose(fit.coefficients, expected, atol=1e-10)


@st.composite
def unbalanced_panels(draw):
    """Rows of 2-7 entities with 1-9 rows each, in random order, with random slopes and effects."""
    sizes = draw(st.lists(st.integers(1, 9), min_size=2, max_size=7))
    assume(sum(sizes) - len(sizes) >= 4)  # enough within variation for two slopes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = [f"e{i}" for i, m in enumerate(sizes) for _ in range(m)]
    order = rng.permutation(len(groups))
    groups = [groups[i] for i in order]
    effects = {g: rng.normal(0.0, 5.0) for g in set(groups)}
    x = rng.normal(size=(len(groups), 2)) * draw(st.sampled_from((1e-2, 1.0, 1e2)))
    y = x @ rng.normal(size=2) + np.array([effects[g] for g in groups]) + rng.normal(0.0, 0.1, len(groups))
    return x, y, groups


@settings(max_examples=100, deadline=None)
@given(panel=unbalanced_panels())
def test_within_then_ols_matches_dummy_variable_oracle_on_unbalanced_panels(panel):
    x, y, groups = panel
    fit = ols_fit(within_transform(design(x, y, ("x0", "x1")), groups))
    assert fit.columns == ("x0", "x1")
    assert fit.dof == len(y) - 2 - len(set(groups))
    assert np.allclose(fit.coefficients, fe_dummy_ols(x, y, groups), rtol=1e-8, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(panel=unbalanced_panels(), year_seed=st.integers(0, 2**32 - 1))
def test_pooled_fixed_effects_matches_dummy_variable_oracle(panel, year_seed):
    x, y, groups = panel
    rng = np.random.default_rng(year_seed)
    entities = sorted(set(groups))
    used: dict[str, list[int]] = {g: [] for g in entities}
    values = np.full((3, len(entities), 20), np.nan)
    for (a, b), yy, g in zip(x.tolist(), y.tolist(), groups):
        year = 1990 + len(used[g]) * 2 + int(rng.integers(0, 2))  # gaps between rows
        used[g].append(year)
        values[:, entities.index(g), year - 1990] = yy, a, b
    spec = ModelSpec(
        dependent=Term("y", TransformSpec.identity("y")),
        regressors=(Term("a", TransformSpec.identity("a"), role="cost"), Term("b", TransformSpec.identity("b"))),
    )
    ds = PanelDataset(entities, range(1990, 2010), ("y", "a", "b"), values)
    rows = [(g, yr) for g in entities for yr in ds.years if cell(ds, "y", g, yr) is not None]
    xs = np.array([[cell(ds, "a", *r), cell(ds, "b", *r)] for r in rows])
    ys = np.array([cell(ds, "y", *r) for r in rows])
    fit = pooled_fixed_effects(ds, spec)
    assert fit.columns == ("a", "b")
    assert np.allclose(fit.coefficients, fe_dummy_ols(xs, ys, [g for g, _ in rows]), rtol=1e-8, atol=1e-10)


def test_within_drops_constant_column_and_counts_dof():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    groups = ["a"] * 5 + ["b"] * 5
    d = design(x, np.arange(10.0), ("const", "t"))
    demeaned = within_transform(d, groups)
    assert demeaned.columns == ("t",)
    assert demeaned.absorbed_dof == 2
    fit = ols_fit(demeaned)
    assert fit.dof == 10 - 1 - 2


def test_within_unmapped_row():
    d = design(np.column_stack([np.ones(3), np.arange(3.0)]), np.arange(3.0), ("const", "x"))
    for groups in (["a", "a"], ["a", "a", "b", "b"]):
        with pytest.raises(UnmappedRowError, match=f"^{len(groups)} entities for 3 rows$"):
            within_transform(d, groups)
    fit = ols_fit(within_transform(d, ["a", "a", "b"]))
    with pytest.raises(UnmappedRowError, match="^2 entities for 3 rows$"):
        r2_components(fit, d, ["a", "a"])


# ---------------------------------------------------------------- r2 components

def test_r2_within_perfect_fit():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(16, 1))
    groups = ["a"] * 8 + ["b"] * 8
    offsets = np.where(np.array(groups) == "a", rng.normal(), rng.normal())
    y = 2.0 * x[:, 0] + offsets  # exact within relation
    d = design(x, y, ("x",))
    fit = ols_fit(within_transform(d, groups))
    r2w, r2b = r2_components(fit, d, groups)
    assert r2w == pytest.approx(1.0, abs=1e-12)


def test_r2_within_degenerate_when_y_varies_only_across_entities():
    x = np.arange(12.0).reshape(-1, 1)
    groups = ["a"] * 6 + ["b"] * 6
    y = np.where(np.array(groups) == "a", 1.0, 2.0)
    d = design(x, y, ("x",))
    fit = ols_fit(within_transform(d, groups))
    with pytest.raises(DegenerateVarianceError):
        r2_components(fit, d, groups)


def test_r2_components_match_direct_correlations():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 1))
    groups = ["a", "b", "c"] * 10
    g = np.array(groups)
    offsets = np.select([g == "a", g == "b"], [1.0, -1.0], default=0.3)
    y = 0.8 * x[:, 0] + offsets + rng.normal(0, 0.5, 30)
    d = design(x, y, ("x",))
    fit = ols_fit(within_transform(d, groups))

    beta = fit.coefficients[0]
    yhat = beta * x[:, 0]

    def demean_by_group(v):
        out = v.astype(float).copy()
        for e in "abc":
            out[g == e] -= v[g == e].mean()
        return out

    r2w_expected = np.corrcoef(demean_by_group(yhat), demean_by_group(y))[0, 1] ** 2
    means_hat = np.array([yhat[g == e].mean() for e in "abc"])
    means_y = np.array([y[g == e].mean() for e in "abc"])
    r2b_expected = np.corrcoef(means_hat, means_y)[0, 1] ** 2
    assert 0.0 < r2b_expected < 1.0  # three entities make this informative

    r2w, r2b = r2_components(fit, d, groups)
    assert r2w == pytest.approx(r2w_expected, rel=1e-10)
    assert r2b == pytest.approx(r2b_expected, rel=1e-10)

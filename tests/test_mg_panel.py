from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passthru.mg_panel import (
    CountryArrays,
    Exclusion,
    MgError,
    MgResult,
    ModelSpec,
    NearUnitRootError,
    SingularCovarianceError,
    Term,
    TooFewCountriesError,
    UnknownCountryError,
    _chi2_sf,
    build_passthrough_spec,
    country_arrays,
    estimate_decade_passthroughs,
    fit_country,
    long_run_effect,
    materialize_design,
    mean_group,
    mean_group_moments,
    pooled_fixed_effects,
    wald_joint,
)
from oracles import mg_fsum
from passthru.panel_data import (
    DECADE_SCHEMA,
    DecadeWindow,
    NonPositiveForLogError,
    PanelDataError,
    PanelDataset,
    TransformSpec,
    apply_transform,
    load_decade_csv,
    table_a2_path,
)
from passthru.regression_core import DesignMatrix, SingularDesignError, ols_fit
from passthru.synth_lab import DgpParams, generate_panel


def make_fit(matrix, n_obs: int = 20) -> CountryArrays:
    """Usable fits, one per coefficient row, each of n_obs rows with ssr 0.001."""
    coefs = np.asarray(matrix, float)
    n = len(coefs)
    return CountryArrays(np.ones(n, bool), coefs, np.full(n, n_obs), np.full(n, n_obs - coefs.shape[1]),
                         np.full(n, 0.001), np.full(n, None))


def mg_from_matrix(matrix) -> MgResult:
    fits = make_fit(matrix)
    return mean_group(fits, ("const", *(f"b{j}" for j in range(fits.coefficients.shape[1] - 1))))


def mg_of(ds: PanelDataset, spec: ModelSpec) -> MgResult:
    return mean_group(country_arrays(ds, spec), spec.design_columns)


# ---------------------------------------------------------------- spec building

def test_spec_shapes():
    spec = build_passthrough_spec("core_cpi", "ulc", control="output_gap")
    assert spec.dependent.name == "dln_core_cpi"
    assert [t.role for t in spec.regressors] == ["lag_dep", "cost", "control"]
    assert spec.k == 4
    assert spec.min_obs_effective == 7
    assert spec.slot("cost") == "dln_ulc"

    both = build_passthrough_spec("cpi", "ulc", with_globalisation=True, with_lagged_inflation=True)
    names = [t.name for t in both.regressors]
    assert names == [
        "dln_cpi_lag1", "dln_ulc", "kof", "dln_ulc_x_kof", "dln_ulc_x_dln_cpi_lag2",
    ]
    assert [t.name for t in both.auxiliaries] == ["dln_cpi_lag2"]


def test_spec_validation():
    dep = Term("y", TransformSpec.identity("y"))
    lag = Term("y_lag", TransformSpec.lag("y"), role="lag_dep")
    with pytest.raises(MgError):
        ModelSpec(dep, (lag, lag))  # duplicate names
    with pytest.raises(MgError):
        ModelSpec(dep, (lag, Term("y_lag2", TransformSpec.lag("y", 2), role="lag_dep")))
    with pytest.raises(MgError):
        ModelSpec(dep, (lag,), min_obs=3)  # below k + 2
    with pytest.raises(MgError):
        Term("x", TransformSpec.identity("x"), role="mystery")


def test_materialize_skips_existing(toy_levels):
    spec = build_passthrough_spec("cpi", "ulc")
    once = materialize_design(toy_levels, spec)
    twice = materialize_design(once, spec)
    assert once == twice


# ---------------------------------------------------------------- fit_country

def test_fit_country_too_few_rows():
    p = DgpParams(n_countries=1, n_years=10, sigma_mu1=0, sigma_mu2=0, seed=1)
    ds = generate_panel(p)
    spec = build_passthrough_spec("cpi", "ulc", min_obs=9)
    fit = fit_country(materialize_design(ds, spec), spec, "C00")
    # 10 years of levels leave 8 usable rows after the log-diff and the lag
    assert not fit.usable
    assert fit.reason == "TooFewRows"
    assert fit.n_obs == 8


def test_fit_country_noise_free_recovery():
    p = DgpParams(n_countries=2, n_years=40, rho=0.4, lam=0.3,
                  sigma_mu1=0, sigma_mu2=0, sigma_eps=0, alpha_mean=0.01, seed=2)
    spec = build_passthrough_spec("cpi", "ulc")
    mat = materialize_design(generate_panel(p), spec)
    cols = spec.design_columns
    for country in ("C00", "C01"):
        fit = fit_country(mat, spec, country)
        assert fit.usable
        assert fit.coefficients[cols.index("dln_cpi_lag1")] == pytest.approx(0.4, abs=1e-6)
        assert fit.coefficients[cols.index("dln_ulc")] == pytest.approx(0.3, abs=1e-6)
        assert fit.coefficients[cols.index("const")] == pytest.approx(0.01, abs=1e-6)


def test_fit_country_constant_cost_is_singular():
    years = list(range(1990, 2005))
    dln_cpi = [0.01 + 0.001 * (y % 3) for y in years]
    ds = PanelDataset(["AA"], years, ["dln_cpi", "dln_ulc", "dln_cpi_lag1"], [[dln_cpi], [[0.02] * 15], [[0.01] * 15]])
    spec = ModelSpec(
        dependent=Term("dln_cpi", TransformSpec.identity("dln_cpi")),
        regressors=(
            Term("dln_cpi_lag1", TransformSpec.identity("dln_cpi_lag1"), role="lag_dep"),
            Term("dln_ulc", TransformSpec.identity("dln_ulc"), role="cost"),
        ),
    )
    fit = fit_country(ds, spec, "AA")
    assert not fit.usable
    assert fit.reason == "SingularDesign"


def test_fit_country_unknown_country(toy_levels):
    spec = build_passthrough_spec("cpi", "ulc")
    with pytest.raises(UnknownCountryError):
        fit_country(materialize_design(toy_levels, spec), spec, "ZZ")


# ---------------------------------------------------------------- batched fits

IDENTITY_SPEC = ModelSpec(
    dependent=Term("y", TransformSpec.identity("y")),
    regressors=(
        Term("x_cost", TransformSpec.identity("x_cost"), role="cost"),
        Term("x_ctrl", TransformSpec.identity("x_ctrl")),
    ),
)


@st.composite
def holey_panels(draw) -> PanelDataset:
    """Panels with holes: mixed row counts, countries below min_obs, constant (singular) cost columns."""
    countries = [f"K{i}" for i in range(draw(st.integers(2, 9)))]
    years = range(1990, 1990 + draw(st.integers(8, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hole_rate = draw(st.sampled_from((0.0, 0.05, 0.2, 0.4)))
    short = draw(st.sets(st.sampled_from(countries), max_size=2))  # five years at most
    constant_cost = draw(st.sets(st.sampled_from(countries), max_size=2))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    values = scale * rng.standard_normal((3, len(countries), len(years)))
    values[1, [countries.index(c) for c in constant_cost]] = 0.02
    values[rng.random(values.shape) < hole_rate] = np.nan
    values[:, [countries.index(c) for c in short], 5:] = np.nan
    return PanelDataset(countries, years, ("y", "x_cost", "x_ctrl"), values)


def ols_reference(ds: PanelDataset, spec: ModelSpec, country: str):
    """Row count and ols_fit on one country's complete rows; the fit is a reason when there is none."""
    rows = ds.complete_rows([spec.dependent.name] + [t.name for t in spec.regressors], country)
    if len(rows) < spec.min_obs_effective:
        return len(rows), "TooFewRows"
    x = np.array([[1.0, *vals[1:]] for _, vals in rows])
    try:
        return len(rows), ols_fit(DesignMatrix(x, np.array([vals[0] for _, vals in rows]), spec.design_columns))
    except SingularDesignError:
        return len(rows), "SingularDesign"


@settings(max_examples=150, deadline=None)
@given(ds=holey_panels())
def test_batched_fits_equal_per_country_ols_bit_for_bit(ds):
    found = country_arrays(ds, IDENTITY_SPEC)
    assert all(len(field) == len(ds.countries) for field in found)
    for g, country in enumerate(ds.countries):
        n, ref = ols_reference(ds, IDENTITY_SPEC, country)
        assert found.n_obs[g] == n
        if isinstance(ref, str):
            assert (found.usable[g], found.reason[g], found.dof[g]) == (False, ref, 0)
            assert np.isnan(found.coefficients[g]).all() and np.isnan(found.ssr[g])
        else:
            assert found.usable[g] and found.reason[g] is None
            assert found.coefficients[g].tobytes() == ref.coefficients.tobytes()
            assert (found.ssr[g], found.dof[g]) == (ref.ssr, ref.dof)
            assert math.sqrt(found.ssr[g] / found.dof[g]) == ref.sigma
        alone = fit_country(ds, IDENTITY_SPEC, country)
        assert (alone.reason, alone.coefficients.tobytes()) == (found.reason[g], found.coefficients[g].tobytes())


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ds=holey_panels())
def test_reordering_countries_leaves_mean_group_bit_identical(data, ds):
    order = data.draw(st.permutations(ds.countries))
    values, _ = ds.complete_cells(ds.variables)
    shuffled = PanelDataset(order, ds.years, ds.variables, values[:, [ds.countries.index(c) for c in order]])
    try:
        r = mg_of(ds, IDENTITY_SPEC)
    except TooFewCountriesError:
        with pytest.raises(TooFewCountriesError):
            mg_of(shuffled, IDENTITY_SPEC)
        return
    again = mg_of(shuffled, IDENTITY_SPEC)
    assert again.coefficients.tobytes() == r.coefficients.tobytes()
    assert again.covariance.tobytes() == r.covariance.tobytes()
    assert np.float64(again.sigma_pooled).tobytes() == np.float64(r.sigma_pooled).tobytes()
    assert (again.n_countries, again.total_obs) == (r.n_countries, r.total_obs)


def test_fit_country_returns_scalar_fields():
    # the tracer's fit_country probe counts usable fits with int(fit.usable)
    values = np.random.default_rng(7).standard_normal((3, 3, 15))
    values[1, 2] = 0.02  # CC's cost is constant
    values[:, 1, 4:] = np.nan  # BB ends in 1993
    ds = PanelDataset(["AA", "BB", "CC"], range(1990, 2005), ("y", "x_cost", "x_ctrl"), values)
    for country, usable, reason in (("AA", 1, None), ("BB", 0, "TooFewRows"), ("CC", 0, "SingularDesign")):
        fit = fit_country(ds, IDENTITY_SPEC, country)
        assert (int(fit.usable), fit.reason) == (usable, reason)
        assert [np.ndim(v) for v in fit] == [0, 1, 0, 0, 0, 0]
        assert fit.coefficients.shape == (IDENTITY_SPEC.k,)
        assert int(fit.n_obs) == (4 if country == "BB" else 15)
        assert int(fit.dof) == (15 - IDENTITY_SPEC.k if usable else 0)
        assert np.isnan(fit.ssr) != bool(usable)


# ---------------------------------------------------------------- mean_group

def test_mean_group_two_country_hand_values():
    r = mg_from_matrix([[0.0, 0.2], [0.0, 0.4]])
    assert r.coef("b0") == pytest.approx(0.3, abs=1e-15)
    # (1/(2*1)) * (0.01 + 0.01) = 0.01 -> SE 0.1
    assert r.se[r.columns.index("b0")] == pytest.approx(0.1, abs=1e-15)


def test_mean_group_zero_dispersion():
    r = mg_from_matrix([[0.01, 0.5], [0.01, 0.5], [0.01, 0.5]])
    assert np.all(r.se == 0.0)


def test_mean_group_needs_two_usable():
    lone = make_fit([[0.0, 0.1]])
    dud = CountryArrays(np.array([False]), np.full((1, 2), np.nan), np.array([3]), np.array([0]),
                        np.array([math.nan]), np.array(["TooFewRows"], object))
    with pytest.raises(TooFewCountriesError):
        mean_group(CountryArrays(*map(np.concatenate, zip(lone, dud))), ("const", "b0"))


def test_mean_group_exact_mean_identity_and_permutation():
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(21, 3))
    r = mg_from_matrix(matrix)
    exact = np.array([math.fsum(matrix[:, j]) / 21 for j in range(3)])
    assert np.array_equal(r.coefficients, exact)
    assert np.allclose(r.coefficients, matrix.mean(axis=0), rtol=1e-15)
    # reordering countries changes nothing, bit for bit
    r_perm = mg_from_matrix(matrix[::-1])
    assert np.array_equal(r_perm.coefficients, r.coefficients)
    assert np.array_equal(r_perm.covariance, r.covariance)
    assert np.array_equal(r_perm.se, r.se)


def test_mean_group_drop_one_recomputation():
    rng = np.random.default_rng(14)
    matrix = rng.normal(size=(10, 2))
    full = mg_from_matrix(matrix).coefficients
    n = len(matrix)
    max_change = 0.0
    for i in range(n):
        reduced = mg_from_matrix(np.delete(matrix, i, axis=0)).coefficients
        # exact identity: mean drops by (theta_i - reduced_mean) / n
        assert np.allclose(full - reduced, (matrix[i] - reduced) / n, atol=1e-12)
        max_change = max(max_change, float(np.max(np.abs(full - reduced))))
    bound = max(
        float(np.max(np.abs(matrix[i] - mg_from_matrix(np.delete(matrix, i, axis=0)).coefficients)))
        for i in range(n)
    ) / n
    assert max_change <= bound + 1e-12


def test_pooled_sigma():
    f1_f2 = CountryArrays(np.array([True, True]), np.array([[0.1], [0.3]]), np.array([10, 6]), np.array([9, 5]),
                          np.array([0.9, 0.5]), np.array([None, None]))
    r = mean_group(f1_f2, ("const",))
    assert r.sigma_pooled == pytest.approx(math.sqrt((0.9 + 0.5) / 14))
    assert r.total_obs == 16


# Coefficients from 1e-30 to 1e30 of both signs, zeros among them, so the sums need several limbs.
WIDE = st.one_of(st.just(0.0), st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-30, 30)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stacked_mean_group_moments_equal_the_fsum_formulas(data):
    reps, n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 8)), data.draw(st.integers(1, 4))
    coefficients = np.array(data.draw(st.lists(WIDE, min_size=reps * n * k, max_size=reps * n * k)))
    coefficients = coefficients.reshape(reps, n, k)
    usable = np.zeros((reps, n), dtype=bool)
    for r in range(reps):
        usable[r, data.draw(st.permutations(range(n)))[: data.draw(st.integers(2, n))]] = True
    coefficients[~usable] = data.draw(st.sampled_from([math.nan, math.inf, 1e300]))  # masked rows count for nothing
    columns = tuple(f"c{j}" for j in range(k))
    theta, cov = mean_group_moments(coefficients, usable, columns)
    assert theta.shape == (reps, k) and cov.shape == (reps, k, k)
    for r in range(reps):
        want_theta, want_cov = mg_fsum(coefficients[r][usable[r]])
        assert theta[r].tobytes() == want_theta.tobytes()
        assert cov[r].tobytes() == want_cov.tobytes()
        # a replication's moments do not depend on the replications stacked with it
        alone_theta, alone_cov = mean_group_moments(coefficients[r : r + 1], usable[r : r + 1], columns)
        assert alone_theta.tobytes() == theta[r : r + 1].tobytes()
        assert alone_cov.tobytes() == cov[r : r + 1].tobytes()


def test_stacked_mean_group_needs_two_usable_countries_in_every_replication():
    coefficients = np.arange(12.0).reshape(2, 3, 2)
    usable = np.array([[True, True, True], [False, True, False]])
    with pytest.raises(TooFewCountriesError, match="have 1"):
        mean_group_moments(coefficients, usable, ("const", "b0"))


@pytest.mark.parametrize("matrix, column", [
    ([[0.0, 1e200], [0.0, -1e200], [0.0, 0.0]], "b0"),  # a square overflows
    ([[1e154 * (-1) ** i, 0.1] for i in range(21)], "const"),  # each square fits, their sum does not
])
def test_mean_group_names_a_column_whose_squared_deviations_overflow(matrix, column):
    with pytest.raises(MgError, match=f"squared deviations of '{column}' overflow"):
        mg_from_matrix(matrix)


def test_mean_group_names_a_column_with_non_finite_coefficients():
    with pytest.raises(MgError, match="coefficients of 'b0' are not finite"):
        mg_from_matrix([[0.0, 0.1], [0.0, math.inf], [0.0, 0.2]])


# ---------------------------------------------------------------- one-pass design

def sequential_design(ds: PanelDataset, spec: ModelSpec) -> PanelDataset:
    """The design added one series at a time through apply_transform, skipping names already present."""
    for term in (spec.dependent, *spec.auxiliaries, *spec.regressors):
        if term.name not in ds.variables:
            ds = apply_transform(ds, term.transform, term.name)
    return ds


FULL_SPEC = build_passthrough_spec("cpi", "ulc", control="output_gap", with_globalisation=True,
                                   with_lagged_inflation=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hole_rate=st.sampled_from((0.0, 0.1, 0.3)), given_dln=st.booleans())
def test_one_pass_design_equals_the_sequential_transforms(seed, hole_rate, given_dln):
    rng = np.random.default_rng(seed)
    countries, years = ["AA", "BB", "CC"], range(1990, 2002)
    names = ("cpi", "ulc", "kof", "output_gap")
    values = rng.uniform(0.5, 2.0, (len(names), len(countries), len(years)))
    values[rng.random(values.shape) < hole_rate] = np.nan
    ds = PanelDataset(countries, years, names, values)
    if given_dln:  # a design series already present is reused, and later ones build on it
        ds = apply_transform(ds, TransformSpec.log_diff("cpi"), "dln_cpi")
    one, seq = materialize_design(ds, FULL_SPEC), sequential_design(ds, FULL_SPEC)
    assert one.variables == seq.variables and one == seq
    for name in one.variables:
        assert dict(one.cells(name)) == dict(seq.cells(name))


def _error(build, ds, spec):
    with pytest.raises(PanelDataError) as info:
        build(ds, spec)
    return type(info.value), str(info.value)


def error_spec(log_source: str) -> ModelSpec:
    """A product among the auxiliaries, then a log difference of `log_source` among the regressors."""
    return ModelSpec(
        dependent=Term("y", TransformSpec.identity("y")),
        auxiliaries=(Term("ab", TransformSpec.product("a", "b")),),
        regressors=(Term("dl", TransformSpec.log_diff(log_source), role="cost"),),
    )


@pytest.mark.parametrize("cells, log_source, kind", [
    ({"level": -1.0}, "level", NonPositiveForLogError),  # a non-positive log cell
    ({"a": 1e200, "b": 1e200}, "level", PanelDataError),  # an overflowing product
    ({}, "absent", PanelDataError),  # an unknown operand
    # the earlier series' non-finite cell is reported first
    ({"a": 1e200, "b": 1e200, "level": -1.0}, "level", PanelDataError),
    ({"a": 1e200, "b": 1e200}, "absent", PanelDataError),
])
def test_one_pass_design_fails_as_the_sequential_transforms_do(cells, log_source, kind):
    names = ("y", "a", "b", "level")
    values = np.tile([1.0 + 0.1 * t for t in range(6)], (len(names), 2, 1))
    for name, value in cells.items():
        values[names.index(name), 1, 3] = value  # (BB, 1993)
    ds, spec = PanelDataset(["AA", "BB"], range(1990, 1996), names, values), error_spec(log_source)
    got = _error(materialize_design, ds, spec)
    assert got == _error(sequential_design, ds, spec)
    assert got[0] is kind
    if "a" in cells:
        assert got[1].startswith("ab: infinite value at (BB, 1993)")


# ---------------------------------------------------------------- long-run effect

PUBLISHED_LT = [
    # (lagged coefficient, cost coefficient, printed long-run value)
    (0.507, 0.124, 0.252), (0.297, 0.276, 0.394), (0.357, 0.247, 0.385),
    (-0.169, 0.064, 0.055), (0.385, -0.002, -0.003),
    (0.588, 0.143, 0.348), (0.319, 0.246, 0.361), (0.411, 0.280, 0.476),
    (0.081, 0.036, 0.039), (0.278, 0.024, 0.034),
    (0.560, 0.095, 0.216), (0.442, 0.200, 0.357), (0.151, -0.015, -0.018),
    (0.235, 0.001, 0.002),
]


def mg_for_pair(rho: float, lam: float) -> MgResult:
    cov = np.zeros((3, 3))
    return MgResult(
        columns=("const", "rho", "lam"),
        coefficients=np.array([0.0, rho, lam]),
        covariance=cov,
        se=np.zeros(3),
        n_countries=2,
        total_obs=40,
        sigma_pooled=0.01,
    )


@pytest.mark.parametrize("rho,lam,printed", PUBLISHED_LT)
def test_long_run_effect_reproduces_published_ratios(rho, lam, printed):
    value, _ = long_run_effect(mg_for_pair(rho, lam), "lam", "rho")
    assert value == pytest.approx(lam / (1 - rho), abs=1e-12)
    assert abs(value - printed) <= 0.002


def test_long_run_effect_static_model():
    value, _ = long_run_effect(mg_for_pair(0.0, 0.42), "lam", "rho")
    assert value == 0.42


def test_long_run_effect_near_unit_root():
    with pytest.raises(NearUnitRootError):
        long_run_effect(mg_for_pair(1.0 - 1e-7, 0.1), "lam", "rho")


def test_long_run_effect_delta_method_se():
    rng = np.random.default_rng(21)
    matrix = np.column_stack([
        rng.normal(0.0, 0.01, 21), rng.normal(0.5, 0.05, 21), rng.normal(0.2, 0.05, 21),
    ])
    r = mg_from_matrix(matrix)
    value, se = long_run_effect(r, "b1", "b0")
    rho, lam = r.coef("b0"), r.coef("b1")
    grad = np.array([lam / (1 - rho) ** 2, 1 / (1 - rho)])
    idx = [r.columns.index("b0"), r.columns.index("b1")]
    expected = math.sqrt(grad @ r.covariance[np.ix_(idx, idx)] @ grad)
    assert se == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- Wald test

def test_wald_all_zero_subset():
    matrix = np.array([
        [0.0, 0.1, 0.3], [0.0, -0.1, 0.3], [0.0, 0.2, -0.3], [0.0, -0.2, -0.3],
    ])
    r = mg_from_matrix(matrix)
    assert np.allclose(r.coefficients[1:], 0.0, atol=0)
    stat, dof, p = wald_joint(r)
    assert stat == pytest.approx(0.0, abs=1e-20)
    assert dof == 2
    assert p == 1.0


def test_wald_single_slot_matches_tabulated_quantile():
    # engineered so (theta/se)^2 = 3.841, the 95th percentile of chi2(1)
    target = math.sqrt(3.841)
    r = mg_from_matrix([[0.0, target - 1.0], [0.0, target + 1.0]])
    assert r.se[r.columns.index("b0")] == pytest.approx(1.0, abs=1e-12)
    stat, dof, p = wald_joint(r, ["b0"])
    assert stat == pytest.approx(3.841, rel=1e-12)
    assert dof == 1
    assert p == pytest.approx(0.05, abs=1e-3)


def test_wald_singular_covariance():
    # two countries give a rank-1 dispersion matrix; a 2-slot test cannot run
    r = mg_from_matrix([[0.0, 0.1, 0.3], [0.0, 0.2, 0.5]])
    with pytest.raises(SingularCovarianceError):
        wald_joint(r, ["b0", "b1"])


def test_chi2_sf_tabulated_points():
    assert _chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-12)
    for x in (0.1, 1.0, 5.0, 40.0):
        assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-15)
    assert _chi2_sf(0.0, 3) == 1.0


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for dof in range(1, 10):
        for x in np.concatenate([np.geomspace(1e-6, 1.0, 40), np.linspace(1.0, 120.0, 400)]):
            expected = stats.chi2.sf(x, dof)
            assert _chi2_sf(float(x), dof) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_wald_rejects_constant_in_subset():
    r = mg_from_matrix([[0.0, 0.1], [0.1, 0.2], [0.2, 0.3]])
    with pytest.raises(MgError):
        wald_joint(r, ["const"])


def test_unknown_or_repeated_slots_are_named():
    r = mg_from_matrix([[0.0, 0.1, 0.3], [0.1, 0.2, 0.1], [0.2, 0.3, 0.4]])
    with pytest.raises(MgError, match="slot 'b9' is unknown"):
        wald_joint(r, ["b0", "b9"])
    with pytest.raises(MgError, match="slot 'b0' is repeated"):
        wald_joint(r, ["b0", "b0"])
    with pytest.raises(MgError, match="slot 'rho' is unknown"):
        long_run_effect(r, "b1", "rho")
    with pytest.raises(MgError, match="slot 'b1' is repeated"):
        long_run_effect(r, "b1", "b1")


def test_wald_null_size_simulation():
    rng = np.random.default_rng(2024)
    n_countries, reps = 50, 2000
    rejections = 0
    for _ in range(reps):
        matrix = np.column_stack([
            np.zeros(n_countries),
            rng.normal(0.0, 0.3, n_countries),
            rng.normal(0.0, 0.7, n_countries),
        ])
        r = mg_from_matrix(matrix)
        _, _, p = wald_joint(r)
        rejections += p < 0.05
    rate = rejections / reps
    assert 0.03 <= rate <= 0.07


# ---------------------------------------------------------------- decade extraction

def test_decade_passthroughs_exclusion_and_covariate_join():
    p = DgpParams(n_countries=3, n_years=40, seed=6)
    ds = generate_panel(p)
    # rename a country to US by rebuilding the dataset, so the fixture join hits
    ds = PanelDataset(["US", "C01", "C02"], ds.years, ds.variables, ds.complete_cells(ds.variables)[0])

    spec = build_passthrough_spec("cpi", "ulc")
    windows = [DecadeWindow.from_label(lbl) for lbl in ("1980s", "1990s", "2000s", "2010s")]
    panel = estimate_decade_passthroughs(
        ds, spec, windows, decade_data=load_decade_csv(table_a2_path()), exclude=("C02",),
    )
    assert all(c != "C02" for c in panel.country)
    assert Exclusion("C02", "1980s", "ExcludedByConfig") in panel.exclusions
    us_2010 = [i for i, key in enumerate(zip(panel.country, panel.decade)) if key == ("US", "2010s")]
    assert len(us_2010) == 1
    assert panel.covariates["em10"][us_2010[0]] == 0.0506  # verbatim from the decade file
    # non-fixture countries fall back to decade averages of their annual series
    c01 = [i for i, c in enumerate(panel.country) if c == "C01"]
    assert not np.isnan(panel.covariates["em6"][c01]).any()
    assert not np.isnan(panel.covariates["avg_inflation"]).any()


def _decade_reference(ds, spec, windows, decade_data):
    """Each (country, decade)'s covariates and average inflation, read cell by cell with value()."""
    mat = materialize_design(ds, spec)
    expected = {}
    for w in windows:
        years = [y for y in mat.years if w.start_year <= y <= w.end_year]
        for country in mat.countries:
            row = {}
            for var in DECADE_SCHEMA:
                val = None
                if decade_data is not None and var in decade_data.variables:
                    val = decade_data.value(var, country, w.start_year)
                if val is None and var in mat.variables:
                    obs = [v for y in years if (v := mat.value(var, country, y)) is not None]
                    val = sum(obs) / len(obs) if obs else None
                row[var] = math.nan if val is None else val
            dep = [v for y in years if (v := mat.value(spec.dependent.name, country, y)) is not None]
            row["avg_inflation"] = sum(dep) / len(dep) if dep else math.nan
            expected[(country, w.label)] = row
    return expected


def _same_float(a, b) -> bool:
    """Both NaN, or equal floats with the same sign, so -0.0 differs from 0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return type(a) is float and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_decade_passthroughs_match_a_cell_by_cell_reference():
    # a panel starting mid-decade, with annual covariate and price cells missing at random
    ds = generate_panel(DgpParams(n_countries=6, n_years=37, start_year=1981, seed=11))
    values, _ = ds.complete_cells(ds.variables)
    keep = np.array([0.97 if var in ("cpi", "ulc") else 0.6 for var in ds.variables])
    values[np.random.default_rng(4).random(values.shape) >= keep[:, None, None]] = np.nan
    kof, em10, years = ds.variables.index("kof"), ds.variables.index("em10"), np.array(ds.years)
    values[kof, 1, years < 2000] = np.nan  # C01
    values[em10, 4, (years >= 2000) & (years < 2010)] = -0.0  # C04's sums to -0.0 cell by cell
    ds = PanelDataset(ds.countries, ds.years, ds.variables, values)
    # the decade file lacks em10, countries C01 and C05, and one cell of C02
    in_file = ("C00", "C02", "C03", "C04")
    decades = (1980, 1990, 2000, 2010)
    decade_values = np.array([[[0.1 + 0.01 * i + d / 1e5 for d in decades] for i in range(len(in_file))]] * 2)
    decade_values[1, 1, 1] = np.nan  # em6 of C02 in 1990
    spec = build_passthrough_spec("cpi", "ulc")
    windows = [DecadeWindow(d) for d in decades]
    for decade_data in (None, PanelDataset(in_file, decades, ("kof", "em6"), decade_values)):
        panel = estimate_decade_passthroughs(ds, spec, windows, decade_data=decade_data, exclude=("C03",))
        expected = _decade_reference(ds, spec, windows, decade_data)
        assert set(panel.country) == {"C00", "C01", "C02", "C04", "C05"}
        assert Exclusion("C03", "1980s", "ExcludedByConfig") in panel.exclusions
        assert len(panel.country) + len(panel.exclusions) == 6 * len(windows)
        covariates = {name: values.tolist() for name, values in panel.covariates.items()}
        got = {
            key: {name: values[i] for name, values in covariates.items()}
            for i, key in enumerate(zip(panel.country, panel.decade))
        }
        for (country, decade), row in got.items():
            want = expected[(country, decade)]
            for name in ("kof", "em6", "em10", "avg_inflation"):
                assert _same_float(row[name], want[name]), (country, decade, name)
        assert math.isnan(got[("C01", "1990s")]["kof"])  # no kof cell in the decade file or the annual panel
        assert _same_float(got[("C04", "2000s")]["em10"], 0.0)
        assert sum(decade == "1980s" for _, decade in got) >= 3  # fitted on the nine panel years of the 1980s


def test_decade_passthroughs_require_cost_slot(toy_levels):
    spec = ModelSpec(
        dependent=Term("dln_cpi", TransformSpec.log_diff("cpi")),
        regressors=(Term("dln_cpi_lag1", TransformSpec.lag("dln_cpi"), role="lag_dep"),),
    )
    with pytest.raises(MgError):
        estimate_decade_passthroughs(toy_levels, spec, [DecadeWindow(1990)])


def test_decade_passthroughs_report_empty_windows_in_window_order():
    base = generate_panel(DgpParams(n_countries=4, n_years=40, seed=5))
    values, _ = base.complete_cells(base.variables)
    values[base.variables.index("cpi"), 1, 3:10] = np.nan  # C01 keeps its 1980-1982 levels: too few rows there
    ds = PanelDataset(base.countries, base.years, base.variables, values)
    spec = build_passthrough_spec("cpi", "ulc")
    windows = [DecadeWindow(1970), DecadeWindow(1980), DecadeWindow(2030)]
    panel = estimate_decade_passthroughs(ds, spec, windows, exclude=("C03",))
    assert panel.exclusions == (
        Exclusion("*", "1970s", "EmptyWindow"),
        Exclusion("C01", "1980s", "TooFewRows"),
        Exclusion("C03", "1980s", "ExcludedByConfig"),
        Exclusion("*", "2030s", "EmptyWindow"),
    )
    assert panel.country == ("C00", "C02") and panel.decade == ("1980s", "1980s")

    empty = estimate_decade_passthroughs(ds, spec, [DecadeWindow(1970), DecadeWindow(2030)])
    assert empty.country == empty.decade == ()
    assert list(empty.covariates) == ["kof", "em6", "em10", "avg_inflation"]
    for values in (empty.passthrough, *empty.covariates.values()):
        assert values.dtype == np.float64 and values.shape == (0,)


def test_decade_passthroughs_schedule_recovery_smoke():
    sched = (0.25, 0.25, 0.05, 0.0)
    spec = build_passthrough_spec("cpi", "ulc")
    windows = [DecadeWindow(1980 + 10 * j) for j in range(4)]
    reps = 20
    sums = np.zeros(4)
    p = DgpParams(n_countries=21, n_years=40, lambda_schedule=sched, sigma_eps=0.01, seed=77)
    for rep in range(reps):
        ds = generate_panel(p, seed=(p.seed, rep))
        panel = estimate_decade_passthroughs(ds, spec, windows)
        for j, w in enumerate(windows):
            values = panel.passthrough[np.array(panel.decade) == w.label]
            assert len(values) == 21
            sums[j] += np.mean(values)
    means = sums / reps
    assert np.all(np.abs(means - np.array(sched)) < 0.05)


# ---------------------------------------------------------------- pooled comparison

def test_mg_matches_pooled_ols_under_pooled_dgp():
    spec = build_passthrough_spec("cpi", "ulc")
    p = DgpParams(n_countries=21, n_years=200, rho=0.4, lam=0.25,
                  sigma_mu1=0.0, sigma_mu2=0.0, sigma_eps=0.01, seed=31)
    diffs = []
    for rep in range(200):
        ds = generate_panel(p, seed=(p.seed, rep))
        mat = materialize_design(ds, spec)
        mg = mg_of(mat, spec)
        pooled = pooled_fixed_effects(mat, spec)
        diffs.append(abs(mg.coef("dln_ulc") - pooled.coef("dln_ulc")))
    assert float(np.mean(diffs)) < 0.01

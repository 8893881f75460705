"""Mean-group estimation for dynamic heterogeneous panels.

Each country gets its own time-series OLS; cross-country averages of the
country coefficients form the panel estimate, with standard errors from the
nonparametric cross-country dispersion. Also extracts per-country-per-decade
pass-through coefficients joined with decade covariates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from passthru.accumulator import exact_sums
from passthru.errors import PassthruError
from passthru.panel_data import (
    DECADE_SCHEMA,
    DecadeWindow,
    EmptyWindowError,
    PanelDataset,
    TransformSpec,
    apply_transforms,
    country_span,
    window,
    window_means,
)
from passthru.regression_core import (
    DesignMatrix,
    OlsFit,
    ols_fit,
    ols_stack,
    within_transform,
)

ROLES = ("lag_dep", "cost", "level", "interaction", "control")


class MgError(PassthruError):
    pass


class UnknownCountryError(MgError):
    pass


class TooFewCountriesError(MgError):
    pass


class NearUnitRootError(MgError):
    pass


class SingularCovarianceError(MgError):
    pass


@dataclass(frozen=True)
class Term:
    """One named series in a model, built by a transform, tagged by its role."""

    name: str
    transform: TransformSpec
    role: str = "control"

    def __post_init__(self):
        if not self.name:
            raise MgError("term needs a name")
        if self.role not in ROLES:
            raise MgError(f"unknown term role {self.role!r}")


@dataclass(frozen=True)
class ModelSpec:
    """A per-country regression recipe.

    The design's first column is a constant, `const`, then the regressors.
    Auxiliaries are materialized (so interactions can reference them) but are
    not regressors themselves. min_obs defaults to k + 3, leaving at least
    three residual degrees of freedom inside a decade window.
    """

    dependent: Term
    regressors: tuple[Term, ...]
    auxiliaries: tuple[Term, ...] = ()
    min_obs: int | None = None

    def __post_init__(self):
        names = [self.dependent.name] + [t.name for t in self.regressors]
        if len(set(names)) != len(names):
            raise MgError("dependent and regressor names must be unique")
        if sum(1 for t in self.regressors if t.role == "lag_dep") > 1:
            raise MgError("at most one lagged-dependent regressor")
        if self.min_obs is not None and self.min_obs < self.k + 2:
            raise MgError(f"min_obs must be >= k + 2 = {self.k + 2}")

    @property
    def k(self) -> int:
        return len(self.regressors) + 1

    @property
    def min_obs_effective(self) -> int:
        return self.min_obs if self.min_obs is not None else self.k + 3

    def slot(self, role: str) -> str | None:
        """Name of the first regressor carrying `role`, if any."""
        for t in self.regressors:
            if t.role == role:
                return t.name
        return None

    @property
    def design_columns(self) -> tuple[str, ...]:
        return ("const", *(t.name for t in self.regressors))


def build_passthrough_spec(
    price_var: str = "cpi",
    cost_var: str = "ulc",
    control: str | None = None,
    with_globalisation: bool = False,
    with_lagged_inflation: bool = False,
    min_obs: int | None = None,
) -> ModelSpec:
    """Dynamic pass-through design: inflation on its own lag and cost growth.

    Optional pieces add one control series, the globalisation level (kof)
    with its interaction with cost growth, and/or the interaction of cost
    growth with inflation lagged twice (the lag reduces endogeneity).
    Interaction inputs are built on the full series, before any windowing.
    """
    dep = Term(f"dln_{price_var}", TransformSpec.log_diff(price_var))
    regs: list[Term] = [
        Term(f"{dep.name}_lag1", TransformSpec.lag(dep.name, 1), role="lag_dep"),
        Term(f"dln_{cost_var}", TransformSpec.log_diff(cost_var), role="cost"),
    ]
    aux: list[Term] = []
    if control:
        regs.append(Term(control, TransformSpec.identity(control), role="control"))
    if with_globalisation:
        regs.append(Term("kof", TransformSpec.identity("kof"), role="level"))
        regs.append(
            Term(
                f"dln_{cost_var}_x_kof",
                TransformSpec.product(f"dln_{cost_var}", "kof"),
                role="interaction",
            )
        )
    if with_lagged_inflation:
        lag2 = Term(f"{dep.name}_lag2", TransformSpec.lag(dep.name, 2))
        aux.append(lag2)
        regs.append(
            Term(
                f"dln_{cost_var}_x_{lag2.name}",
                TransformSpec.product(f"dln_{cost_var}", lag2.name),
                role="interaction",
            )
        )
    return ModelSpec(
        dependent=dep,
        regressors=tuple(regs),
        auxiliaries=tuple(aux),
        min_obs=min_obs,
    )


def materialize_design(ds: PanelDataset, spec: ModelSpec) -> PanelDataset:
    """Add every series the spec needs in one pass; names already present are reused."""
    missing: dict[str, TransformSpec] = {}
    for term in (spec.dependent, *spec.auxiliaries, *spec.regressors):
        if term.name not in ds.variables:
            missing.setdefault(term.name, term.transform)
    return apply_transforms(ds, missing)


class CountryArrays(NamedTuple):
    """Per-country OLS results as arrays, one row per country.

    Unusable countries have NaN `coefficients` and `ssr`, `dof` 0, and a
    `reason`: "TooFewRows" below the spec's `min_obs_effective` complete rows,
    else "SingularDesign". A usable country's `reason` is None.
    """

    usable: np.ndarray
    coefficients: np.ndarray
    n_obs: np.ndarray
    dof: np.ndarray
    ssr: np.ndarray
    reason: np.ndarray


def country_arrays(ds: PanelDataset, spec: ModelSpec) -> CountryArrays:
    """OLS on each country's complete rows, in the dataset's country order.

    Countries with equal counts of complete rows are stacked and fitted together
    by `ols_stack`, whose slices do not depend on their stack: each fit is
    `ols_fit` on that country's design, its ssr included. Rows are never
    zero-padded, as padding changes the QR's rounding. Short or singular
    samples come back unusable. To fit some countries only, pass a view of
    them (`country_span`).
    """
    names = [spec.dependent.name] + [t.name for t in spec.regressors]
    values, complete = ds.complete_cells(names)
    n_obs = complete.sum(axis=1)
    usable = np.zeros(len(ds.countries), dtype=bool)
    coefficients = np.full((len(ds.countries), spec.k), np.nan)
    ssr = np.full(len(ds.countries), np.nan)
    for n in sorted(set(n_obs.tolist())):
        if n < spec.min_obs_effective:
            continue
        in_group = n_obs == n
        group = np.flatnonzero(in_group)
        block = values[:, complete & in_group[:, None]].reshape(len(names), len(group), n)
        x = np.concatenate([np.ones((len(group), n, 1)), np.moveaxis(block[1:], 0, -1)], axis=2)
        usable[group], coefficients[group], fitted, _ = ols_stack(np.ascontiguousarray(x), block[0])
        e = block[0] - fitted  # NaN on singular fits
        ssr[group] = np.vecdot(e, e)  # each row's bits are ols_fit's e @ e
    reason = np.where(usable, None, np.where(n_obs < spec.min_obs_effective, "TooFewRows", "SingularDesign"))
    # dof >= 2 where usable: min_obs is at least k + 2
    return CountryArrays(usable, coefficients, n_obs, np.where(usable, n_obs - spec.k, 0), ssr, reason)


def fit_country(ds: PanelDataset, spec: ModelSpec, country: str) -> CountryArrays:
    """OLS on one country's complete rows: `country_arrays` of its one-country view, with scalar fields."""
    if country not in ds.countries:
        raise UnknownCountryError(country)
    i = ds.countries.index(country)
    return CountryArrays._make(a[0] for a in country_arrays(country_span(ds, i, i + 1), spec))


@dataclass(frozen=True, eq=False)
class MgResult:
    columns: tuple[str, ...]
    coefficients: np.ndarray
    covariance: np.ndarray
    se: np.ndarray
    n_countries: int
    total_obs: int
    sigma_pooled: float

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.columns.index(name)])


def mean_group_moments(
    coefficients: np.ndarray, usable: np.ndarray, columns: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-group coefficients (R, k) and covariances (R, k, k) of R stacked replications.

    `coefficients` is (R, N, k): replication r's N country rows, of which the
    rows marked in the (R, N) mask `usable` count; the others may hold
    anything, NaN included. Over replication r's n usable rows theta_i,

        theta = sum_i theta_i / n,
        covariance = sum_i (theta_i - theta)(theta_i - theta)' / (n (n - 1)).

    Every sum is exact (correctly rounded, as math.fsum), so neither the order
    of the countries nor the other replications in the stack change a bit. A
    replication needs two usable rows. A column whose usable coefficients are
    not finite, or whose n * max (theta_i - theta)^2 passes the largest
    double (so that its squared deviations may overflow their sum), fails by
    name.
    """
    n = np.count_nonzero(usable, axis=1)
    if (n < 2).any():
        raise TooFewCountriesError(f"need >= 2 usable countries, have {n[n < 2][0]}")
    keep = usable[:, :, None]
    values = np.where(keep, coefficients, 0.0)
    finite = np.isfinite(values).all(axis=(0, 1))
    if not finite.all():
        raise MgError(f"coefficients of {columns[np.argmin(finite)]!r} are not finite")
    theta = exact_sums(values.swapaxes(0, 1)) / n[:, None]
    dev = np.where(keep, coefficients - theta[:, None], 0.0)
    with np.errstate(over="ignore"):
        fits = (n[:, None] * (dev * dev).max(axis=1) <= sys.float_info.max).all(axis=0)
    if not fits.all():
        raise MgError(f"squared deviations of {columns[np.argmin(fits)]!r} overflow")
    products = dev[:, :, :, None] * dev[:, :, None, :]
    return theta, exact_sums(products.swapaxes(0, 1)) / (n * (n - 1))[:, None, None]


def mean_group(found: CountryArrays, columns: Sequence[str]) -> MgResult:
    """Average the usable countries' fits; SEs from cross-country coefficient dispersion.

    The coefficients and covariance are `mean_group_moments` of one
    replication, named by the design `columns`. Pooled sigma stacks residual
    variation: sqrt(sum SSR_i / sum dof_i). Sums are exact, so reordering
    countries changes nothing, bit for bit.
    """
    columns = tuple(columns)
    theta, cov = mean_group_moments(found.coefficients[None], found.usable[None], columns)
    ssr = found.ssr[found.usable]
    total_ssr = float(exact_sums(ssr))
    total_dof = int(found.dof.sum())  # unusable countries have dof 0
    return MgResult(
        columns=columns,
        coefficients=theta[0],
        covariance=cov[0],
        se=np.sqrt(np.diag(cov[0])),
        n_countries=int(np.count_nonzero(found.usable)),
        total_obs=int(found.n_obs[found.usable].sum()),
        sigma_pooled=math.sqrt(total_ssr / total_dof) if total_dof > 0 else math.nan,
    )


def _slot_indices(r: MgResult, slots: Sequence[str]) -> list[int]:
    """Result columns of the slots; an unknown or repeated slot raises, naming it."""
    for s in slots:
        if s not in r.columns or slots.count(s) > 1:
            raise MgError(f"slot {s!r} is {'repeated' if s in r.columns else 'unknown'} (columns: {list(r.columns)})")
    return [r.columns.index(s) for s in slots]


def long_run_effect(r: MgResult, cost_slot: str, rho_slot: str) -> tuple[float, float]:
    """Cumulative effect cost/(1 - persistence), with a delta-method SE."""
    idx = _slot_indices(r, [rho_slot, cost_slot])
    rho, lam = (float(v) for v in r.coefficients[idx])
    denom = 1.0 - rho
    if abs(denom) <= 1e-6:
        raise NearUnitRootError(f"persistence {rho} too close to 1")
    value = lam / denom
    grad = np.array([lam / denom**2, 1.0 / denom])
    sub = r.covariance[np.ix_(idx, idx)]
    var = float(grad @ sub @ grad)
    return value, math.sqrt(max(var, 0.0))


def _chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function for integer dof, in closed form.

    Q = [dof odd] erfc(sqrt(x/2)) + exp(-x/2) * (t_j summed over j = dof % 2, ..., dof - 2
    in steps of 2), with t_0 = 1, t_1 = sqrt(2x/pi) and t_{j+2} = t_j * x / (j + 2).
    """
    if x <= 0.0:
        return 1.0
    odd = dof % 2
    term, total = (math.sqrt(2.0 * x / math.pi) if odd else 1.0), 0.0
    for j in range(odd, dof, 2):
        total += term
        term *= x / (j + 2)
    return (math.erfc(math.sqrt(x / 2.0)) if odd else 0.0) + math.exp(-x / 2.0) * total


def wald_joint(r: MgResult) -> tuple[float, int, float]:
    """Chi-square test that every non-constant slope is zero, one statistic per results column."""
    idx = [i for i, c in enumerate(r.columns) if c != "const"]
    theta = r.coefficients[idx]
    v = r.covariance[np.ix_(idx, idx)]
    sv = np.linalg.svd(v, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * sv[0] or sv[0] == 0.0:
        raise SingularCovarianceError(f"slope covariance of {[r.columns[i] for i in idx]} is singular")
    stat = float(theta @ np.linalg.solve(v, theta))
    dof = len(idx)
    return stat, dof, _chi2_sf(stat, dof)


class Exclusion(NamedTuple):
    country: str
    decade: str
    reason: str


@dataclass(frozen=True, eq=False)
class PassThroughPanel:
    """Estimated pass-through per (country, decade) as equal-length columns.

    `covariates` holds the kof, em6, em10 and avg_inflation arrays, NaN where
    a value is missing.
    """

    country: tuple[str, ...]
    decade: tuple[str, ...]
    passthrough: np.ndarray
    covariates: dict[str, np.ndarray]
    exclusions: tuple[Exclusion, ...] = ()


def estimate_decade_passthroughs(
    ds: PanelDataset,
    spec: ModelSpec,
    windows: Sequence[DecadeWindow],
    decade_data: PanelDataset | None = None,
    exclude: Sequence[str] = (),
) -> PassThroughPanel:
    """Fit the spec per (country, decade); keep the cost coefficient of usable fits.

    Covariates come verbatim from the decade-keyed dataset when present, and
    fall back to decade averages of annual series. Unusable or excluded
    country-decades land in the exclusion report, never as silent gaps.
    """
    cost = spec.slot("cost")
    if cost is None:
        raise MgError("spec has no cost slot to extract a pass-through from")
    cost_column = spec.design_columns.index(cost)
    materialized = materialize_design(ds, spec)
    excluded = np.array([c in exclude for c in materialized.countries])
    annual = [v for v in DECADE_SCHEMA if v in materialized.variables]
    annual_at = [DECADE_SCHEMA.index(v) for v in annual]
    filed, decade_at = _decade_file_cells(decade_data, materialized.countries)
    countries: list[str] = []
    decades: list[str] = []
    blocks = [np.empty((len(DECADE_SCHEMA) + 2, 0))]
    exclusions: list[Exclusion] = []

    for w in windows:
        try:
            sub = window(materialized, w)
        except EmptyWindowError:
            exclusions.append(Exclusion("*", w.label, "EmptyWindow"))
            continue
        # an excluded country is fitted too, as a fit does not depend on the countries beside it
        found = country_arrays(sub, spec)
        usable = found.usable & ~excluded
        reasons = np.where(excluded, "ExcludedByConfig", found.reason)
        exclusions += [Exclusion(c, w.label, r) for c, r in zip(sub.countries, reasons.tolist()) if r]
        used = [c for c, kept in zip(sub.countries, usable.tolist()) if kept]
        countries += used
        decades += [w.label] * len(used)
        means = window_means(sub, [*annual, spec.dependent.name])[:, usable]
        given = filed[:, usable, decade_at.get(w.start_year, -1)]
        given[annual_at] = np.where(np.isnan(given[annual_at]), means[:-1], given[annual_at])
        # the rows: passthrough, the DECADE_SCHEMA covariates, then avg_inflation (the dependent's mean)
        blocks.append(np.vstack([found.coefficients[usable, cost_column], given, means[-1]]))
    passthrough, *columns = np.concatenate(blocks, axis=1)
    covariates = dict(zip((*DECADE_SCHEMA, "avg_inflation"), columns))
    return PassThroughPanel(tuple(countries), tuple(decades), passthrough, covariates, tuple(exclusions))


def _decade_file_cells(decade_data: PanelDataset | None, countries: Sequence[str]) -> tuple[np.ndarray, dict[int, int]]:
    """The decade file's DECADE_SCHEMA cells of `countries`, and each decade start's position on the last axis.

    The array is (variable, country, decade), NaN wherever the file lacks a
    cell; position -1 is a decade of NaN, for a decade start it lacks.
    """
    if decade_data is None:
        return np.full((len(DECADE_SCHEMA), len(countries), 1), np.nan), {}
    filed = [v for v in DECADE_SCHEMA if v in decade_data.variables]
    # one more country and one more decade, all NaN, stand for those the file lacks
    cells = np.full((len(DECADE_SCHEMA), len(decade_data.countries) + 1, len(decade_data.years) + 1), np.nan)
    cells[[DECADE_SCHEMA.index(v) for v in filed], :-1, :-1] = decade_data.complete_cells(filed)[0]
    at = {c: i for i, c in enumerate(decade_data.countries)}
    return cells[:, [at.get(c, -1) for c in countries]], {y: j for j, y in enumerate(decade_data.years)}


def pooled_fixed_effects(ds: PanelDataset, spec: ModelSpec) -> OlsFit:
    """Within (entity-demeaned) OLS pooling all countries, for comparison with MG; MgError names a dropped regressor."""
    names = [spec.dependent.name] + [t.name for t in spec.regressors]
    values, complete = ds.complete_cells(names)
    if np.count_nonzero(complete) < len(spec.regressors) + 2:
        raise TooFewCountriesError("not enough pooled rows")
    rows = values[:, complete]  # country by country, years ascending
    groups = [ds.countries[i] for i in np.nonzero(complete)[0].tolist()]
    design = DesignMatrix(x=np.ascontiguousarray(rows[1:].T), y=rows[0], columns=tuple(t.name for t in spec.regressors))
    within = within_transform(design, groups)
    dropped = [name for name in design.columns if name not in within.columns]
    if dropped:
        raise MgError(f"pooled fixed effects: within transform drops {', '.join(dropped)}, constant in every country")
    return ols_fit(within)

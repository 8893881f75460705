"""Mean-group estimation for dynamic heterogeneous panels.

Each country gets its own time-series OLS; cross-country averages of the
country coefficients form the panel estimate, with standard errors from the
nonparametric cross-country dispersion. Also extracts per-country-per-decade
pass-through coefficients joined with decade covariates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from passthru.errors import PassthruError
from passthru.panel_data import (
    DECADE_SCHEMA,
    DecadeWindow,
    EmptyWindowError,
    PanelDataset,
    TransformSpec,
    apply_transform,
    window,
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

    Auxiliaries are materialized (so interactions can reference them) but are
    not regressors themselves. min_obs defaults to k + 3, leaving at least
    three residual degrees of freedom inside a decade window.
    """

    dependent: Term
    regressors: tuple[Term, ...]
    auxiliaries: tuple[Term, ...] = ()
    include_constant: bool = True
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
        return len(self.regressors) + (1 if self.include_constant else 0)

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
        names = tuple(t.name for t in self.regressors)
        return ("const", *names) if self.include_constant else names


def build_passthrough_spec(
    price_var: str = "cpi",
    cost_var: str = "ulc",
    controls: Sequence[str] = (),
    with_globalisation: bool = False,
    with_lagged_inflation: bool = False,
    globalisation_var: str = "kof",
    include_constant: bool = True,
    min_obs: int | None = None,
) -> ModelSpec:
    """Dynamic pass-through design: inflation on its own lag and cost growth.

    Optional pieces add the globalisation level plus its interaction with cost
    growth, and/or the interaction of cost growth with inflation lagged twice
    (the lag reduces endogeneity). Interaction inputs are built on the full
    series, before any decade windowing.
    """
    dep = Term(f"dln_{price_var}", TransformSpec.log_diff(price_var))
    regs: list[Term] = [
        Term(f"{dep.name}_lag1", TransformSpec.lag(dep.name, 1), role="lag_dep"),
        Term(f"dln_{cost_var}", TransformSpec.log_diff(cost_var), role="cost"),
    ]
    aux: list[Term] = []
    for ctrl in controls:
        regs.append(Term(ctrl, TransformSpec.identity(ctrl), role="control"))
    if with_globalisation:
        regs.append(Term(globalisation_var, TransformSpec.identity(globalisation_var), role="level"))
        regs.append(
            Term(
                f"dln_{cost_var}_x_{globalisation_var}",
                TransformSpec.product(f"dln_{cost_var}", globalisation_var),
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
        include_constant=include_constant,
        min_obs=min_obs,
    )


def materialize_design(ds: PanelDataset, spec: ModelSpec) -> PanelDataset:
    """Add every series the spec needs; names already present are reused."""
    out = ds
    for term in (spec.dependent, *spec.auxiliaries, *spec.regressors):
        if term.name in out.variables:
            continue
        out = apply_transform(out, term.transform, term.name)
    return out


@dataclass(frozen=True, eq=False)
class CountryFit:
    country: str
    columns: tuple[str, ...]
    coefficients: np.ndarray | None
    n_obs: int
    sigma: float
    ssr: float
    dof: int
    usable: bool
    reason: str | None = None

    def coef(self, name: str) -> float:
        if self.coefficients is None:
            raise MgError(f"{self.country}: no coefficients ({self.reason})")
        return float(self.coefficients[self.columns.index(name)])


def fit_countries(
    ds: PanelDataset, spec: ModelSpec, countries: Sequence[str] | None = None
) -> tuple[CountryFit, ...]:
    """OLS on each country's complete rows, in the order of `countries` (default: all).

    Countries with equal counts of complete rows are stacked and fitted together
    by `ols_stack`, whose slices do not depend on their stack: each fit is
    `ols_fit` on that country's design. Rows are never zero-padded, as padding
    changes the QR's rounding. Short or singular samples come back unusable.
    """
    countries = ds.countries if countries is None else tuple(countries)
    try:
        pos = ds.country_positions(countries)
    except KeyError as exc:
        raise UnknownCountryError(exc.args[0]) from None
    names = [spec.dependent.name] + [t.name for t in spec.regressors]
    values, complete = ds.complete_cells(names)
    values, complete = values[:, pos], complete[pos]
    counts = complete.sum(axis=1)
    columns = spec.design_columns
    fits: list[CountryFit | None] = [None] * len(countries)
    for n in sorted(set(counts.tolist())):
        group = np.flatnonzero(counts == n)
        if n < spec.min_obs_effective:
            for g in group:
                fits[g] = CountryFit(countries[g], (), None, n, math.nan, math.nan, 0, False, "TooFewRows")
            continue
        block = values[:, group][:, complete[group]].reshape(len(names), len(group), n)
        x = np.moveaxis(block[1:], 0, -1)
        if spec.include_constant:
            x = np.concatenate([np.ones((len(group), n, 1)), x], axis=2)
        ok, coef, fitted, _ = ols_stack(np.ascontiguousarray(x), block[0])
        dof = n - spec.k
        for g, fine, b, e in zip(group, ok, coef, block[0] - fitted):
            if not fine:
                fits[g] = CountryFit(countries[g], (), None, n, math.nan, math.nan, 0, False, "SingularDesign")
            else:
                s = float(e @ e)  # dof >= 2: min_obs is at least k + 2
                fits[g] = CountryFit(countries[g], columns, b, n, math.sqrt(s / dof), s, dof, True)
    return tuple(fits)


def fit_country(ds: PanelDataset, spec: ModelSpec, country: str) -> CountryFit:
    """OLS on one country's complete rows: `fit_countries` on that country alone."""
    return fit_countries(ds, spec, (country,))[0]


@dataclass(frozen=True, eq=False)
class MgResult:
    columns: tuple[str, ...]
    coefficients: np.ndarray
    covariance: np.ndarray
    se: np.ndarray
    n_countries: int
    total_obs: int
    sigma_pooled: float
    fits: tuple[CountryFit, ...] = ()

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.columns.index(name)])

    def se_of(self, name: str) -> float:
        return float(self.se[self.columns.index(name)])


def mean_group(fits: Iterable[CountryFit]) -> MgResult:
    """Average usable country fits; SEs from cross-country coefficient dispersion.

    covariance = (1 / (N (N-1))) * sum_i (theta_i - mean)(theta_i - mean)'.
    Pooled sigma stacks residual variation: sqrt(sum SSR_i / sum dof_i).
    Sums are compensated, so reordering countries changes nothing, bit for bit.
    """
    fits = tuple(fits)
    usable = [f for f in fits if f.usable]
    n = len(usable)
    if n < 2:
        raise TooFewCountriesError(f"need >= 2 usable countries, have {n}")
    columns = usable[0].columns
    if any(f.columns != columns for f in usable):
        raise MgError("usable fits disagree on design columns")

    matrix = np.vstack([f.coefficients for f in usable])
    k = matrix.shape[1]
    theta = np.array([math.fsum(matrix[:, j]) for j in range(k)]) / n
    dev = matrix - theta
    cov = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            cov[a, b] = cov[b, a] = math.fsum(dev[:, a] * dev[:, b]) / (n * (n - 1))
    total_dof = sum(f.dof for f in usable)
    sigma_pooled = (
        math.sqrt(math.fsum(f.ssr for f in usable) / total_dof) if total_dof > 0 else math.nan
    )
    return MgResult(
        columns=columns,
        coefficients=theta,
        covariance=cov,
        se=np.sqrt(np.diag(cov)),
        n_countries=n,
        total_obs=sum(f.n_obs for f in usable),
        sigma_pooled=sigma_pooled,
        fits=fits,
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


def wald_joint(r: MgResult, slots: Sequence[str] | None = None) -> tuple[float, int, float]:
    """Chi-square test that the selected coefficients are jointly zero.

    Defaults to every non-constant slope, one statistic per results column.
    """
    if slots is None:
        slots = [c for c in r.columns if c != "const"]
    slots = list(slots)
    if "const" in slots:
        raise MgError("the constant is not part of a joint slope test")
    if not slots:
        raise MgError("empty slot subset")
    idx = _slot_indices(r, slots)
    theta = r.coefficients[idx]
    v = r.covariance[np.ix_(idx, idx)]
    sv = np.linalg.svd(v, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * sv[0] or sv[0] == 0.0:
        raise SingularCovarianceError(f"restricted covariance for {slots} is singular")
    stat = float(theta @ np.linalg.solve(v, theta))
    dof = len(idx)
    return stat, dof, _chi2_sf(stat, dof)


@dataclass(frozen=True)
class PassThroughRow:
    country: str
    decade: str
    passthrough: float
    kof: float | None
    em6: float | None
    em10: float | None
    avg_inflation: float | None

    def covariate(self, name: str) -> float | None:
        return getattr(self, name)


@dataclass(frozen=True)
class Exclusion:
    country: str
    decade: str
    reason: str


@dataclass(frozen=True)
class PassThroughPanel:
    """Estimated pass-through per (country, decade) with decade covariates."""

    rows: tuple[PassThroughRow, ...]
    exclusions: tuple[Exclusion, ...] = ()

    def __len__(self) -> int:
        return len(self.rows)


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
    materialized = materialize_design(ds, spec)
    excluded = set(exclude)
    rows: list[PassThroughRow] = []
    exclusions: list[Exclusion] = []

    for w in windows:
        try:
            sub = window(materialized, w)
        except EmptyWindowError:
            exclusions.append(Exclusion("*", w.label, "EmptyWindow"))
            continue
        fits = iter(fit_countries(sub, spec, [c for c in sub.countries if c not in excluded]))
        for country in materialized.countries:
            if country in excluded:
                exclusions.append(Exclusion(country, w.label, "ExcludedByConfig"))
                continue
            fit = next(fits)
            if not fit.usable:
                exclusions.append(Exclusion(country, w.label, fit.reason or "unusable"))
                continue
            values: dict[str, float | None] = {}
            for var in DECADE_SCHEMA:
                val = None
                if decade_data is not None and var in decade_data.variables:
                    val = decade_data.value(var, country, w.start_year)
                if val is None and var in materialized.variables:
                    obs = [
                        v for yr in sub.years
                        if (v := materialized.value(var, country, yr)) is not None
                    ]
                    if obs:
                        val = sum(obs) / len(obs)
                values[var] = val
            dep_obs = [
                v for yr in sub.years
                if (v := sub.value(spec.dependent.name, country, yr)) is not None
            ]
            avg_inflation = sum(dep_obs) / len(dep_obs) if dep_obs else None
            rows.append(
                PassThroughRow(
                    country=country,
                    decade=w.label,
                    passthrough=fit.coef(cost),
                    kof=values.get("kof"),
                    em6=values.get("em6"),
                    em10=values.get("em10"),
                    avg_inflation=avg_inflation,
                )
            )
    return PassThroughPanel(tuple(rows), tuple(exclusions))


def pooled_fixed_effects(ds: PanelDataset, spec: ModelSpec) -> OlsFit:
    """Within (entity-demeaned) OLS pooling all countries, for comparison with MG."""
    names = [spec.dependent.name] + [t.name for t in spec.regressors]
    values, complete = ds.complete_cells(names)
    if np.count_nonzero(complete) < len(spec.regressors) + 2:
        raise TooFewCountriesError("not enough pooled rows")
    rows = values[:, complete]  # country by country, years ascending
    groups = [ds.countries[i] for i in np.nonzero(complete)[0].tolist()]
    design = DesignMatrix(x=np.ascontiguousarray(rows[1:].T), y=rows[0], columns=tuple(t.name for t in spec.regressors))
    return ols_fit(within_transform(design, groups))

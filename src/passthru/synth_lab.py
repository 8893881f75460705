"""Synthetic panels with known parameters, and a Monte Carlo harness.

The generating process mirrors the estimated model: cost growth follows an
AR(1), inflation follows the dynamic pass-through recursion with
country-specific slopes, and index levels are rebuilt by exponentiating
cumulated growth so the ingestion pipeline's log-difference recovers the
simulated rates exactly.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from passthru.errors import PassthruError
from passthru.kvconfig import number_parser
from passthru.mg_panel import (
    MgResult,
    ModelSpec,
    fit_countries,
    materialize_design,
    mean_group,
    pooled_fixed_effects,
)
from passthru.panel_data import PanelDataset

Z90 = 1.6448536269514722  # standard normal 95th percentile: two-sided 90% band

_STATIONARY_BOUND = 0.95
_REDRAW_LIMIT = 1000


class InvalidParamsError(PassthruError):
    pass


@dataclass(frozen=True)
class DgpParams:
    """Generating-process settings for a heterogeneous dynamic panel."""

    n_countries: int = 21
    n_years: int = 40
    rho: float = 0.4
    lam: float = 0.25
    sigma_mu1: float = 0.1
    sigma_mu2: float = 0.1
    alpha_mean: float = 0.01
    alpha_sd: float = 0.0
    sigma_eps: float = 0.01
    cost_ar: float = 0.5
    cost_sd: float = 0.02
    lambda_schedule: tuple[float, ...] | None = None
    start_year: int = 1980
    burn_in: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.n_countries < 1:
            raise InvalidParamsError("need at least one country")
        if self.n_years < 10:
            raise InvalidParamsError("need at least 10 years")
        for name in ("sigma_mu1", "sigma_mu2", "alpha_sd", "sigma_eps", "cost_sd", "burn_in", "seed"):
            if getattr(self, name) < 0:
                raise InvalidParamsError(f"{name} must be non-negative")
        if abs(self.rho) >= _STATIONARY_BOUND and self.sigma_mu1 == 0.0:
            raise InvalidParamsError(f"|rho| must stay below {_STATIONARY_BOUND}")
        if abs(self.cost_ar) >= 1.0:
            raise InvalidParamsError("cost_ar must be inside the unit circle")
        if self.lambda_schedule is not None and not self.lambda_schedule:
            raise InvalidParamsError("lambda_schedule must not be empty")


@dataclass(frozen=True)
class CountryTruth:
    country: str
    rho_i: float
    lam_i: float  # base value; schedule offsets add mu2 per decade
    alpha_i: float


def _draw_rho(p: DgpParams, rng: np.random.Generator) -> float:
    for _ in range(_REDRAW_LIMIT):
        rho_i = p.rho + rng.normal(0.0, p.sigma_mu1) if p.sigma_mu1 > 0 else p.rho
        if abs(rho_i) < _STATIONARY_BOUND:
            return rho_i
    raise InvalidParamsError("could not draw a stationary persistence coefficient")


def _ar1(x: np.ndarray, coef: float | np.ndarray) -> np.ndarray:
    """First-order recursion y[..., t] = x[..., t] + coef * y[..., t-1] along the last axis, from rest.

    `coef` is a scalar or holds one coefficient per row of a 2-d `x`.
    """
    out = np.empty_like(x)
    prev = np.zeros(x.shape[:-1])
    for t in range(x.shape[-1]):
        prev = x[..., t] + coef * prev
        out[..., t] = prev
    return out


def _lambda_path(p: DgpParams, mu2: float, total: int) -> np.ndarray:
    """Per-period pass-through over burn-in plus emitted years."""
    if p.lambda_schedule is None:
        return np.full(total, p.lam + mu2)
    sched = p.lambda_schedule
    path = np.empty(total)
    path[: p.burn_in] = sched[0] + mu2
    for j in range(p.burn_in, total):
        decade = min((j - p.burn_in) // 10, len(sched) - 1)
        path[j] = sched[decade] + mu2
    return path


def generate_panel(
    p: DgpParams,
    seed: int | Sequence[int] | None = None,
    include_growth: bool = False,
    return_truth: bool = False,
):
    """Simulate the panel; deterministic for a given seed.

    Emits the full ingestion schema (cpi, core_cpi, ulc, earnings_h, gaps,
    openness series) so any pipeline preset runs on the output; core mirrors
    headline and earnings mirror unit labour costs in this synthetic world.
    With include_growth, the true growth-rate series ride along for
    round-trip checks. With return_truth, the drawn country parameters are
    returned next to the dataset.
    """
    rng = np.random.default_rng(p.seed if seed is None else seed)
    total = p.burn_in + p.n_years
    years = list(range(p.start_year, p.start_year + p.n_years))
    countries = [f"C{i:02d}" for i in range(p.n_countries)]
    ramp = np.linspace(0.0, 1.0, p.n_years)

    n = p.n_countries
    rho, alpha = np.empty(n), np.empty(n)
    lam_path, cost_innov, eps = np.empty((n, total)), np.empty((n, total)), np.empty((n, total))
    output_gap, unemp_gap, kof_noise, em6_noise = np.empty((4, n, p.n_years))
    truths: list[CountryTruth] = []
    # draws country by country, in a fixed order; the arithmetic then runs on all countries at once
    for i, country in enumerate(countries):
        rho_i = _draw_rho(p, rng)
        mu2 = rng.normal(0.0, p.sigma_mu2) if p.sigma_mu2 > 0 else 0.0
        alpha_i = p.alpha_mean + (rng.normal(0.0, p.alpha_sd) if p.alpha_sd > 0 else 0.0)
        truths.append(CountryTruth(country, rho_i, p.lam + mu2, alpha_i))
        rho[i], alpha[i], lam_path[i] = rho_i, alpha_i, _lambda_path(p, mu2, total)
        cost_innov[i] = rng.normal(0.0, p.cost_sd, total)
        eps[i] = rng.normal(0.0, p.sigma_eps, total)
        output_gap[i] = rng.normal(0.0, 0.01, p.n_years)
        unemp_gap[i] = rng.normal(0.0, 0.01, p.n_years)
        kof_noise[i] = rng.normal(0.0, 0.005, p.n_years)
        em6_noise[i] = rng.normal(0.0, 0.05, p.n_years)

    dc = _ar1(cost_innov, p.cost_ar)
    dp = _ar1(lam_path * dc + alpha[:, None] + eps, rho)
    dp_keep = dp[:, p.burn_in:]
    dc_keep = dc[:, p.burn_in:]
    cpi = 100.0 * np.exp(np.cumsum(dp_keep, axis=1))
    ulc = 100.0 * np.exp(np.cumsum(dc_keep, axis=1))
    kof = 0.65 + 0.2 * ramp + kof_noise
    em6 = 0.004 * np.exp(2.0 * ramp) * np.exp(em6_noise)
    em10 = 1.4 * em6

    names = ("cpi", "core_cpi", "ulc", "earnings_h", "output_gap", "unemp_gap", "kof", "em6", "em10")
    layers = [cpi, cpi, ulc, ulc, output_gap, unemp_gap, kof, em6, em10]
    if include_growth:
        names += ("cpi_growth", "ulc_growth")
        layers += [dp_keep, dc_keep]
    ds = PanelDataset.from_arrays(countries, years, names, np.stack(layers))
    return (ds, tuple(truths)) if return_truth else ds


@dataclass(frozen=True)
class SlotStats:
    truth: float
    mean_estimate: float
    bias: float
    rmse: float
    coverage: float


@dataclass(frozen=True)
class McReport:
    reps: int
    estimator: str
    slots: dict[str, SlotStats]

    def to_json_dict(self) -> dict:
        return {
            "reps": self.reps,
            "estimator": self.estimator,
            "slots": {
                name: {
                    "truth": s.truth,
                    "mean_estimate": s.mean_estimate,
                    "bias": s.bias,
                    "rmse": s.rmse,
                    "coverage": s.coverage,
                }
                for name, s in self.slots.items()
            },
        }


def default_truths(p: DgpParams, spec: ModelSpec) -> dict[str, float]:
    """Map design slots to their generating-process values."""
    truths: dict[str, float] = {}
    lag_dep = spec.slot("lag_dep")
    cost = spec.slot("cost")
    if lag_dep:
        truths[lag_dep] = p.rho
    if cost:
        truths[cost] = p.lam
    if spec.include_constant:
        truths["const"] = p.alpha_mean
    return truths


def _mg_estimate(ds: PanelDataset, spec: ModelSpec) -> MgResult:
    return mean_group(fit_countries(materialize_design(ds, spec), spec))


def _replicate(p: DgpParams, spec: ModelSpec, slots: tuple[str, ...], estimator: str, rep: int) -> dict:
    """Replication rep: (estimate, standard error) of each slot."""
    ds = generate_panel(p, seed=(p.seed, rep))
    if estimator == "mg":
        r = _mg_estimate(ds, spec)
        return {name: (r.coef(name), r.se_of(name)) for name in slots}
    fit = pooled_fixed_effects(materialize_design(ds, spec), spec)
    return {name: (fit.coef(name), fit.se_classical(name)) for name in slots}


def monte_carlo(
    p: DgpParams,
    spec: ModelSpec,
    reps: int,
    truths: Mapping[str, float] | None = None,
    estimator: str = "mg",
    n_jobs: int = 1,
) -> McReport:
    """Repeat generate-and-estimate; report bias, RMSE, and 90% CI coverage.

    n_jobs > 1 runs replications in spawned worker processes. Replication r
    uses the derived seed (p.seed, r), so results do not depend on scheduling,
    and a longer run extends a shorter one rep for rep.
    Aggregation uses compensated summation, making it order-independent.
    """
    if reps < 2:
        raise InvalidParamsError("need at least 2 replications")
    if estimator not in ("mg", "pooled_fe"):
        raise InvalidParamsError(f"unknown estimator {estimator!r}")
    truths = dict(truths) if truths is not None else default_truths(p, spec)
    if estimator == "pooled_fe":
        truths.pop("const", None)  # absorbed by the within transform
    if not truths:
        raise InvalidParamsError("no slots with known true values")

    one = partial(_replicate, p, spec, tuple(truths), estimator)
    if n_jobs > 1:
        with ProcessPoolExecutor(n_jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(one, range(reps)))
    else:
        results = [one(rep) for rep in range(reps)]

    slots: dict[str, SlotStats] = {}
    for name, truth in truths.items():
        estimates = [results[r][name][0] for r in range(reps)]
        ses = [results[r][name][1] for r in range(reps)]
        errors = [e - truth for e in estimates]
        bias = math.fsum(errors) / reps
        rmse = math.sqrt(math.fsum(e * e for e in errors) / reps)
        covered = sum(1 for e, s in zip(estimates, ses) if abs(e - truth) <= Z90 * s)
        slots[name] = SlotStats(
            truth=truth,
            mean_estimate=math.fsum(estimates) / reps,
            bias=bias,
            rmse=rmse,
            coverage=covered / reps,
        )
    return McReport(reps=reps, estimator=estimator, slots=slots)


# Config key (after "dgp.") -> DgpParams field and its parser, read off the field's
# annotation; lambda_schedule is a comma-separated list and is handled on its own.
_DGP_KEYS = {
    {"n_countries": "countries", "n_years": "years"}.get(f.name, f.name): (f.name, number_parser(f.type))
    for f in fields(DgpParams)
    if f.name != "lambda_schedule"
}


def dgp_params_from_mapping(mapping: Mapping[str, str]) -> DgpParams:
    """Build DgpParams from flat `dgp.key = value` config entries."""
    kwargs: dict = {}
    for key, raw in mapping.items():
        if not key.startswith("dgp."):
            continue
        short = key[len("dgp."):]
        if short == "lambda_schedule":
            kwargs["lambda_schedule"] = tuple(float(v) for v in raw.split(",") if v.strip())
            continue
        if short not in _DGP_KEYS:
            raise InvalidParamsError(f"unknown generator setting {key!r}")
        attr, cast = _DGP_KEYS[short]
        try:
            kwargs[attr] = cast(raw)
        except ValueError:
            raise InvalidParamsError(f"{key}: cannot parse {raw!r}") from None
    return DgpParams(**kwargs)


def dgp_params_to_mapping(p: DgpParams) -> dict[str, str]:
    """Flat config entries that dgp_params_from_mapping turns back into p."""
    mapping = {f"dgp.{key}": str(getattr(p, attr)) for key, (attr, _) in _DGP_KEYS.items()}
    if p.lambda_schedule is not None:
        mapping["dgp.lambda_schedule"] = ",".join(str(v) for v in p.lambda_schedule)
    return mapping

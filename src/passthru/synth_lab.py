"""Synthetic panels with known parameters, and a Monte Carlo harness.

The generating process mirrors the estimated model: cost growth follows an
AR(1), inflation follows the dynamic pass-through recursion with
country-specific slopes, and index levels are rebuilt by exponentiating
cumulated growth so the ingestion pipeline's log-difference recovers the
simulated rates to within rounding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from numbers import Integral, Real
from typing import Callable, Mapping, Sequence

import numpy as np

from passthru.accumulator import exact_sums
from passthru.errors import PassthruError
from passthru.mg_panel import (
    ModelSpec,
    country_arrays,
    materialize_design,
    mean_group_moments,
    pooled_fixed_effects,
)
from passthru.panel_data import PANEL_SCHEMA, PanelDataset, country_span
from passthru.pools import map_tasks

Z90 = 1.6448536269514722  # standard normal 95th percentile: two-sided 90% band

_STATIONARY_BOUND = 0.95
_REDRAW_LIMIT = 1000
# At most BLOCK_REPS replications are stacked into one panel by monte_carlo. In one
# process a replication of the 21 x 40 headline run takes 0.72-0.82 ms of CPU in
# blocks of 10 to 100, so a larger cap only saves pool round trips (50 replications
# on 2 workers are 2 tasks of 25, not 6 of 8 or 9); a block's traced peak grows by
# 0.18 MiB per replication, to 4.5 MiB at 25.
BLOCK_REPS = 25


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
        schedule = self.lambda_schedule
        if schedule is not None and not isinstance(schedule, tuple):
            raise InvalidParamsError(f"lambda_schedule must be a tuple, got {schedule!r}")
        checks = [(f.name, f.type, getattr(self, f.name)) for f in fields(self) if f.type in ("int", "float")]
        checks += [(f"lambda_schedule[{i}]", "float", value) for i, value in enumerate(schedule or ())]
        for name, kind, value in checks:
            if isinstance(value, bool) or not isinstance(value, Integral if kind == "int" else Real):
                raise InvalidParamsError(f"{name} must be {'an int' if kind == 'int' else 'a real number'}, got {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise InvalidParamsError(f"{name} must be finite, got {value!r}")
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
        if self.lambda_schedule is not None and self.start_year % 10 != 0:
            # entry d covers years start_year + 10 d .. + 9, which must be a DecadeWindow
            raise InvalidParamsError(f"start_year must be a multiple of 10 with a schedule, got {self.start_year}")


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


def _lambda_base(p: DgpParams, total: int) -> np.ndarray:
    """Per-period pass-through over burn-in plus emitted years, before a country's offset mu2."""
    if p.lambda_schedule is None:
        return np.full(total, p.lam)
    decade = np.minimum(np.maximum(np.arange(total) - p.burn_in, 0) // 10, len(p.lambda_schedule) - 1)
    return np.array(p.lambda_schedule)[decade]


def _draw_countries(p: DgpParams, rng: np.random.Generator, z_cols: int):
    """One seed's countries: each one's rho_i, mu2_i, alpha_i and `z_cols` standard normal series draws.

    Country by country, the generator draws rho_i, redrawing it while it leaves
    the stationary bound (at most _REDRAW_LIMIT times), then mu2_i and alpha_i
    (each only when its sd is positive), then the series draws. One
    standard_normal call with a row per country draws that stream; a rejected
    rho_i candidate is deleted from it and one more normal appended, which
    shifts the later draws as the redraw does.
    """
    m = p.n_countries
    sds = [sd for sd in (p.sigma_mu1, p.sigma_mu2, p.alpha_sd) if sd > 0]
    width = len(sds) + z_cols
    flat = rng.standard_normal(m * width)
    rejected = np.zeros(m, dtype=int)
    # rng.normal(0, sd, size) is 0 + sd * (standard normal draws), value for value
    while p.sigma_mu1 > 0:
        outside = np.abs(p.rho + (0.0 + p.sigma_mu1 * flat[::width])) >= _STATIONARY_BOUND
        if not outside.any():
            break
        i = int(np.argmax(outside))  # the first country whose rho_i candidate is rejected
        rejected[i] += 1
        if rejected[i] == _REDRAW_LIMIT:
            raise InvalidParamsError("could not draw a stationary persistence coefficient")
        flat = np.append(np.delete(flat, i * width), rng.standard_normal(1))
    z = flat.reshape(m, width)
    offsets = iter([0.0 + sd * z[:, j] for j, sd in enumerate(sds)])
    rho = p.rho + next(offsets) if p.sigma_mu1 > 0 else np.full(m, p.rho)
    mu2 = next(offsets) if p.sigma_mu2 > 0 else np.zeros(m)
    alpha = p.alpha_mean + (next(offsets) if p.alpha_sd > 0 else np.zeros(m))
    return rho, mu2, alpha, z[:, len(sds):]


def _simulate(p: DgpParams, seeds: Mapping[str, int | Sequence[int]], names: Sequence[str] = PANEL_SCHEMA):
    """One panel per seed, stacked on the country axis, and each country's drawn rho_i, mu2_i and alpha_i.

    Seed `tag`'s countries are `tag + "C00"`, `tag + "C01"`, ... Each seed's
    generator draws all its countries in one call (see `_draw_countries`); the
    arithmetic then runs on all rows at once and is element-wise per row, so a
    panel's cells do not depend on the panels stacked with it. The panel holds
    the series `names`, in that order, from PANEL_SCHEMA, cpi_growth and
    ulc_growth. Only they are built, each written into one (series, countries,
    years) array; the draws do not depend on which series are built.
    """
    total = p.burn_in + p.n_years
    # a country's series draws, in order: cost and price shocks over burn-in plus
    # emitted years, then output gap, unemployment gap, kof and em6 noise
    z_cols = 2 * total + 4 * p.n_years
    draws = [_draw_countries(p, np.random.default_rng(seed), z_cols) for seed in seeds.values()]
    rho, mu2, alpha, z = (np.concatenate(parts) for parts in zip(*draws))
    cuts = np.cumsum([0, total, total] + [p.n_years] * 4)
    sds = (p.cost_sd, p.sigma_eps, 0.01, 0.01, 0.005, 0.05)
    shock = lambda k: 0.0 + sds[k] * z[:, cuts[k]:cuts[k + 1]]  # noqa: E731

    dc = _ar1(shock(0), p.cost_ar)
    dp = _ar1((_lambda_base(p, total) + mu2[:, None]) * dc + alpha[:, None] + shock(1), rho)
    dp_keep = dp[:, p.burn_in:]
    dc_keep = dc[:, p.burn_in:]
    ramp = np.linspace(0.0, 1.0, p.n_years)
    em6 = lambda: 0.004 * np.exp(2.0 * ramp) * np.exp(shock(5))  # noqa: E731
    recipes = {
        "cpi": lambda: 100.0 * np.exp(np.cumsum(dp_keep, axis=1)),
        "ulc": lambda: 100.0 * np.exp(np.cumsum(dc_keep, axis=1)),
        "output_gap": lambda: shock(2),
        "unemp_gap": lambda: shock(3),
        "kof": lambda: 0.65 + 0.2 * ramp + shock(4),
        "em6": em6,
        "em10": lambda: 1.4 * em6(),
        "cpi_growth": lambda: dp_keep,
        "ulc_growth": lambda: dc_keep,
    }
    recipes["core_cpi"], recipes["earnings_h"] = recipes["cpi"], recipes["ulc"]
    values = np.empty((len(names), len(rho), p.n_years))
    for v, name in enumerate(names):
        values[v] = recipes[name]()
    countries = [f"{tag}C{j:02d}" for tag in seeds for j in range(p.n_countries)]
    years = range(p.start_year, p.start_year + p.n_years)
    return PanelDataset(countries, years, names, values), rho, mu2, alpha


def generate_panel(p: DgpParams, seed: int | Sequence[int] | None = None) -> PanelDataset:
    """Simulate the panel; deterministic for a given seed, p.seed by default.

    Emits the full ingestion schema (cpi, core_cpi, ulc, earnings_h, gaps,
    openness series) so any pipeline preset runs on the output; core mirrors
    headline and earnings mirror unit labour costs in this synthetic world.
    This is the one-panel case of the simulator `monte_carlo` stacks its
    replications with.
    """
    return _simulate(p, {"": p.seed if seed is None else seed})[0]


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
        return asdict(self)


def default_truths(p: DgpParams, spec: ModelSpec) -> dict[str, float]:
    """Map design slots to their generating-process values: persistence, cost pass-through and the constant."""
    slots = (spec.slot("lag_dep"), spec.slot("cost"), "const")
    return {slot: truth for slot, truth in zip(slots, (p.rho, p.lam, p.alpha_mean)) if slot}


def _mean_group_fit(ds: PanelDataset, spec: ModelSpec, n: int, slots: tuple[str, ...]):
    """Mean group of each replication's n countries, each bit for bit `mean_group` of its countries alone."""
    found, columns = country_arrays(ds, spec), spec.design_columns
    theta, cov = mean_group_moments(found.coefficients.reshape(-1, n, spec.k), found.usable.reshape(-1, n), columns)
    idx = [columns.index(name) for name in slots]
    return theta[:, idx], np.sqrt(cov[:, idx, idx])


def _pooled_fe_fit(ds: PanelDataset, spec: ModelSpec, n: int, slots: tuple[str, ...]):
    """Within OLS of each replication's n countries on their own, with classical standard errors."""
    fits = [pooled_fixed_effects(country_span(ds, b, b + n), spec) for b in range(0, len(ds.countries), n)]
    return np.moveaxis(np.array([[(f.coef(name), f.se_classical(name)) for name in slots] for f in fits]), 2, 0)


# Monte Carlo estimators: name -> (block fit, slots). slots(p, spec) maps each slot the estimator reports to its
# truth (pooled_fe has no const: the within transform absorbs it); a block fit maps a block's design, spec,
# countries per replication and slots to (replications, slots) estimates and SEs.
ESTIMATORS: dict[str, tuple[Callable, Callable]] = {
    "mg": (_mean_group_fit, default_truths),
    "pooled_fe": (_pooled_fe_fit, lambda p, spec: {s: t for s, t in default_truths(p, spec).items() if s != "const"}),
}


def _block(p: DgpParams, spec: ModelSpec, slots: tuple[str, ...], fit: Callable, reps: range):
    """`fit`'s (replications, slots) estimates and standard errors of replications `reps`, as one stacked panel.

    Replication r is `generate_panel(p, seed=(p.seed, r))`, the block's next
    p.n_countries countries, less the simulated series that the spec's terms
    do not name (as a term or an operand), so `materialize_design` reads the
    same series as on the full panel. The design is built once for the block.
    """
    terms = (spec.dependent, *spec.auxiliaries, *spec.regressors)
    read = {name for t in terms for name in (t.name, t.transform.source, t.transform.other)}
    names = tuple(name for name in PANEL_SCHEMA if name in read)
    ds = materialize_design(_simulate(p, {f"R{rep}:": (p.seed, rep) for rep in reps}, names)[0], spec)
    return fit(ds, spec, p.n_countries, slots)


def monte_carlo(
    p: DgpParams,
    spec: ModelSpec,
    reps: int,
    estimator: str = "mg",
    n_jobs: int = 1,
) -> McReport:
    """Repeat generate-and-estimate; report bias, RMSE, and 90% CI coverage.

    Replications run in blocks of consecutive ones, each block one stacked
    panel (see `_block`): ceil(reps / BLOCK_REPS) blocks, rounded up to a
    multiple of the worker count, whose sizes differ by at most one, so every
    worker fits an equal share and no block holds more than BLOCK_REPS.
    Replication r uses the derived seed (p.seed, r), and stacking leaves every
    replication's estimate bit for bit as a fit of
    `generate_panel(p, seed=(p.seed, r))` alone, so a longer run extends a
    shorter one rep for rep. Aggregation uses exactly rounded sums, making it
    order-independent.

    `estimator` names an entry of ESTIMATORS, whose slots give the slots
    reported and their truths. reps is an integer >= 2 (any Integral but a
    bool, as in the int fields of DgpParams); both are checked before any
    replication runs. n_jobs, an integer >= 1, caps the worker processes:
    blocks run on min(n_jobs, ceil(reps / BLOCK_REPS)) workers, and in the
    calling process when that is 1. Workers are forked, on the pool that
    `passthru.pools.map_tasks` keeps between calls (see there for reuse,
    resizing, errors and os.fork). Reports do not depend on n_jobs.
    """
    for name, value, least in (("reps", reps, 2), ("n_jobs", n_jobs, 1)):
        if not isinstance(value, Integral) or isinstance(value, bool) or value < least:
            raise InvalidParamsError(f"{name} must be an int of at least {least}, got {value!r}")
    reps, n_jobs = int(reps), int(n_jobs)
    if not isinstance(estimator, str) or estimator not in ESTIMATORS:
        raise InvalidParamsError(f"unknown estimator {estimator!r}")
    fit, slots_of = ESTIMATORS[estimator]
    truths = slots_of(p, spec)
    if not truths:
        raise InvalidParamsError("no slots with known true values")

    run = partial(_block, p, spec, tuple(truths), fit)
    count = -(-reps // BLOCK_REPS)
    workers = min(n_jobs, count)
    count = -(-count // workers) * workers
    cuts = [reps * b // count for b in range(count + 1)]
    blocks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    done = map_tasks(run, blocks, workers)
    estimates, ses = np.concatenate(done, axis=1)  # (reps, slots) each
    errors = estimates - np.array(list(truths.values()), dtype=float)
    moments = np.stack([estimates, errors, errors * errors], axis=1)
    sums = exact_sums(moments) / reps
    covered = np.count_nonzero(np.abs(errors) <= Z90 * ses, axis=0)
    slots = {
        name: SlotStats(truth=truth, mean_estimate=mean, bias=bias, rmse=math.sqrt(mse), coverage=c / reps)
        for (name, truth), (mean, bias, mse), c in zip(truths.items(), sums.T.tolist(), covered.tolist())
    }
    return McReport(reps=reps, estimator=estimator, slots=slots)


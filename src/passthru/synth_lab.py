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
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from passthru.errors import PassthruError
from passthru.kvconfig import number_parser
from passthru.mg_panel import (
    ModelSpec,
    fit_countries,
    materialize_design,
    mean_group,
    pooled_fixed_effects,
)
from passthru.panel_data import PanelDataset, country_span

Z90 = 1.6448536269514722  # standard normal 95th percentile: two-sided 90% band

_STATIONARY_BOUND = 0.95
_REDRAW_LIMIT = 1000
# Replications stacked into one panel by monte_carlo: time per replication is flat
# from 10 upward, and memory grows with the block.
BLOCK_REPS = 10

# The worker pool monte_carlo keeps between calls, as (creating pid, workers, pool),
# and the lock a call holds while it finds, uses or discards the pool.
_pool: tuple[int, int, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()
# The pid of the process whose first pool started the forkserver. multiprocessing
# keeps that server for the process and its forks alike, and only the process that
# started it can start workers from it.
_server_pid: int | None = None


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
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise InvalidParamsError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        for i, value in enumerate(self.lambda_schedule or ()):
            if not math.isfinite(value):
                raise InvalidParamsError(f"lambda_schedule[{i}] must be finite, got {value!r}")
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


def _lambda_base(p: DgpParams, total: int) -> np.ndarray:
    """Per-period pass-through over burn-in plus emitted years, before a country's offset mu2."""
    if p.lambda_schedule is None:
        return np.full(total, p.lam)
    decade = np.minimum(np.maximum(np.arange(total) - p.burn_in, 0) // 10, len(p.lambda_schedule) - 1)
    return np.array(p.lambda_schedule)[decade]


def _simulate(p: DgpParams, seeds: Mapping[str, int | Sequence[int]], include_growth: bool = False):
    """One panel per seed, stacked on the country axis, and each country's drawn rho_i, mu2_i and alpha_i.

    Seed `tag`'s countries are `tag + "C00"`, `tag + "C01"`, ... Each seed's
    generator draws its countries one by one, in a fixed order; the arithmetic
    then runs on all rows at once and is element-wise per row, so a panel's
    cells do not depend on the panels stacked with it.
    """
    total = p.burn_in + p.n_years
    n = p.n_countries * len(seeds)
    rho, mu2, alpha = np.empty((3, n))
    # a country's series draws, in order: cost and price shocks over burn-in plus
    # emitted years, then output gap, unemployment gap, kof and em6 noise
    z = np.empty((n, 2 * total + 4 * p.n_years))
    rngs = [np.random.default_rng(seed) for seed in seeds.values()]
    for i in range(n):
        rng = rngs[i // p.n_countries]
        rho[i] = _draw_rho(p, rng)
        mu2[i] = rng.normal(0.0, p.sigma_mu2) if p.sigma_mu2 > 0 else 0.0
        alpha[i] = p.alpha_mean + (rng.normal(0.0, p.alpha_sd) if p.alpha_sd > 0 else 0.0)
        z[i] = rng.standard_normal(z.shape[1])
    # rng.normal(0, sd, size) is 0 + sd * (standard normal draws), value for value
    cuts = np.cumsum([0, total, total] + [p.n_years] * 4)
    cost_innov, eps, output_gap, unemp_gap, kof_noise, em6_noise = (
        0.0 + sd * z[:, a:b] for sd, a, b in zip((p.cost_sd, p.sigma_eps, 0.01, 0.01, 0.005, 0.05), cuts, cuts[1:])
    )

    dc = _ar1(cost_innov, p.cost_ar)
    dp = _ar1((_lambda_base(p, total) + mu2[:, None]) * dc + alpha[:, None] + eps, rho)
    dp_keep = dp[:, p.burn_in:]
    dc_keep = dc[:, p.burn_in:]
    cpi = 100.0 * np.exp(np.cumsum(dp_keep, axis=1))
    ulc = 100.0 * np.exp(np.cumsum(dc_keep, axis=1))
    ramp = np.linspace(0.0, 1.0, p.n_years)
    kof = 0.65 + 0.2 * ramp + kof_noise
    em6 = 0.004 * np.exp(2.0 * ramp) * np.exp(em6_noise)
    em10 = 1.4 * em6

    names = ("cpi", "core_cpi", "ulc", "earnings_h", "output_gap", "unemp_gap", "kof", "em6", "em10")
    layers = [cpi, cpi, ulc, ulc, output_gap, unemp_gap, kof, em6, em10]
    if include_growth:
        names += ("cpi_growth", "ulc_growth")
        layers += [dp_keep, dc_keep]
    countries = [f"{tag}C{j:02d}" for tag in seeds for j in range(p.n_countries)]
    years = range(p.start_year, p.start_year + p.n_years)
    return PanelDataset.from_arrays(countries, years, names, np.stack(layers)), rho, mu2, alpha


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
    returned next to the dataset. This is the one-panel case of the simulator
    `monte_carlo` stacks its replications with.
    """
    ds, rho, mu2, alpha = _simulate(p, {"": p.seed if seed is None else seed}, include_growth)
    if not return_truth:
        return ds
    drawn = zip(ds.countries, rho.tolist(), mu2.tolist(), alpha.tolist())
    return ds, tuple(CountryTruth(c, rho_i, p.lam + mu2_i, alpha_i) for c, rho_i, mu2_i, alpha_i in drawn)


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


def _block(p: DgpParams, spec: ModelSpec, slots: tuple[str, ...], estimator: str, reps: range) -> list[dict]:
    """Replications `reps` as one stacked panel: each one's (estimate, standard error) of every slot.

    Replication r is drawn from the generator seeded (p.seed, r), as
    `generate_panel(p, seed=(p.seed, r))` draws it; the design and the country
    fits run once over the block, and each replication's estimate comes from
    its own slice of countries.
    """
    ds = materialize_design(_simulate(p, {f"R{rep}:": (p.seed, rep) for rep in reps})[0], spec)
    n = p.n_countries
    if estimator == "mg":
        fits = fit_countries(ds, spec)
        results = [mean_group(fits[b * n:(b + 1) * n]) for b in range(len(reps))]
        return [{name: (r.coef(name), r.se_of(name)) for name in slots} for r in results]
    pooled = [pooled_fixed_effects(country_span(ds, b * n, (b + 1) * n), spec) for b in range(len(reps))]
    return [{name: (f.coef(name), f.se_classical(name)) for name in slots} for f in pooled]


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The kept forkserver pool of `workers` processes, started or resized as needed."""
    global _pool, _server_pid
    if _pool is not None and _pool[:2] == (os.getpid(), workers):
        return _pool[2]
    _discard_pool()
    _server_pid = _server_pid or os.getpid()
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["passthru.synth_lab"])
    _pool = (os.getpid(), workers, ProcessPoolExecutor(workers, mp_context=context))
    return _pool[2]


def _discard_pool() -> None:
    """Forget the kept pool, shutting it down if this process started it.

    A pool inherited through os.fork belongs to the parent, which still uses
    its queues and workers, so a child only drops its copy.
    """
    global _pool
    kept, _pool = _pool, None
    if kept is not None and kept[0] == os.getpid():
        kept[2].shutdown(wait=True, cancel_futures=True)


def monte_carlo(
    p: DgpParams,
    spec: ModelSpec,
    reps: int,
    truths: Mapping[str, float] | None = None,
    estimator: str = "mg",
    n_jobs: int = 1,
) -> McReport:
    """Repeat generate-and-estimate; report bias, RMSE, and 90% CI coverage.

    Replications run in blocks of BLOCK_REPS consecutive ones, each block one
    stacked panel (see `_block`). Replication r uses the derived seed
    (p.seed, r), and stacking leaves every replication's estimate bit for bit
    as a fit of `generate_panel(p, seed=(p.seed, r))` alone, so a longer run
    extends a shorter one rep for rep. Aggregation uses compensated
    summation, making it order-independent.

    reps is an int >= 2, and every slot of `truths` must be a design column.
    n_jobs, an int >= 1, caps the worker processes: blocks run on
    min(n_jobs, number of blocks) workers, and in the calling process when
    that is 1. Workers fork from a forkserver that has imported this module
    once. A process forked (os.fork) from the one that started the forkserver
    cannot start workers from it, and runs its blocks itself. The pool is
    kept for the next call: a call needing the same number of workers reuses
    it, one needing another number shuts it down and starts a new one, and a
    pool started by another process (before an os.fork) is never reused. An
    exception out of the pool (a worker's error, a dead worker, an interrupt)
    shuts the pool down before it propagates, so the next call starts afresh.
    Idle workers live until the interpreter exits, which joins them; calls
    from several threads take turns on the pool.
    Reports do not depend on n_jobs. On Python 3.11 the server does not see
    `sys.path` entries added at run time (pytest's `pythonpath`, say;
    `PYTHONPATH` is seen) and skips a preload that fails to import; workers
    then import the module themselves, which gives the same results and only
    a slower start.
    """
    for name, value, least in (("reps", reps, 2), ("n_jobs", n_jobs, 1)):
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise InvalidParamsError(f"{name} must be an int of at least {least}, got {value!r}")
    if estimator not in ("mg", "pooled_fe"):
        raise InvalidParamsError(f"unknown estimator {estimator!r}")
    truths = dict(truths) if truths is not None else default_truths(p, spec)
    if estimator == "pooled_fe":
        truths.pop("const", None)  # absorbed by the within transform
    if not truths:
        raise InvalidParamsError("no slots with known true values")
    for slot in truths:
        if slot not in spec.design_columns:
            raise InvalidParamsError(f"truths: unknown slot {slot!r}, the design has {spec.design_columns}")

    run = partial(_block, p, spec, tuple(truths), estimator)
    blocks = [range(start, min(start + BLOCK_REPS, reps)) for start in range(0, reps, BLOCK_REPS)]
    workers = min(n_jobs, len(blocks))
    if workers > 1 and _server_pid in (None, os.getpid()):
        with _pool_lock:
            pool = _worker_pool(workers)
            try:
                done = list(pool.map(run, blocks))
            except BaseException:
                _discard_pool()
                raise
    else:
        done = [run(block) for block in blocks]
    results = [replication for block in done for replication in block]

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


def _parse(key: str, cast: type, text: str):
    try:
        return cast(text)
    except ValueError:
        raise InvalidParamsError(f"{key}: cannot parse {text!r}") from None


def dgp_params_from_mapping(mapping: Mapping[str, str]) -> DgpParams:
    """Build DgpParams from flat `dgp.key = value` config entries."""
    kwargs: dict = {}
    for key, raw in mapping.items():
        if not key.startswith("dgp."):
            continue
        short = key[len("dgp."):]
        if short == "lambda_schedule":
            kwargs[short] = tuple(_parse(key, float, v.strip()) for v in raw.split(",") if v.strip())
        elif short in _DGP_KEYS:
            attr, cast = _DGP_KEYS[short]
            kwargs[attr] = _parse(key, cast, raw)
        else:
            raise InvalidParamsError(f"unknown generator setting {key!r}")
    return DgpParams(**kwargs)


def dgp_params_to_mapping(p: DgpParams) -> dict[str, str]:
    """Flat config entries that dgp_params_from_mapping turns back into p."""
    mapping = {f"dgp.{key}": str(getattr(p, attr)) for key, (attr, _) in _DGP_KEYS.items()}
    if p.lambda_schedule is not None:
        mapping["dgp.lambda_schedule"] = ",".join(str(v) for v in p.lambda_schedule)
    return mapping

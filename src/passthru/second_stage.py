"""Regressions of estimated pass-throughs on log openness, pooled and within.

Six standard specifications: each of the three openness measures, with and
without country fixed effects. The printed layout always carries a constant;
under fixed effects that slot reports the grand mean of the country effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from passthru.errors import PassthruError
from passthru.mg_panel import PassThroughPanel
from passthru.regression_core import (
    DegenerateVarianceError,
    DesignMatrix,
    TooFewRowsError,
    entity_index,
    ols_fit,
    r2_components,
    robust_cov,
    within_transform,
)

COVARIATE_LABELS = {
    "kof": "ln (globalisation index)",
    "em6": "ln (EM-6 import penetration)",
    "em10": "ln (EM-10 import penetration)",
}

TABLE5_ORDER = (
    ("kof", False), ("kof", True),
    ("em6", False), ("em6", True),
    ("em10", False), ("em10", True),
)


class SecondStageError(PassthruError):
    pass


class NonPositiveCovariateError(SecondStageError):
    pass


@dataclass(frozen=True)
class SecondStageResult:
    covariate: str
    coefficient: float
    se: float
    constant: float
    fe: bool
    n: int
    n_countries: int
    r2: float | None = None
    r2_within: float | None = None
    r2_between: float | None = None


def second_stage_fit(panel: PassThroughPanel, covariate: str, fe: bool = False) -> SecondStageResult:
    """Regress pass-through estimates on the log of one openness covariate.

    Rows whose covariate is NaN (missing) are dropped first; remaining values
    must be strictly positive. Robust (HC1) standard error on the slope.
    """
    if covariate not in COVARIATE_LABELS:
        raise SecondStageError(f"unknown covariate {covariate!r}")
    at = np.flatnonzero(~np.isnan(panel.covariates[covariate]))
    n = at.size
    if n < 3:
        raise TooFewRowsError(f"{covariate}: only {n} rows with the covariate observed")
    raw = panel.covariates[covariate][at]
    bad = np.nonzero(raw <= 0.0)[0]
    if bad.size:
        i = at[bad[0]]
        raise NonPositiveCovariateError(f"{covariate}: non-positive value for ({panel.country[i]}, {panel.decade[i]})")
    x = np.log(raw)
    y = panel.passthrough[at]
    countries = [panel.country[i] for i in at.tolist()]
    idx, counts = entity_index(countries)
    col = f"ln_{covariate}"
    design = DesignMatrix(x=x[:, None], y=y, columns=(col,))

    # the pooled design carries a constant; the within design is demeaned by country instead
    if not fe:
        fitted = DesignMatrix(x=np.column_stack([np.ones(n), x]), y=y, columns=("const", col))
    elif counts.max() < 2:
        raise DegenerateVarianceError("within (no country observed twice)")
    else:
        fitted = within_transform(design, countries)
        if fitted.k == 0:
            raise DegenerateVarianceError("within (covariate constant inside every country)")
    fit = ols_fit(fitted)
    slope = fit.coef(col)
    se = math.sqrt(robust_cov(fit, fitted)[-1, -1])

    if fe:
        # grand mean of the per-country effects implied by the within slope
        alphas = [float(y[idx == g].mean() - slope * x[idx == g].mean()) for g in range(len(counts))]
        constant = float(np.mean(alphas))
        r2 = dict(zip(("r2_within", "r2_between"), r2_components(fit, design, countries)))
    else:
        constant, r2 = fit.coef("const"), {"r2": fit.r2}
    return SecondStageResult(
        covariate=covariate,
        coefficient=slope,
        se=se,
        constant=constant,
        fe=fe,
        n=n,
        n_countries=len(counts),
        **r2,
    )


def table5_results(panel: PassThroughPanel) -> tuple[SecondStageResult, ...]:
    """The six standard columns, ordered covariate-major, pooled before FE."""
    return tuple(second_stage_fit(panel, cov, fe) for cov, fe in TABLE5_ORDER)

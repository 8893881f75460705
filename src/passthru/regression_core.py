"""Dense least squares: QR fit, HC1 sandwich covariance, within transform, R2 parts.

One kernel, `ols_stack`, solves every fit (`ols_fit` is one slice of it)
through an orthogonal decomposition on column-norm equilibrated data, never
through raw normal equations; decade-window designs with interaction columns
can be badly conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from passthru.errors import PassthruError

# Relative singular-value cutoff below which a design counts as singular.
SV_RTOL = 1e-10


class RegressionError(PassthruError):
    pass


class SingularDesignError(RegressionError):
    def __init__(self, columns: Sequence[str], detail: str = "linearly dependent columns"):
        super().__init__(f"{detail}: {list(columns)}")
        self.columns = tuple(columns)


class TooFewRowsError(RegressionError):
    pass


class ShapeMismatchError(RegressionError):
    pass


class UnmappedRowError(RegressionError):
    pass


class DegenerateVarianceError(RegressionError):
    def __init__(self, component: str):
        super().__init__(f"zero variance in the {component} component")
        self.component = component


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Fully observed regression data: rows x named columns plus a response.

    `absorbed_dof` counts parameters absorbed upstream (entity means after a
    within transform); it reduces residual degrees of freedom downstream.
    """

    x: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...]
    absorbed_dof: int = 0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise ShapeMismatchError("x must be a 2-d array")
        n, k = x.shape
        if y.shape != (n,):
            raise ShapeMismatchError(f"y has shape {y.shape}, expected ({n},)")
        columns = tuple(self.columns)
        if len(columns) != k:
            raise ShapeMismatchError(f"{len(columns)} column names for {k} columns")
        if len(set(columns)) != k:
            raise RegressionError("column names must be unique")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise RegressionError("design must not contain missing or non-finite cells")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "columns", columns)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class OlsFit:
    columns: tuple[str, ...]
    coefficients: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    n: int
    k: int
    dof: int
    sigma: float
    ssr: float
    r2: float
    cov_classical: np.ndarray
    xtx_inv: np.ndarray

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.columns.index(name)])

    def se_classical(self, name: str) -> float:
        i = self.columns.index(name)
        return float(math.sqrt(self.cov_classical[i, i]))


def _dependent_columns(xe: np.ndarray, columns: tuple[str, ...]) -> tuple[str, ...]:
    """Name each column that adds no rank to the columns before it."""
    dependent, rank = [], 0
    for j in range(xe.shape[1]):
        sv = np.linalg.svd(xe[:, : j + 1], compute_uv=False)
        grown = int(np.sum(sv > sv[0] * SV_RTOL))
        if grown == rank:
            dependent.append(columns[j])
        rank = grown
    return tuple(dependent)


def ols_fit(d: DesignMatrix) -> OlsFit:
    """Least squares on one design: `ols_stack` on one slice, plus residuals, (X'X)^-1 and R2."""
    x, y = d.x, d.y
    n, k = x.shape
    ok, coef, fitted, r = (a[0] for a in ols_stack(x[None], y[None]))
    norms = np.sqrt(np.einsum("ij,ij->j", x, x))
    if not ok:
        dead = [c for c, s in zip(d.columns, norms) if s == 0.0]
        if dead:
            raise SingularDesignError(dead, "all-zero columns")
        raise SingularDesignError(_dependent_columns(x / norms, d.columns))
    resid = y - fitted
    ssr = float(resid @ resid)

    dof = n - k - d.absorbed_dof
    sigma = math.sqrt(ssr / dof) if dof > 0 else math.nan

    r_inv = np.linalg.solve(r, np.eye(k))
    xtx_inv = (r_inv @ r_inv.T) / np.outer(norms, norms)
    xtx_inv = (xtx_inv + xtx_inv.T) / 2.0

    has_constant = bool(
        any(np.ptp(x[:, j]) == 0.0 and x[0, j] != 0.0 for j in range(k))
    )
    centered = y - y.mean() if has_constant else y
    tss = float(centered @ centered)
    if tss > 0.0:
        r2 = 1.0 - ssr / tss
        if has_constant:
            r2 = min(max(r2, 0.0), 1.0)
    else:
        r2 = math.nan

    cov_classical = sigma * sigma * xtx_inv if dof > 0 else np.full((k, k), math.nan)
    return OlsFit(
        columns=d.columns,
        coefficients=coef,
        residuals=resid,
        fitted=fitted,
        n=n,
        k=k,
        dof=dof,
        sigma=sigma,
        ssr=ssr,
        r2=r2,
        cov_classical=cov_classical,
        xtx_inv=xtx_inv,
    )


def ols_stack(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Least squares on a stack of designs x (G, n, k) and responses y (G, n).

    Each slice with no zero column gets QR on its column-norm equilibrated
    design, then a relative singularity test on the singular values of its R
    factor, which are the design's; the arithmetic runs per slice, so a
    slice's results do not depend on the other slices in its stack. Returns
    the mask of nonsingular slices, their coefficients (G, k), fitted values
    (G, n) and R factors of the equilibrated QR (G, k, k); all three are NaN
    on singular slices.
    """
    if x.ndim != 3 or y.shape != x.shape[:2]:
        raise ShapeMismatchError(f"x has shape {x.shape} and y {y.shape}, expected (G, n, k) and (G, n)")
    g, n, k = x.shape
    if n < k:
        raise TooFewRowsError(f"{n} rows cannot identify {k} coefficients")
    if k == 0:
        raise RegressionError("design has no columns")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise RegressionError("design must not contain missing or non-finite cells")
    coef, fitted, r_all = np.full((g, k), np.nan), np.full((g, n), np.nan), np.full((g, k, k), np.nan)
    norms = np.sqrt(np.einsum("gij,gij->gj", x, x))
    ok = np.all(norms != 0.0, axis=1)
    q, r = np.linalg.qr(x[ok] / norms[ok][:, None, :])
    sv = np.linalg.svd(r, compute_uv=False)  # the equilibrated design's singular values
    fine = ~(sv[:, -1] <= SV_RTOL * sv[:, 0])
    ok[ok] = fine
    q, r = q[fine], r[fine]
    qty = np.matmul(np.swapaxes(q, 1, 2), y[ok][:, :, None])[:, :, 0]
    b = np.zeros_like(qty)
    for i in range(k - 1, -1, -1):
        b[:, i] = (qty[:, i] - np.matmul(r[:, i, None, i + 1:], b[:, i + 1:, None])[:, 0, 0]) / r[:, i, i]
    coef[ok] = b / norms[ok]
    fitted[ok] = np.matmul(x[ok], coef[ok][:, :, None])[:, :, 0]
    r_all[ok] = r
    return ok, coef, fitted, r_all


def robust_cov(fit: OlsFit, d: DesignMatrix) -> np.ndarray:
    """HC1 sandwich: (n/dof) * (X'X)^-1 X' diag(e^2) X (X'X)^-1."""
    if d.x.shape != (fit.n, fit.k) or d.columns != fit.columns:
        raise ShapeMismatchError("design does not match the fit it produced")
    if fit.dof <= 0:
        raise RegressionError("no residual degrees of freedom for a covariance")
    e2 = fit.residuals ** 2
    meat = (d.x * e2[:, None]).T @ d.x
    cov = fit.xtx_inv @ meat @ fit.xtx_inv * (fit.n / fit.dof)
    return (cov + cov.T) / 2.0


def entity_index(entities: Sequence[Hashable]) -> tuple[np.ndarray, np.ndarray]:
    """Per-row entity codes, numbered in order of first appearance, and rows per entity."""
    codes: dict[Hashable, int] = {}
    idx = np.array([codes.setdefault(e, len(codes)) for e in entities], dtype=int)
    return idx, np.bincount(idx).astype(float)


def _row_entities(groups: Sequence[Hashable], d: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """entity_index of `groups`, which holds one entity per row of `d`."""
    if len(groups) != d.n:
        raise UnmappedRowError(f"{len(groups)} entities for {d.n} rows")
    return entity_index(groups)


def within_transform(d: DesignMatrix, groups: Sequence[Hashable]) -> DesignMatrix:
    """Demean columns and response within entities (fixed-effects transform); `groups` holds each row's entity.

    Columns that demean to zero everywhere (constants, entity dummies) are
    dropped; the entity count is added to absorbed_dof so downstream sigma and
    standard errors lose the right degrees of freedom.
    """
    idx, counts = _row_entities(groups, d)

    def demean(col: np.ndarray) -> np.ndarray:
        return col - (np.bincount(idx, weights=col) / counts)[idx]

    xd = np.column_stack([demean(d.x[:, j]) for j in range(d.k)]) if d.k else d.x.copy()
    yd = demean(d.y)

    keep = []
    for j in range(d.k):
        scale = max(1.0, float(np.max(np.abs(d.x[:, j]))))
        if float(np.max(np.abs(xd[:, j]))) > 1e-12 * scale:
            keep.append(j)
    return DesignMatrix(
        x=xd[:, keep],
        y=yd,
        columns=tuple(d.columns[j] for j in keep),
        absorbed_dof=d.absorbed_dof + len(counts),
    )


def _squared_corr(a: np.ndarray, b: np.ndarray, component: str) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = float(a @ a) * float(b @ b)
    if denom <= 0.0:
        raise DegenerateVarianceError(component)
    return float((a @ b) ** 2 / denom)


def r2_components(fit: OlsFit, d: DesignMatrix, groups: Sequence[Hashable]) -> tuple[float, float]:
    """Within and between R2 of a fixed-effects fit, on the untransformed design; `groups` as in within_transform.

    Fitted values use only the columns the within fit kept; constants absorbed
    by the transform shift neither correlation.
    """
    idx, counts = _row_entities(groups, d)
    try:
        cols = [d.columns.index(c) for c in fit.columns]
    except ValueError as exc:
        raise ShapeMismatchError(f"design lacks a fitted column: {exc}") from None
    yhat = d.x[:, cols] @ fit.coefficients

    yhat_means = np.bincount(idx, weights=yhat) / counts
    y_means = np.bincount(idx, weights=d.y) / counts

    r2_within = _squared_corr(yhat - yhat_means[idx], d.y - y_means[idx], "within")
    if len(counts) < 2:
        raise DegenerateVarianceError("between")
    r2_between = _squared_corr(yhat_means, y_means, "between")
    return r2_within, r2_between

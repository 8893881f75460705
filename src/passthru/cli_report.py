"""Pipeline orchestration and publication-style rendering, plus the CLI.

`passthru run <config>` executes a plain-text config (or a manifest JSON from
an earlier run); `passthru preset <name>` runs a canned table or figure-data
recipe. Identical config and seed give byte-identical outputs: every float is
printed at six significant digits and all stages are deterministic.
"""

from __future__ import annotations

import argparse
import csv as _csv
import hashlib
import io
import json
import logging
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from passthru import __version__
from passthru.errors import PassthruError
from passthru.kvconfig import format_kv, parse_kv_text
from passthru.mg_panel import (
    Exclusion,
    MgError,
    MgResult,
    ModelSpec,
    NearUnitRootError,
    PassThroughPanel,
    SingularCovarianceError,
    TooFewCountriesError,
    build_passthrough_spec,
    country_arrays,
    estimate_decade_passthroughs,
    long_run_effect,
    materialize_design,
    mean_group,
    wald_joint,
)
from passthru.panel_data import (
    DecadeWindow,
    EmptyWindowError,
    PanelDataset,
    load_decade_csv,
    load_panel_csv,
    median_by_window,
    panel_csv_text,
    read_data_file,
    table_a2_path,
    window,
)
from passthru.second_stage import COVARIATE_LABELS, SecondStageResult, table5_results
from passthru.synth_lab import DgpParams, InvalidParamsError, generate_panel
from passthru.tree_forest import (
    FOREST_SUBSAMPLE,
    FOREST_TREES,
    AxisSpec,
    NoSplitsError,
    SplitParams,
    fit_forest,
    fit_tree,
    forest_workers,
    importance,
    partial_dependence,
    tree_shape,
)

log = logging.getLogger("passthru")

STAR_NOTE = "Stars: *** 1%, ** 5%, * 10% two-sided significance (normal z)."
FE_CONSTANT_NOTE = "FE columns report the grand mean of entity effects as the constant."

VARIANTS = {
    "headline": ("cpi", "ulc"),
    "core": ("core_cpi", "ulc"),
    "earnings": ("core_cpi", "earnings_h"),
}
CONTROLS = ("output_gap", "unemp_gap")
INTERACTIONS = ("none", "globalisation", "lagged_inflation", "both")
OUTPUTS = ("mg_table", "medians", "passthrough_panel", "second_stage", "importance", "pd_grid")
# outputs built on the per-country-per-decade pass-through panel
_PANEL_OUTPUTS = frozenset({"passthrough_panel", "second_stage", "importance", "pd_grid"})
FORMATS = ("text", "csv", "json")
EXTENSIONS = {"text": "txt", "csv": "csv", "json": "json"}

DECADES = ("1980s", "1990s", "2000s", "2010s")  # the paper's four decades

OPENNESS_SLICES = (0.005, 0.045)
INFLATION_SLICES = (0.01, 0.02, 0.04)


class ConfigError(PassthruError):
    def __init__(self, field_path: str, detail: str):
        super().__init__(f"{field_path}: {detail}")
        self.field_path = field_path


class RaggedGridError(PassthruError):
    pass


class StageError(PassthruError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


def fmt6(value: float) -> str:
    """Fixed 6-significant-digit rendering used for every float we print."""
    if value != value:  # NaN
        return "nan"
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.6g}"


def stars_for(estimate: float, se: float) -> str:
    """Significance stars from a normal z; an SE of 0 stars a nonzero estimate "***"."""
    if se == 0.0:
        return "***" if estimate != 0.0 else ""
    z = abs(estimate / se)
    if z >= 2.576:
        return "***"
    if z >= 1.960:
        return "**"
    if z >= 1.645:
        return "*"
    return ""


def p_stars(p: float) -> str:
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


@dataclass(frozen=True)
class Cell:
    """A table cell: an estimate, with its SE when it has one, or text; none of them is a blank cell."""

    estimate: float | None = None
    se: float | None = None
    text: str | None = None

    @property
    def stars(self) -> str | None:
        return None if self.se is None else stars_for(self.estimate, self.se)

    @property
    def degenerate_se(self) -> bool:
        return self.se == 0.0


@dataclass(frozen=True)
class TableRow:
    label: str
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class RenderedTable:
    title: str
    columns: tuple[str, ...]
    rows: tuple[TableRow, ...]
    notes: tuple[str, ...] = (STAR_NOTE,)


def _cell_main_text(cell: Cell) -> str:
    if cell.text is not None:
        return cell.text
    if cell.estimate is None:
        return ""
    return fmt6(cell.estimate) + (cell.stars or "")


def _cell_se_text(cell: Cell) -> str:
    if cell.se is None:
        return ""
    if cell.degenerate_se:
        return fmt6(cell.se) + " (degenerate)"
    return fmt6(cell.se)


def _check_grid(t: RenderedTable) -> None:
    for row in t.rows:
        if len(row.cells) != len(t.columns):
            raise RaggedGridError(
                f"row {row.label!r} has {len(row.cells)} cells for {len(t.columns)} columns"
            )


def render_table(t: RenderedTable, fmt: str) -> str:
    """Render to text (SE on the line beneath its estimate), CSV, or JSON."""
    _check_grid(t)
    if fmt == "text":
        return _render_text(t)
    if fmt == "csv":
        return _render_csv(t)
    if fmt == "json":
        return _render_json(t)
    raise ConfigError("output.format", f"unknown format {fmt!r}")


def _render_text(t: RenderedTable) -> str:
    label_w = max([len(r.label) for r in t.rows] + [4])
    col_ws = []
    for j, col in enumerate(t.columns):
        width = len(col)
        for row in t.rows:
            width = max(width, len(_cell_main_text(row.cells[j])), len(_cell_se_text(row.cells[j])))
        col_ws.append(width)

    def line(label: str, texts: Sequence[str]) -> str:
        parts = [label.ljust(label_w)]
        parts += [txt.rjust(w) for txt, w in zip(texts, col_ws)]
        return "  ".join(parts).rstrip()

    out = [t.title, "=" * len(t.title), ""]
    out.append(line("", t.columns))
    for row in t.rows:
        out.append(line(row.label, [_cell_main_text(c) for c in row.cells]))
        if any(c.se is not None for c in row.cells):
            out.append(line("", [_cell_se_text(c) for c in row.cells]))
    out.append("")
    out.extend(t.notes)
    return "\n".join(out) + "\n"


def _render_csv(t: RenderedTable) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["row", "column", "estimate", "se", "stars", "text", "degenerate_se"])
    for row in t.rows:
        for col, cell in zip(t.columns, row.cells):
            writer.writerow([
                row.label,
                col,
                "" if cell.estimate is None else fmt6(cell.estimate),
                "" if cell.se is None else fmt6(cell.se),
                cell.stars or "",
                cell.text or "",
                "1" if cell.degenerate_se else "",
            ])
    return buf.getvalue()


def _render_json(t: RenderedTable) -> str:
    def num(v: float | None) -> float | None:
        return None if v is None else float(fmt6(v))

    payload = {
        "title": t.title,
        "columns": list(t.columns),
        "rows": [
            {
                "label": row.label,
                "cells": [
                    {
                        "estimate": num(c.estimate),
                        "se": num(c.se),
                        "stars": c.stars,
                        "text": c.text,
                        "degenerate_se": c.degenerate_se,
                    }
                    for c in row.cells
                ],
            }
            for row in t.rows
        ],
        "notes": list(t.notes),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check_int(key: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ConfigError(key, f"must be an int of at least {least}, got {value!r}")


@dataclass(frozen=True)
class ForestConfig:
    trees: int = FOREST_TREES
    subsample: float = FOREST_SUBSAMPLE
    min_leaf: int = SplitParams.min_leaf
    max_depth: int | None = None
    steps: int = 50

    def __post_init__(self):
        ints = {"trees": 1, "min_leaf": 1, "steps": 2} | ({} if self.max_depth is None else {"max_depth": 0})
        for name, least in ints.items():
            _check_int(f"forest.{name}", getattr(self, name), least)
        if isinstance(self.subsample, bool) or not isinstance(self.subsample, Real) or not 0.0 < self.subsample <= 1.0:
            raise ConfigError("forest.subsample", f"must be a number in (0, 1], got {self.subsample!r}")


@dataclass(frozen=True)
class RunConfig:
    out_dir: Path
    panel_path: Path | None = None
    decade_path: Path | None = None
    dgp: DgpParams | None = None
    variants: tuple[str, ...] = ("headline",)
    control: str | None = None
    interactions: str = "none"
    decades: tuple[str, ...] = ("full", *DECADES)
    exclude: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ("mg_table",)
    forest: ForestConfig = field(default_factory=ForestConfig)
    seed: int | None = None
    fmt: str = "text"
    min_obs: int | None = None

    def __post_init__(self):
        for key, values, allowed in (
            ("model.variants", self.variants, tuple(VARIANTS)),
            ("model.control", () if self.control is None else (self.control,), CONTROLS),
            ("model.interactions", (self.interactions,), INTERACTIONS),
            ("outputs", self.outputs, OUTPUTS),
            ("output.format", (self.fmt,), FORMATS),
        ):
            for value in values:
                if value not in allowed:
                    raise ConfigError(key, f"unknown value {value!r} (choose from {', '.join(allowed)})")
        for key, values in (("model.variants", self.variants), ("outputs", self.outputs)):
            if not values:
                raise ConfigError(key, "must name at least one")
        if self.dgp is not None and self.panel_path is not None:
            raise ConfigError("data.panel_path", "data.synthetic = true generates the panel, so no panel file may be set")
        try:  # a label names its decade's window, so '01980s' is stored as '1980s', and repeats it
            decades = tuple(DecadeWindow.from_label(d).label if d != "full" else d for d in self.decades)
        except PassthruError as exc:
            raise ConfigError("decades", str(exc)) from exc
        object.__setattr__(self, "decades", decades)
        for key, values in (("model.variants", self.variants), ("decades", decades), ("outputs", self.outputs)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(key, f"repeats {', '.join(repeated)}")
        if self.seed is not None:
            _check_int("seed", self.seed, 0)
        if self.seed is None and "pd_grid" in self.outputs:
            raise ConfigError("seed", "a seed is required whenever the forest runs")
        # one mg_table column per decade, unless the columns are variants
        if not self.decades and "mg_table" in self.outputs and len(self.variants) == 1:
            raise ConfigError("decades", "mg_table needs at least one decade")
        panel_outputs = sorted(set(self.outputs) & _PANEL_OUTPUTS)
        if panel_outputs and set(decades) <= {"full"}:
            raise ConfigError("decades", f"{', '.join(panel_outputs)} need at least one decade other than full")
        _build_specs(self)  # a model.min_obs below k + 2 fails here
        # several variants are the full-sample columns of one mg_table; a decade window or a panel fits one
        windowed = ", ".join([d for d in decades if d != "full"] + panel_outputs)
        if len(self.variants) > 1 and windowed:
            raise ConfigError("model.variants", f"several variants fit the full sample only; {windowed} need one")


# config key -> field; the field's annotation says how the key's text is read (see
# _read). Reading, writing and the unknown-key check go through these three tables;
# data.synthetic and the dgp.* keys make the `dgp` field.
_RUN_KEYS = {
    "data.panel_path": "panel_path",
    "data.decade_path": "decade_path",
    "model.variants": "variants",
    "model.control": "control",
    "model.interactions": "interactions",
    "model.min_obs": "min_obs",
    "decades": "decades",
    "exclude": "exclude",
    "outputs": "outputs",
    "seed": "seed",
    "output.dir": "out_dir",
    "output.format": "fmt",
}
_FOREST_KEYS = {f"forest.{f.name}": f.name for f in fields(ForestConfig)}
_DGP_KEYS = {
    "dgp." + {"n_countries": "countries", "n_years": "years"}.get(f.name, f.name): f.name for f in fields(DgpParams)
}

# accepted values of an on/off key, in any case; empty means off
_SWITCHES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False, "": False}


def _read(key: str, annotation: str, raw: str, base: Path):
    """One config entry's text, read as its field's annotation says.

    A path resolves against base, a list is comma-separated (its non-empty
    entries, stripped), and a number is an int or a float written in ASCII
    without underscores, as is each entry of a float list; an empty path or
    number is None. A string is stripped, and `none` is None when the field is
    optional.
    """
    kind = annotation.removesuffix(" | None")
    if kind == "Path":
        return (base / raw).resolve() if raw else None
    if kind in ("tuple[str, ...]", "tuple[float, ...]"):
        entries = tuple(v.strip() for v in raw.split(",") if v.strip())
        return entries if kind == "tuple[str, ...]" else tuple(_read(key, "float", v, base) for v in entries)
    if kind in ("int", "float"):
        if raw == "":
            return None
        # int() and float() would also take digit-group underscores and non-ASCII digits
        if "_" not in raw and raw.isascii():
            with suppress(ValueError):
                return int(raw) if kind == "int" else float(raw)
        raise ConfigError(key, f"expected {'an integer' if kind == 'int' else 'a number'}, got {raw!r}")
    text = raw.strip()
    return None if text == "none" and annotation == "str | None" else text


def _read_fields(cls: type, keys: Mapping[str, str], mapping: Mapping[str, str], base: Path) -> dict:
    """Keyword arguments for `cls` from the entries of `keys` in mapping.

    An entry read as empty leaves its field at the default, except `decades`,
    where it means no decades.
    """
    annotations = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, name in keys.items():
        if key in mapping:
            value = _read(key, annotations[name], mapping[key], base)
            if value not in (None, "", ()) or key == "decades":
                kwargs[name] = value
    return kwargs


def config_from_mapping(mapping: Mapping[str, str], base_dir: Path | None = None) -> RunConfig:
    """Validate flat config entries into a RunConfig; paths resolve against base_dir."""
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    raw_synthetic = mapping.get("data.synthetic", "")
    synthetic = _SWITCHES.get(str(raw_synthetic).strip().lower())  # a value that is not text fails below
    if synthetic is None:
        raise ConfigError("data.synthetic", f"expected true/false, yes/no or 1/0, got {raw_synthetic!r}")
    known = {*_RUN_KEYS, *_FOREST_KEYS, *_DGP_KEYS, "data.synthetic"}
    for key, raw in mapping.items():
        if not isinstance(raw, str):
            raise ConfigError(key, f"expected text, got {raw!r}")
        if key.startswith("dgp.") and not synthetic:
            raise ConfigError(key, "generator settings need data.synthetic = true")
        if key not in known:
            raise ConfigError(key, "unknown configuration key")
    if not mapping.get("output.dir"):
        raise ConfigError("output.dir", "output directory not configured")

    dgp = None
    if synthetic:
        kwargs = _read_fields(DgpParams, _DGP_KEYS, mapping, base)
        try:
            dgp = DgpParams(**kwargs)
        except InvalidParamsError as exc:
            raise ConfigError("dgp", str(exc)) from exc
    forest = ForestConfig(**_read_fields(ForestConfig, _FOREST_KEYS, mapping, base))
    cfg = RunConfig(dgp=dgp, forest=forest, **_read_fields(RunConfig, _RUN_KEYS, mapping, base))

    for key, path in _data_files(cfg).items():
        if not path.is_file():
            raise ConfigError(key, f"file not found: {path}")
    _check_data_sources(cfg)
    return cfg


def _check_data_sources(cfg: RunConfig) -> None:
    """Every output but `medians` needs a panel or a generator, and `medians` a decade file."""
    if cfg.dgp is None and cfg.panel_path is None and set(cfg.outputs) - {"medians"}:
        raise ConfigError("data.panel_path", "required data file not configured")
    if "medians" in cfg.outputs and cfg.decade_path is None:
        raise ConfigError("data.decade_path", "medians need the decade covariate file")


def config_to_mapping(cfg: RunConfig) -> dict[str, str]:
    """Canonical flat form of a config, suitable for hashing and manifests.

    The inverse of config_from_mapping: None is left out (a control of None is
    written `none`), and so is an empty list other than `decades`.
    """
    mapping: dict[str, str] = {}
    tables = [(cfg, _RUN_KEYS), (cfg.forest, _FOREST_KEYS)]
    if cfg.dgp is not None:
        mapping["data.synthetic"] = "true"
        tables.append((cfg.dgp, _DGP_KEYS))
    for owner, keys in tables:
        for key, name in keys.items():
            value = getattr(owner, name)
            if key == "model.control" and value is None:
                value = "none"
            if value is not None and (value != () or key == "decades"):
                mapping[key] = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    return mapping


def _data_files(cfg: RunConfig) -> dict[str, Path]:
    """The configured input files, keyed by the config key that names each."""
    files = {"data.panel_path": cfg.panel_path, "data.decade_path": cfg.decade_path}
    return {key: path for key, path in files.items() if path is not None}


def _input_digests(cfg: RunConfig) -> dict[str, str]:
    """SHA-256 of each input file, keyed by the config key that names it."""
    return {key: hashlib.sha256(read_data_file(path)).hexdigest() for key, path in _data_files(cfg).items()}


def config_from_manifest(path: str | Path) -> RunConfig:
    """The config of an earlier run; its input files must still hold what that run read."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ConfigError("manifest", f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("manifest", f"{path} is not valid JSON: {exc}") from exc
    if not (
        isinstance(payload, dict)
        and isinstance(payload.get("config"), dict)
        and isinstance(payload.get("input_sha256", {}), dict)
    ):
        raise ConfigError("manifest", f"{path} is not a run manifest")
    cfg = config_from_mapping(payload["config"], base_dir=Path(path).resolve().parent)
    digests = _input_digests(cfg)
    for key, recorded in payload.get("input_sha256", {}).items():
        if digests.get(key) != recorded:
            raise ConfigError(key, f"{payload['config'].get(key)} has changed since {path} was written")
    return cfg


def _build_specs(cfg: RunConfig) -> dict[str, ModelSpec]:
    """The model spec of each configured variant; a min_obs below k + 2 is a config error."""
    try:
        return {
            variant: build_passthrough_spec(
                *VARIANTS[variant],
                control=cfg.control,
                with_globalisation=cfg.interactions in ("globalisation", "both"),
                with_lagged_inflation=cfg.interactions in ("lagged_inflation", "both"),
                min_obs=cfg.min_obs,
            )
            for variant in cfg.variants
        }
    except MgError as exc:
        raise ConfigError("model.min_obs", str(exc)) from exc


def _log_usable(where: str, usable: int, reasons: Sequence[str]) -> None:
    """Usable countries and unusable ones by reason, to the log only."""
    counts = ", ".join(f"{reason} {n}" for reason, n in sorted(Counter(reasons).items()))
    log.info("%s: %d usable countries; unusable: %s", where, usable, counts or "none")


def _warn_exclude(exclude: Sequence[str], countries: Sequence[str]) -> None:
    """One warning naming `exclude` entries that match no country of the panel or repeat; both change nothing."""
    unmatched = [c for c in dict.fromkeys(exclude) if c not in countries]
    repeated = [c for c, n in Counter(exclude).items() if n > 1]
    if unmatched or repeated:
        log.warning(
            "exclude: no country of the panel matches %s; repeated: %s",
            ", ".join(unmatched) or "none", ", ".join(repeated) or "none",
        )


def _long_run_slots(spec: ModelSpec) -> tuple[str, str] | None:
    """The (cost, lag_dep) slots of mg_table's LT row; a spec without both has no LT row."""
    cost, lag_dep = spec.slot("cost"), spec.slot("lag_dep")
    return (cost, lag_dep) if cost and lag_dep else None


def _mg_rows(spec: ModelSpec) -> list[str]:
    """mg_table's row labels, in the order of every column's cells."""
    slots = _long_run_slots(spec)
    lt = [f"LT effect: {slots[0]}"] if slots else []
    summary = ["observations", "countries", "RMSE (sigma)", "chi2", "Wald p"]
    return [t.name for t in spec.regressors] + ["constant", *lt, *summary]


def _mg_column(ds: PanelDataset, spec: ModelSpec, label: str) -> list[Cell]:
    """One mg_table column's cells, in `_mg_rows(spec)` order.

    A decade with no panel years, or too few usable countries, marks every
    cell but `countries`, and the rest of the table still runs.
    """

    def marked(text: str, usable: int) -> list[Cell]:
        return [Cell(text=str(usable)) if row == "countries" else Cell(text=text) for row in _mg_rows(spec)]

    try:
        sub = ds if label == "full" else window(ds, DecadeWindow.from_label(label))
    except EmptyWindowError:
        log.warning("mg_table %s: the panel has no years in this decade", label)
        return marked("n/a (no panel years)", 0)
    found = country_arrays(sub, spec)
    usable = np.count_nonzero(found.usable)
    _log_usable(f"mg_table {label}", usable, found.reason[~found.usable].tolist())
    try:
        return _mg_cells(mean_group(found, spec.design_columns), spec)
    except TooFewCountriesError:
        return marked("n/a (too few countries)", usable)


def _mg_cells(result: MgResult, spec: ModelSpec) -> list[Cell]:
    # design column 0 is the constant, which the table lists after the regressors
    coefficients = [Cell(b, se) for b, se in zip(result.coefficients.tolist(), result.se.tolist())]
    cells = coefficients[1:] + coefficients[:1]
    if slots := _long_run_slots(spec):
        try:
            cells.append(Cell(*long_run_effect(result, *slots)))
        except NearUnitRootError:
            cells.append(Cell(text="n/a (unit root)"))
    cells += [
        Cell(text=str(result.total_obs)),
        Cell(text=str(result.n_countries)),
        Cell(text=fmt6(result.sigma_pooled)),
    ]
    try:
        stat, _, p = wald_joint(result)
        cells += [Cell(text=fmt6(stat) + p_stars(p)), Cell(text=fmt6(p))]
    except SingularCovarianceError:
        cells += [Cell(text="n/a (singular)")] * 2
    return cells


def mg_rendered_table(columns: Sequence[tuple[str, list[Cell]]], spec: ModelSpec, title: str) -> RenderedTable:
    """Decade-column (or variant-column) table of `_mg_column` cells, transposed onto `_mg_rows(spec)`."""
    labels, cells = zip(*columns)
    rows = zip(_mg_rows(spec), zip(*cells, strict=True), strict=True)
    return RenderedTable(title=title, columns=labels, rows=tuple(TableRow(label, row) for label, row in rows))


def second_stage_table(results: Sequence[SecondStageResult]) -> RenderedTable:
    columns = tuple(f"({roman})" for roman in ("I", "II", "III", "IV", "V", "VI"))
    if len(results) != len(columns):
        raise RaggedGridError(f"expected {len(columns)} second-stage results")
    rows = [TableRow("constant", tuple(Cell(estimate=r.constant) for r in results))]
    for covariate in ("kof", "em6", "em10"):
        cells = tuple(Cell(r.coefficient, r.se) if r.covariate == covariate else Cell() for r in results)
        rows.append(TableRow(COVARIATE_LABELS[covariate], cells))
    rows.append(TableRow("observations", tuple(Cell(text=str(r.n)) for r in results)))
    rows.append(TableRow("country fixed effects", tuple(Cell(text="yes" if r.fe else "no") for r in results)))
    rows.append(TableRow("R2", tuple(Cell(text=fmt6(r.r2)) if r.r2 is not None else Cell() for r in results)))
    rows.append(TableRow("R2 within", tuple(Cell(text=fmt6(r.r2_within)) if r.r2_within is not None else Cell() for r in results)))
    rows.append(TableRow("R2 between", tuple(Cell(text=fmt6(r.r2_between)) if r.r2_between is not None else Cell() for r in results)))
    return RenderedTable(
        title="Estimated pass-through vs openness",
        columns=columns,
        rows=tuple(rows),
        notes=(STAR_NOTE, FE_CONSTANT_NOTE),
    )


def medians_table(decade_data: PanelDataset) -> RenderedTable:
    present = [v for v in ("em6", "em10") if v in decade_data.variables]
    rows = []
    for w in map(DecadeWindow, decade_data.years):
        rows.append(TableRow(w.label, tuple(Cell(estimate=median_by_window(decade_data, v, w)) for v in present)))
    return RenderedTable(
        title="Median import penetration by decade",
        columns=tuple(present),
        rows=tuple(rows),
        notes=("Cross-country medians of decade values.",),
    )


def passthrough_csv(panel: PassThroughPanel) -> str:
    """One row per (country, decade); a missing (NaN) covariate is an empty cell."""
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["country", "decade", "passthrough", *panel.covariates])
    columns = (panel.passthrough, *panel.covariates.values())
    rows = zip(panel.country, panel.decade, *(column.tolist() for column in columns))
    for country, decade, passthrough, *covariates in rows:
        writer.writerow([country, decade, fmt6(passthrough), *("" if v != v else fmt6(v) for v in covariates)])
    return buf.getvalue()


def exclusions_csv(panel: PassThroughPanel) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(Exclusion._fields)
    writer.writerows(panel.exclusions)
    return buf.getvalue()


def _tree_rows(panel: PassThroughPanel, openness: str) -> tuple[np.ndarray, np.ndarray]:
    """Features (openness, avg_inflation) and pass-through of the rows with both features observed."""
    x = np.column_stack([panel.covariates[openness], panel.covariates["avg_inflation"]])
    observed = ~np.isnan(x).any(axis=1)
    return x[observed], panel.passthrough[observed]


def run_pipeline(cfg: RunConfig) -> list[Path]:
    """Execute the configured stages and write their files plus a manifest.

    A missing data source, or an output directory that cannot be made, fails,
    naming its config key, before anything is written.
    """
    specs = _build_specs(cfg)
    _check_data_sources(cfg)
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output.dir", f"cannot create the output directory: {exc}") from exc
    ext = EXTENSIONS[cfg.fmt]
    written: list[Path] = []

    def emit(name: str, content: str) -> None:
        path = cfg.out_dir / name
        path.write_text(content, encoding="utf-8", newline="\n")
        written.append(path)

    @contextmanager
    def stage(name: str):
        log.info("stage %s", name)
        began = time.perf_counter()
        try:
            yield
        except StageError:
            raise
        except PassthruError as exc:
            raise StageError(name, exc) from exc
        finally:
            # wall times go to the log only: the output directory stays byte-identical
            log.info("stage %s ended after %.3f s", name, time.perf_counter() - began)

    panel: PanelDataset | None = None
    decade_data: PanelDataset | None = None
    with stage("ingest"):
        input_sha256 = _input_digests(cfg)
        if cfg.dgp is not None:
            panel = generate_panel(cfg.dgp)
            emit("synthetic_panel.csv", panel_csv_text(panel))
        elif cfg.panel_path is not None:
            panel = load_panel_csv(cfg.panel_path)
        if cfg.decade_path is not None:
            decade_data = load_decade_csv(cfg.decade_path)

    if "mg_table" in cfg.outputs:
        with stage("mg_table"):
            spec = specs[cfg.variants[0]]
            if len(cfg.variants) > 1:
                columns = [(v, _mg_column(materialize_design(panel, specs[v]), specs[v], "full")) for v in cfg.variants]
                title = "Pass-through estimates by inflation measure"
            else:
                mat = materialize_design(panel, spec)
                columns = [(label, _mg_column(mat, spec, label)) for label in cfg.decades]
                title = f"Pass-through estimates ({cfg.variants[0]})"
            emit(f"mg_table.{ext}", render_table(mg_rendered_table(columns, spec, title), cfg.fmt))

    if "medians" in cfg.outputs:
        with stage("medians"):
            emit(f"medians.{ext}", render_table(medians_table(decade_data), cfg.fmt))

    pass_panel: PassThroughPanel | None = None
    if _PANEL_OUTPUTS & set(cfg.outputs):
        with stage("passthroughs"):
            spec = specs[cfg.variants[0]]
            windows = [DecadeWindow.from_label(lbl) for lbl in cfg.decades if lbl != "full"]
            _warn_exclude(cfg.exclude, panel.countries)
            pass_panel = estimate_decade_passthroughs(
                panel, spec, windows, decade_data=decade_data, exclude=cfg.exclude
            )
            for w in windows:
                _log_usable(
                    f"passthroughs {w.label}",
                    pass_panel.decade.count(w.label),
                    [e.reason for e in pass_panel.exclusions if e.decade == w.label],
                )
            if "passthrough_panel" in cfg.outputs:
                emit("passthrough_panel.csv", passthrough_csv(pass_panel))
                emit("exclusions.csv", exclusions_csv(pass_panel))

    if "second_stage" in cfg.outputs:
        with stage("second_stage"):
            emit(f"second_stage.{ext}", render_table(second_stage_table(table5_results(pass_panel)), cfg.fmt))

    params = SplitParams(min_leaf=cfg.forest.min_leaf, max_depth=cfg.forest.max_depth)

    if "importance" in cfg.outputs:
        with stage("importance"):
            rows = []
            for openness in ("em6", "em10"):
                x, y = _tree_rows(pass_panel, openness)
                names = (openness, "avg_inflation")
                try:
                    report = importance(fit_tree(x, y, params, feature_names=names))
                    cells = [(Cell(estimate=float(r)), Cell(estimate=float(s))) for r, s in zip(report.raw, report.shares)]
                except NoSplitsError:  # a tree with no split has no importance: mark its rows
                    cells = [(Cell(text="n/a (no splits)"),) * 2] * len(names)
                rows += [TableRow(f"{openness} tree: {name}", pair) for name, pair in zip(names, cells)]
            table = RenderedTable(
                title="Predictor importance (single trees)",
                columns=("avg MSE gain", "share"),
                rows=tuple(rows),
                notes=("Average per-node MSE reduction, and its share of the total.",),
            )
            emit(f"importance.{ext}", render_table(table, cfg.fmt))

    if "pd_grid" in cfg.outputs:
        with stage("pd_grid"):
            x, y = _tree_rows(pass_panel, "em10")
            forest = fit_forest(
                x, y,
                n_trees=cfg.forest.trees,
                subsample=cfg.forest.subsample,
                seed=cfg.seed,
                params=params,
                feature_names=("em10", "avg_inflation"),
            )
            if log.isEnabledFor(logging.INFO):
                nodes, depth = tree_shape(forest)
                workers = forest_workers(forest.n_trees)
                log.info("forest: %d trees, %d nodes, max depth %d, workers %d", forest.n_trees, nodes, depth, workers)
            bounds = zip(forest.feature_min.tolist(), forest.feature_max.tolist())
            axes = tuple(AxisSpec(lo, hi, cfg.forest.steps) for lo, hi in bounds)
            slices = [("em10", v) for v in OPENNESS_SLICES]
            slices += [("avg_inflation", v) for v in INFLATION_SLICES]
            grid = partial_dependence(forest, axes, slices)
            emit("pd_grid.csv", grid.to_csv())
            emit("pd_slices.csv", grid.slices_to_csv())
            emit("pd_grid.json", grid.to_json())

    mapping = config_to_mapping(cfg)
    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "config": mapping,
        "config_sha256": hashlib.sha256(format_kv(mapping).encode()).hexdigest(),
        "input_sha256": input_sha256,
        "outputs": sorted(p.name for p in written),
    }
    emit("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return written


# the sample of the presets built on the per-country-per-decade pass-through panel
_DECADE_PANEL = {"variants": ("headline",), "decades": DECADES, "exclude": ("CZ", "EE", "LU", "KR")}

# preset name -> the RunConfig fields it sets; the CLI's preset choices come from here
PRESETS: dict[str, dict] = {
    "table1": {"variants": ("headline",)},
    "table2": {"variants": ("core",)},
    "table3": {"variants": ("core",), "control": "output_gap", "decades": ("full", *DECADES[1:])},
    "table4": {"variants": ("earnings",)},
    "table5": {**_DECADE_PANEL, "outputs": ("passthrough_panel", "second_stage")},
    "table6": {"variants": ("headline", "core"), "interactions": "globalisation", "decades": ("full",)},
    "table7": {"variants": ("headline", "core"), "interactions": "lagged_inflation", "decades": ("full",)},
    "table8": {"variants": ("headline", "core"), "interactions": "both", "decades": ("full",)},
    "a1": {"variants": ("core",), "control": "unemp_gap", "decades": ("full", *DECADES[1:])},
    "fig2": {"outputs": ("medians",), "decades": ()},
    "fig4": {**_DECADE_PANEL, "outputs": ("passthrough_panel", "importance")},
    "fig5": {**_DECADE_PANEL, "outputs": ("passthrough_panel", "pd_grid")},
}


def _preset_config(name: str, data_dir: Path | None, out_dir: Path, seed: int | None, fmt: str) -> RunConfig:
    """The RunConfig of preset `name`, one of the CLI's choices (the keys of PRESETS)."""

    def data_file(filename: str) -> Path | None:
        if data_dir is None or not (data_dir / filename).is_file():
            return None
        return (data_dir / filename).resolve()

    outputs = PRESETS[name].get("outputs", ())
    cfg = RunConfig(
        out_dir=out_dir.resolve(),
        panel_path=data_file("panel.csv"),
        decade_path=data_file("decades.csv") or (table_a2_path() if "medians" in outputs else None),
        seed=0 if seed is None and "pd_grid" in outputs else seed,
        fmt=fmt,
        **PRESETS[name],
    )
    if set(cfg.outputs) - {"medians"} and cfg.panel_path is None:
        raise ConfigError("data.panel_path", f"preset {name!r} needs <data>/panel.csv")
    return cfg


def _load_run_config(path: Path) -> RunConfig:
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path} is not UTF-8 text: {exc}") from exc
    if text.lstrip().startswith("{"):
        return config_from_manifest(path)
    return config_from_mapping(parse_kv_text(text), base_dir=path.resolve().parent)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="passthru", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a config file or a manifest from an earlier run")
    run_p.add_argument("config", type=Path)

    preset_p = sub.add_parser("preset", help="run a canned table or figure-data recipe")
    preset_p.add_argument("name", choices=PRESETS)
    preset_p.add_argument("--data", type=Path, default=None, help="directory with panel.csv / decades.csv")
    preset_p.add_argument("--out", type=Path, required=True)
    preset_p.add_argument("--seed", type=int, default=None)
    preset_p.add_argument("--format", dest="fmt", choices=FORMATS, default="text")

    args = parser.parse_args(argv)
    try:
        level = os.environ.get("PASSTHRU_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):  # a known name gives its number
            raise ConfigError("PASSTHRU_LOG", f"unknown level {level!r}; use DEBUG, INFO, WARNING, ERROR or CRITICAL")
        logging.basicConfig(level=level)
        if args.command == "run":
            if not args.config.is_file():
                raise ConfigError("config", f"file not found: {args.config}")
            cfg = _load_run_config(args.config)
        else:
            cfg = _preset_config(args.name, args.data, args.out, args.seed, args.fmt)
        written = run_pipeline(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PassthruError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

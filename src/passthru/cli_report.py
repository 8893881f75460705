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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from passthru import __version__
from passthru.errors import PassthruError
from passthru.kvconfig import format_kv, number_parser, parse_kv_text
from passthru.mg_panel import (
    MgError,
    MgResult,
    ModelSpec,
    NearUnitRootError,
    PassThroughPanel,
    SingularCovarianceError,
    build_passthrough_spec,
    estimate_decade_passthroughs,
    fit_countries,
    long_run_effect,
    materialize_design,
    mean_group,
    wald_joint,
)
from passthru.panel_data import (
    DecadeWindow,
    PanelDataset,
    load_decade_csv,
    load_panel_csv,
    median_by_window,
    panel_csv_text,
    table_a2_path,
    window,
)
from passthru.second_stage import COVARIATE_LABELS, SecondStageResult, table5_results
from passthru.synth_lab import DgpParams, dgp_params_from_mapping, dgp_params_to_mapping, generate_panel
from passthru.tree_forest import (
    AxisSpec,
    SplitParams,
    fit_forest,
    fit_tree,
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


def stars_for(estimate: float, se: float) -> tuple[str, bool]:
    """Significance stars from a normal z; returns (stars, degenerate_se)."""
    if se == 0.0:
        return ("***" if estimate != 0.0 else "", True)
    z = abs(estimate / se)
    if z >= 2.576:
        return "***", False
    if z >= 1.960:
        return "**", False
    if z >= 1.645:
        return "*", False
    return "", False


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
    estimate: float | None = None
    se: float | None = None
    stars: str | None = None
    text: str | None = None
    degenerate_se: bool = False

    @classmethod
    def coef(cls, estimate: float, se: float) -> "Cell":
        stars, degenerate = stars_for(estimate, se)
        return cls(estimate=estimate, se=se, stars=stars, degenerate_se=degenerate)

    @classmethod
    def plain(cls, text: str) -> "Cell":
        return cls(text=text)

    @classmethod
    def blank(cls) -> "Cell":
        return cls()


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


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 1000
    subsample: float = 2.0 / 3.0
    min_leaf: int = 5
    max_depth: int | None = None
    steps: int = 50

    def __post_init__(self):
        if self.trees < 1:
            raise ConfigError("forest.trees", f"need at least 1 tree, got {self.trees}")
        if self.min_leaf < 1:
            raise ConfigError("forest.min_leaf", f"must be at least 1, got {self.min_leaf}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError("forest.max_depth", f"must be at least 0, got {self.max_depth}")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigError("forest.subsample", f"must lie in (0, 1], got {self.subsample}")
        if self.steps < 2:
            raise ConfigError("forest.steps", f"need at least 2 grid steps, got {self.steps}")


@dataclass(frozen=True)
class RunConfig:
    out_dir: Path
    panel_path: Path | None = None
    decade_path: Path | None = None
    dgp: DgpParams | None = None
    variants: tuple[str, ...] = ("headline",)
    control: str | None = None
    interactions: str = "none"
    decades: tuple[str, ...] = ("full", "1980s", "1990s", "2000s", "2010s")
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
        for label in self.decades:
            if label != "full":
                try:
                    DecadeWindow.from_label(label)
                except PassthruError as exc:
                    raise ConfigError("decades", str(exc)) from exc
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed", f"must be at least 0, got {self.seed}")
        if self.seed is None and "pd_grid" in self.outputs:
            raise ConfigError("seed", "a seed is required whenever the forest runs")
        # one mg_table column per decade, unless the columns are variants
        needing = set(self.outputs) & (_PANEL_OUTPUTS | ({"mg_table"} if len(self.variants) == 1 else set()))
        if not self.decades and needing:
            raise ConfigError("decades", f"{', '.join(sorted(needing))} need at least one decade")
        _build_specs(self)  # a model.min_obs below k + 2 fails here


# config key -> field; the field's annotation says how the key's text is read (see
# _read). Reading, writing and the unknown-key check go through these two tables;
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

# accepted values of an on/off key, in any case; empty means off
_SWITCHES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False, "": False}


def _read(key: str, annotation: str, raw: str, base: Path):
    """One config entry's text, read as its field's annotation says.

    A path resolves against base, a list is comma-separated, and a number is an
    int or a float; an empty path or number is None. A string is stripped, and
    `none` is None when the field is optional.
    """
    kind = annotation.removesuffix(" | None")
    if kind == "Path":
        return (base / raw).resolve() if raw else None
    if kind == "tuple[str, ...]":
        return tuple(v.strip() for v in raw.split(",") if v.strip())
    if kind in ("int", "float"):
        if raw == "":
            return None
        try:
            return number_parser(kind)(raw)
        except ValueError:
            raise ConfigError(key, f"expected {'an integer' if kind == 'int' else 'a number'}, got {raw!r}") from None
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
    synthetic = _SWITCHES.get(raw_synthetic.strip().lower())
    if synthetic is None:
        raise ConfigError("data.synthetic", f"expected true/false, yes/no or 1/0, got {raw_synthetic!r}")
    known = {*_RUN_KEYS, *_FOREST_KEYS, "data.synthetic"}
    for key in mapping:
        if key.startswith("dgp.") and not synthetic:
            raise ConfigError(key, "generator settings need data.synthetic = true")
        if key not in known and not key.startswith("dgp."):
            raise ConfigError(key, "unknown configuration key")
    if not mapping.get("output.dir"):
        raise ConfigError("output.dir", "output directory not configured")

    dgp = None
    if synthetic:
        try:
            dgp = dgp_params_from_mapping(mapping)
        except PassthruError as exc:
            raise ConfigError("dgp", str(exc)) from exc
    forest = ForestConfig(**_read_fields(ForestConfig, _FOREST_KEYS, mapping, base))
    cfg = RunConfig(dgp=dgp, forest=forest, **_read_fields(RunConfig, _RUN_KEYS, mapping, base))

    for key, path in _data_files(cfg).items():
        if not path.is_file():
            raise ConfigError(key, f"file not found: {path}")
    if dgp is None and cfg.panel_path is None and set(cfg.outputs) - {"medians"}:
        raise ConfigError("data.panel_path", "required data file not configured")
    if "medians" in cfg.outputs and cfg.decade_path is None:
        raise ConfigError("data.decade_path", "medians need the decade covariate file")
    return cfg


def config_to_mapping(cfg: RunConfig) -> dict[str, str]:
    """Canonical flat form of a config, suitable for hashing and manifests.

    The inverse of config_from_mapping: None is left out (a control of None is
    written `none`), and so is an empty list other than `decades`.
    """
    mapping: dict[str, str] = {}
    for owner, keys in ((cfg, _RUN_KEYS), (cfg.forest, _FOREST_KEYS)):
        for key, name in keys.items():
            value = getattr(owner, name)
            if key == "model.control" and value is None:
                value = "none"
            if value is not None and (value != () or key == "decades"):
                mapping[key] = ",".join(value) if isinstance(value, tuple) else str(value)
    if cfg.dgp is not None:
        mapping["data.synthetic"] = "true"
        mapping.update(dgp_params_to_mapping(cfg.dgp))
    return mapping


def _data_files(cfg: RunConfig) -> dict[str, Path]:
    """The configured input files, keyed by the config key that names each."""
    files = {"data.panel_path": cfg.panel_path, "data.decade_path": cfg.decade_path}
    return {key: path for key, path in files.items() if path is not None}


def _input_digests(cfg: RunConfig) -> dict[str, str]:
    """SHA-256 of each input file, keyed by the config key that names it."""
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in _data_files(cfg).items()}


def config_from_manifest(path: str | Path) -> RunConfig:
    """The config of an earlier run; its input files must still hold what that run read."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "config" not in payload:
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
                controls=(cfg.control,) if cfg.control else (),
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


def _mg_column(ds: PanelDataset, spec: ModelSpec, label: str) -> MgResult:
    sub = ds if label == "full" else window(ds, DecadeWindow.from_label(label))
    fits = fit_countries(sub, spec)
    _log_usable(f"mg_table {label}", sum(f.usable for f in fits), [f.reason for f in fits if not f.usable])
    return mean_group(fits)


def _mg_cells(result: MgResult, spec: ModelSpec) -> dict[str, Cell]:
    offset = 1 if spec.include_constant else 0
    cells: dict[str, Cell] = {}
    for j in range(len(spec.regressors)):
        cells[f"reg{j}"] = Cell.coef(float(result.coefficients[offset + j]), float(result.se[offset + j]))
    if spec.include_constant:
        cells["const"] = Cell.coef(float(result.coefficients[0]), float(result.se[0]))
    cost, lag_dep = spec.slot("cost"), spec.slot("lag_dep")
    if cost and lag_dep:
        try:
            lt, lt_se = long_run_effect(result, cost, lag_dep)
            cells["lt"] = Cell.coef(lt, lt_se)
        except NearUnitRootError:
            cells["lt"] = Cell.plain("n/a (unit root)")
    cells["obs"] = Cell.plain(str(result.total_obs))
    cells["countries"] = Cell.plain(str(result.n_countries))
    cells["rmse"] = Cell.plain(fmt6(result.sigma_pooled))
    try:
        stat, _, p = wald_joint(result)
        cells["chi2"] = Cell.plain(fmt6(stat) + p_stars(p))
        cells["wald_p"] = Cell.plain(fmt6(p))
    except SingularCovarianceError:
        cells["chi2"] = cells["wald_p"] = Cell.plain("n/a (singular)")
    return cells


def mg_rendered_table(
    columns: Sequence[tuple[str, MgResult, ModelSpec]], title: str
) -> RenderedTable:
    """Decade-column (or variant-column) table around a shared regression shape."""
    first_spec = columns[0][2]
    per_column = [(_mg_cells(result, spec)) for _, result, spec in columns]
    rows: list[TableRow] = []

    def add(label: str, key: str) -> None:
        rows.append(TableRow(label, tuple(cells.get(key, Cell.blank()) for cells in per_column)))

    for j, term in enumerate(first_spec.regressors):
        add(term.name, f"reg{j}")
    if first_spec.include_constant:
        add("constant", "const")
    if first_spec.slot("cost") and first_spec.slot("lag_dep"):
        add(f"LT effect: {first_spec.slot('cost')}", "lt")
    add("observations", "obs")
    add("countries", "countries")
    add("RMSE (sigma)", "rmse")
    add("chi2", "chi2")
    add("Wald p", "wald_p")
    return RenderedTable(
        title=title,
        columns=tuple(label for label, _, _ in columns),
        rows=tuple(rows),
    )


def second_stage_table(results: Sequence[SecondStageResult]) -> RenderedTable:
    columns = tuple(f"({roman})" for roman in ("I", "II", "III", "IV", "V", "VI"))
    if len(results) != len(columns):
        raise RaggedGridError(f"expected {len(columns)} second-stage results")
    rows = [TableRow("constant", tuple(Cell(estimate=r.constant) for r in results))]
    for covariate in ("kof", "em6", "em10"):
        cells = tuple(
            Cell.coef(r.coefficient, r.se) if r.covariate == covariate else Cell.blank()
            for r in results
        )
        rows.append(TableRow(COVARIATE_LABELS[covariate], cells))
    rows.append(TableRow("observations", tuple(Cell.plain(str(r.n)) for r in results)))
    rows.append(TableRow("country fixed effects", tuple(Cell.plain("yes" if r.fe else "no") for r in results)))
    rows.append(TableRow("R2", tuple(Cell.plain(fmt6(r.r2)) if r.r2 is not None else Cell.blank() for r in results)))
    rows.append(TableRow("R2 within", tuple(Cell.plain(fmt6(r.r2_within)) if r.r2_within is not None else Cell.blank() for r in results)))
    rows.append(TableRow("R2 between", tuple(Cell.plain(fmt6(r.r2_between)) if r.r2_between is not None else Cell.blank() for r in results)))
    return RenderedTable(
        title="Estimated pass-through vs openness",
        columns=columns,
        rows=tuple(rows),
        notes=(STAR_NOTE, FE_CONSTANT_NOTE),
    )


def medians_table(decade_data: PanelDataset, variables: Sequence[str] = ("em6", "em10")) -> RenderedTable:
    present = [v for v in variables if v in decade_data.variables]
    rows = []
    for start in decade_data.years:
        w = DecadeWindow.from_start(start)
        rows.append(
            TableRow(w.label, tuple(Cell(estimate=median_by_window(decade_data, v, w)) for v in present))
        )
    return RenderedTable(
        title="Median import penetration by decade",
        columns=tuple(present),
        rows=tuple(rows),
        notes=("Cross-country medians of decade values.",),
    )


def passthrough_csv(panel: PassThroughPanel) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["country", "decade", "passthrough", "kof", "em6", "em10", "avg_inflation"])
    for r in panel.rows:
        writer.writerow([
            r.country, r.decade, fmt6(r.passthrough),
            "" if r.kof is None else fmt6(r.kof),
            "" if r.em6 is None else fmt6(r.em6),
            "" if r.em10 is None else fmt6(r.em10),
            "" if r.avg_inflation is None else fmt6(r.avg_inflation),
        ])
    return buf.getvalue()


def exclusions_csv(panel: PassThroughPanel) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["country", "decade", "reason"])
    for e in panel.exclusions:
        writer.writerow([e.country, e.decade, e.reason])
    return buf.getvalue()


def _tree_rows(panel: PassThroughPanel, openness: str) -> tuple:
    rows = [
        r for r in panel.rows
        if r.covariate(openness) is not None and r.avg_inflation is not None
    ]
    x = np.array([[r.covariate(openness), r.avg_inflation] for r in rows])
    y = np.array([r.passthrough for r in rows])
    return x, y


def run_pipeline(cfg: RunConfig) -> list[Path]:
    """Execute the configured stages and write their files plus a manifest."""
    specs = _build_specs(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
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
            assert panel is not None
            if len(cfg.variants) > 1:
                columns = []
                for variant in cfg.variants:
                    spec = specs[variant]
                    mat = materialize_design(panel, spec)
                    columns.append((variant, _mg_column(mat, spec, "full"), spec))
                title = "Pass-through estimates by inflation measure"
            else:
                spec = specs[cfg.variants[0]]
                mat = materialize_design(panel, spec)
                columns = [(label, _mg_column(mat, spec, label), spec) for label in cfg.decades]
                title = f"Pass-through estimates ({cfg.variants[0]})"
            emit(f"mg_table.{ext}", render_table(mg_rendered_table(columns, title), cfg.fmt))

    if "medians" in cfg.outputs:
        with stage("medians"):
            assert decade_data is not None
            emit(f"medians.{ext}", render_table(medians_table(decade_data), cfg.fmt))

    pass_panel: PassThroughPanel | None = None
    if _PANEL_OUTPUTS & set(cfg.outputs):
        with stage("passthroughs"):
            assert panel is not None
            spec = specs[cfg.variants[0]]
            windows = [DecadeWindow.from_label(lbl) for lbl in cfg.decades if lbl != "full"]
            pass_panel = estimate_decade_passthroughs(
                panel, spec, windows, decade_data=decade_data, exclude=cfg.exclude
            )
            for w in windows:
                _log_usable(
                    f"passthroughs {w.label}",
                    sum(r.decade == w.label for r in pass_panel.rows),
                    [e.reason for e in pass_panel.exclusions if e.decade == w.label],
                )
            if "passthrough_panel" in cfg.outputs:
                emit("passthrough_panel.csv", passthrough_csv(pass_panel))
                emit("exclusions.csv", exclusions_csv(pass_panel))

    if "second_stage" in cfg.outputs:
        with stage("second_stage"):
            assert pass_panel is not None
            emit(f"second_stage.{ext}", render_table(second_stage_table(table5_results(pass_panel)), cfg.fmt))

    params = SplitParams(min_leaf=cfg.forest.min_leaf, max_depth=cfg.forest.max_depth)

    if "importance" in cfg.outputs:
        with stage("importance"):
            assert pass_panel is not None
            rows = []
            for openness in ("em6", "em10"):
                x, y = _tree_rows(pass_panel, openness)
                tree = fit_tree(x, y, params, feature_names=(openness, "avg_inflation"))
                report = importance(tree)
                for name, raw, share in zip(report.feature_names, report.raw, report.shares):
                    rows.append(
                        TableRow(
                            f"{openness} tree: {name}",
                            (Cell(estimate=float(raw)), Cell(estimate=float(share))),
                        )
                    )
            table = RenderedTable(
                title="Predictor importance (single trees)",
                columns=("avg MSE gain", "share"),
                rows=tuple(rows),
                notes=("Average per-node MSE reduction, and its share of the total.",),
            )
            emit(f"importance.{ext}", render_table(table, cfg.fmt))

    if "pd_grid" in cfg.outputs:
        with stage("pd_grid"):
            assert pass_panel is not None and cfg.seed is not None
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
                log.info("forest: %d trees, %d nodes, max depth %d", forest.n_trees, nodes, depth)
            axes = (
                AxisSpec("em10", float(forest.feature_min[0]), float(forest.feature_max[0]), cfg.forest.steps),
                AxisSpec("avg_inflation", float(forest.feature_min[1]), float(forest.feature_max[1]), cfg.forest.steps),
            )
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


# preset name -> the RunConfig fields it sets; the CLI's preset choices come from here
PRESETS: dict[str, dict] = {
    "table1": {"variants": ("headline",)},
    "table2": {"variants": ("core",)},
    "table3": {
        "variants": ("core",), "control": "output_gap",
        "decades": ("full", "1990s", "2000s", "2010s"),
    },
    "table4": {"variants": ("earnings",)},
    "table5": {
        "variants": ("headline",),
        "decades": ("1980s", "1990s", "2000s", "2010s"),
        "outputs": ("passthrough_panel", "second_stage"),
        "exclude": ("CZ", "EE", "LU", "KR"),
    },
    "table6": {"variants": ("headline", "core"), "interactions": "globalisation", "decades": ("full",)},
    "table7": {"variants": ("headline", "core"), "interactions": "lagged_inflation", "decades": ("full",)},
    "table8": {"variants": ("headline", "core"), "interactions": "both", "decades": ("full",)},
    "a1": {
        "variants": ("core",), "control": "unemp_gap",
        "decades": ("full", "1990s", "2000s", "2010s"),
    },
    "fig2": {"outputs": ("medians",), "decades": ()},
    "fig4": {
        "variants": ("headline",),
        "decades": ("1980s", "1990s", "2000s", "2010s"),
        "outputs": ("passthrough_panel", "importance"),
        "exclude": ("CZ", "EE", "LU", "KR"),
    },
    "fig5": {
        "variants": ("headline",),
        "decades": ("1980s", "1990s", "2000s", "2010s"),
        "outputs": ("passthrough_panel", "pd_grid"),
        "exclude": ("CZ", "EE", "LU", "KR"),
    },
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
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return config_from_manifest(path)
    return config_from_mapping(parse_kv_text(text), base_dir=path.resolve().parent)


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("PASSTHRU_LOG", "WARNING").upper())
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

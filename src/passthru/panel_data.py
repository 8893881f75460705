"""Country-year panel container, CSV ingestion, transforms, and decade windows.

The dataset is a grid of named numeric series indexed by (country, year), stored
as one dense (variable, country, year) array in which NaN marks a missing cell
and every other cell is finite. Transforms are array operations, a decade
window is a slice of the year axis, and every operation is a pure function
returning a new dataset. Readers take the cells through `complete_cells`.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from contextlib import suppress
from dataclasses import dataclass
from importlib import resources
from numbers import Integral
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from passthru.errors import PassthruError


class PanelDataError(PassthruError):
    """Base for panel construction, ingestion, and transform failures."""


class DuplicateKeyError(PanelDataError):
    def __init__(self, country: str, year: int):
        super().__init__(f"duplicate row for ({country}, {year})")
        self.country, self.year = country, year


class MalformedNumberError(PanelDataError):
    def __init__(self, row: int, col: str, raw: str):
        super().__init__(f"row {row}, column {col!r}: cannot parse {raw!r} as a number")
        self.row, self.col = row, col


class EmptyFileError(PanelDataError):
    pass


class UnknownColumnError(PanelDataError):
    pass


class NonPositiveForLogError(PanelDataError):
    def __init__(self, country: str, year: int, value: float):
        super().__init__(f"log transform needs strictly positive values; ({country}, {year}) = {value}")
        self.country, self.year = country, year


class NameCollisionError(PanelDataError):
    pass


class EmptyWindowError(PanelDataError):
    pass


class NoDataError(PanelDataError):
    pass


PANEL_SCHEMA = ("cpi", "core_cpi", "ulc", "earnings_h", "output_gap", "unemp_gap", "kof", "em6", "em10")
DECADE_SCHEMA = ("kof", "em6", "em10")


@dataclass(frozen=True)
class DecadeWindow:
    """The calendar decade that starts at start_year: the inclusive span start_year..start_year + 9."""

    start_year: int

    def __post_init__(self):
        if not isinstance(self.start_year, Integral) or isinstance(self.start_year, bool):
            raise PanelDataError(f"decade start_year must be an int, got {self.start_year!r}")
        if self.start_year % 10 != 0:
            raise PanelDataError(f"{self.label}: decade must start on a multiple of 10")

    @property
    def label(self) -> str:
        return f"{self.start_year}s"

    @property
    def end_year(self) -> int:
        return self.start_year + 9

    @classmethod
    def from_label(cls, label: str) -> "DecadeWindow":
        text = label.strip()
        if not (text.endswith("s") and text[:-1].isdigit()):
            raise PanelDataError(f"cannot parse decade label {label!r} (expected e.g. '1980s')")
        return cls(int(text[:-1]))


@dataclass(frozen=True)
class TransformSpec:
    """Recipe for deriving one series from existing ones."""

    kind: str  # lag | log_diff | product | identity
    source: str
    other: str | None = None
    periods: int = 1

    def __post_init__(self):
        if self.kind not in ("lag", "log_diff", "product", "identity"):
            raise PanelDataError(f"unknown transform kind {self.kind!r}")
        if not self.source:
            raise PanelDataError("transform needs a source variable")
        if self.kind == "lag" and self.periods < 1:
            raise PanelDataError("lag order must be >= 1")
        if self.kind == "product" and not self.other:
            raise PanelDataError("product transform needs two operands")

    @classmethod
    def lag(cls, source: str, periods: int = 1) -> "TransformSpec":
        return cls("lag", source, periods=periods)

    @classmethod
    def log_diff(cls, source: str) -> "TransformSpec":
        return cls("log_diff", source)

    @classmethod
    def product(cls, a: str, b: str) -> "TransformSpec":
        return cls("product", a, other=b)

    @classmethod
    def identity(cls, source: str) -> "TransformSpec":
        return cls("identity", source)


def _check_axes(countries: Iterable[str], years: Iterable[int]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    countries, years = tuple(str(c) for c in countries), tuple(int(y) for y in years)
    if not countries or not years:
        raise PanelDataError("dataset needs at least one country and one year")
    if len(set(countries)) != len(countries) or any(not c for c in countries):
        raise PanelDataError("country codes must be unique and non-empty")
    if any(b <= a for a, b in zip(years, years[1:])):
        raise PanelDataError("years must be strictly increasing")
    return countries, years


class PanelDataset:
    """Immutable country x year grid of named numeric series.

    `values` is a (variable, country, year) array, which the dataset copies to
    float64 and keeps read-only. NaN is the only mark of a missing cell and
    observed cells are finite: an inf is rejected, naming the first one in
    (variable, country, year) order. Two datasets are equal when their grids
    and value arrays are, NaN for NaN.
    """

    __slots__ = ("countries", "years", "variables", "_values", "_row")

    def __init__(self, countries: Iterable[str], years: Iterable[int], variables: Iterable[str], values: np.ndarray):
        countries, years = _check_axes(countries, years)
        variables = tuple(str(v) for v in variables)
        values = np.array(values, dtype=float)
        if values.shape != (len(variables), len(countries), len(years)):
            raise PanelDataError(f"array of shape {values.shape} does not fit the grid")
        if any(not name for name in variables) or len(set(variables)) != len(variables):
            raise PanelDataError("variable names must be unique and non-empty")
        if np.isinf(values).any():  # argwhere only to name the first inf
            v, i, j = np.argwhere(np.isinf(values))[0]
            raise PanelDataError(f"{variables[v]}: infinite value at ({countries[i]}, {years[j]})")
        values.flags.writeable = False
        self.countries, self.years, self.variables = countries, years, variables
        self._values = values
        self._row = {name: r for r, name in enumerate(variables)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PanelDataset):
            return NotImplemented
        grid = (self.countries, self.years, self.variables) == (other.countries, other.years, other.variables)
        return grid and np.array_equal(self._values, other._values, equal_nan=True)

    def __repr__(self) -> str:
        years = f"{self.years[0]}..{self.years[-1]}"
        return f"PanelDataset({len(self.countries)} countries, years {years}, {len(self.variables)} variables)"

    def _layer(self, var: str) -> np.ndarray:
        return self._values[self._row[var]]

    def n_obs(self, var: str) -> int:
        return int(np.count_nonzero(~np.isnan(self._layer(var))))

    def _with_layers(self, layers: Mapping[str, np.ndarray]) -> "PanelDataset":
        """This dataset plus the named layers, in order; with none, this dataset."""
        if not layers:
            return self
        values = np.concatenate([self._values, list(layers.values())])
        # no dataset holds an inf, and a NaN made of one follows it: the first inf is the first bad cell
        return PanelDataset(self.countries, self.years, self.variables + tuple(layers), values)

    def complete_cells(self, variables: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
        """The variables' (variable, country, year) values, and the (country, year) mask where all are observed."""
        values = self._values[[self._row[v] for v in variables]]
        return values, ~np.isnan(values).any(axis=0)

    def complete_rows(self, variables: Iterable[str], country: str) -> list[tuple[int, list[float]]]:
        """Years of `country` where every listed variable is observed."""
        values, complete = self.complete_cells(variables)
        if country not in self.countries:
            return []
        i = self.countries.index(country)
        return list(zip(np.asarray(self.years)[complete[i]].tolist(), values[:, i, complete[i]].T.tolist()))


def read_data_file(path: str | Path) -> bytes:
    """The file's bytes; a path that cannot be read (missing, a directory, not permitted) fails, naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise PanelDataError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _load_keyed_csv(path: str | Path, schema: Iterable[str] | None, key: str) -> PanelDataset:
    path = Path(path)
    # decoded whole, so a byte that is not UTF-8 fails here, naming the file
    try:
        text = read_data_file(path).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise PanelDataError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise EmptyFileError(f"{path}: no header row")
    header = [h.strip() for h in header]
    if header[:2] != ["country", key]:
        raise UnknownColumnError(f"{path}: header must start with 'country,{key}', got {header[:2]}")
    var_names = header[2:]
    if len(set(var_names)) != len(var_names) or any(not v for v in var_names):
        raise UnknownColumnError(f"{path}: variable columns must be unique and non-empty")
    unknown = [] if schema is None else [v for v in var_names if v not in tuple(schema)]
    if unknown:
        raise UnknownColumnError(f"{path}: unknown columns {unknown} (schema rejects them)")

    rows: dict[tuple[str, int], list[float]] = {}  # in order of appearance; NaN for an empty cell
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise MalformedNumberError(row_no, "<row>", ",".join(row))
        country = row[0].strip()
        if not country:
            raise MalformedNumberError(row_no, "country", row[0])
        try:
            year = int(row[1].strip())
        except ValueError:
            raise MalformedNumberError(row_no, key, row[1]) from None
        if (country, year) in rows:
            raise DuplicateKeyError(country, year)
        cells = rows[(country, year)] = []
        for name, raw in zip(var_names, row[2:]):
            raw = raw.strip()
            try:
                value = float(raw or "nan")
            except ValueError:
                raise MalformedNumberError(row_no, name, raw) from None
            # only an empty cell is missing: a "nan" text is malformed, and the dataset names an inf
            if raw and math.isnan(value):
                raise MalformedNumberError(row_no, name, raw)
            cells.append(value)
    if not rows:
        raise EmptyFileError(f"{path}: header but no data rows")

    country_at = {c: i for i, c in enumerate(dict.fromkeys(c for c, _ in rows))}
    year_at = {y: j for j, y in enumerate(sorted({y for _, y in rows}))}
    values = np.full((len(var_names), len(country_at), len(year_at)), np.nan)
    values[:, [country_at[c] for c, _ in rows], [year_at[y] for _, y in rows]] = np.array(list(rows.values())).T
    return PanelDataset(country_at, year_at, var_names, values)


def load_panel_csv(path: str | Path, schema: Iterable[str] | None = PANEL_SCHEMA) -> PanelDataset:
    """Read a wide-format CSV keyed by country and year.

    Header is `country,year,<var>,...`; empty cells are missing observations.
    Pass schema=None to accept arbitrary variable columns.
    """
    return _load_keyed_csv(path, schema, "year")


def load_decade_csv(path: str | Path, schema: Iterable[str] | None = DECADE_SCHEMA) -> PanelDataset:
    """Read a decade-keyed CSV (`country,decade,...`); the year axis holds decade starts."""
    ds = _load_keyed_csv(path, schema, "decade")
    bad = [y for y in ds.years if y % 10 != 0]
    if bad:
        raise PanelDataError(f"{path}: decades must be multiples of 10, got {bad}")
    return ds


def panel_csv_text(ds: PanelDataset) -> str:
    """The dataset in the same wide format the loader reads.

    Floats are written with repr so a load round-trips every cell bit-exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["country", "year", *ds.variables])
    for i, j in np.argwhere((~np.isnan(ds._values)).any(axis=0)).tolist():  # rows with an observed cell
        cells = ds._values[:, i, j].tolist()
        writer.writerow([ds.countries[i], ds.years[j]] + ["" if math.isnan(v) else repr(v) for v in cells])
    return buf.getvalue()


def write_panel_csv(ds: PanelDataset, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(panel_csv_text(ds), encoding="utf-8", newline="")
    return path


def table_a2_path() -> Path:
    """Location of the bundled decade covariate fixture."""
    return Path(str(resources.files("passthru").joinpath("fixtures/table_a2.csv")))


def apply_transform(ds: PanelDataset, t: TransformSpec, out_name: str) -> PanelDataset:
    """Add a derived series; source cells that are missing stay missing."""
    return apply_transforms(ds, {out_name: t})


def apply_transforms(ds: PanelDataset, transforms: Mapping[str, TransformSpec]) -> PanelDataset:
    """Add derived series in one pass, as applying each in turn would.

    A series' operands come from the dataset or from a series listed before
    it. Errors are those of the one-by-one route, in its order: an infinite
    cell of an earlier series is reported before a later series' bad operand
    or non-positive log cell.
    """
    layers: dict[str, np.ndarray] = {}
    try:
        for name, t in transforms.items():
            if not name:
                raise PanelDataError("transform output needs a name")
            if name in ds.variables:
                raise NameCollisionError(f"variable {name!r} already exists")
            layers[name] = _transform_layer(ds, t, layers)
    except PanelDataError:
        ds._with_layers(layers)  # raises for an earlier series' infinite cell
        raise
    return ds._with_layers(layers)


def _transform_layer(ds: PanelDataset, t: TransformSpec, layers: Mapping[str, np.ndarray]) -> np.ndarray:
    """The (country, year) layer `t` derives, its operands taken from `layers` or else from `ds`; NaN stays NaN."""
    try:
        values, *other = [layers[name] if name in layers else ds._layer(name) for name in (t.source, t.other) if name]
    except KeyError as exc:  # _layer's, for a name the dataset lacks
        raise PanelDataError(f"transform operand {exc.args[0]!r} not in dataset") from None
    if t.kind == "identity":
        return values
    if t.kind == "lag":
        return _lag(ds, values, t.periods)
    if t.kind == "product":
        # an overflow is reported as an infinite cell; inf * 0 is NaN only past an earlier series' reported overflow
        with np.errstate(over="ignore", invalid="ignore"):
            return values * other[0]
    bad = values <= 0.0
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonPositiveForLogError(ds.countries[i], ds.years[j], float(values[i, j]))
    # np.log of a reversed 1-d view has math.log's bits: numpy 2.4.6 (the only version run) takes its SIMD
    # log, which changes the last bit of some cells, on forward strides only, and on a negative one calls
    # libm's log cell by cell, as math.log does. NaN stays NaN, with no warning.
    logs = np.log(values.ravel()[::-1])[::-1].reshape(values.shape)
    with np.errstate(invalid="ignore"):  # inf - inf: both infs come from an overflow that is reported
        return logs - _lag(ds, logs, 1)


def _lag(ds: PanelDataset, values: np.ndarray, periods: int) -> np.ndarray:
    """Calendar lag of a (country, year) layer: year y takes the cell of year y - periods, NaN if none."""
    year_at = {y: j for j, y in enumerate(ds.years)}
    src = np.array([year_at.get(y - periods, -1) for y in ds.years])
    return np.where(src >= 0, values[:, src], np.nan)


def window(ds: PanelDataset, w: DecadeWindow) -> PanelDataset:
    """Restrict to years inside the window, a slice of the year axis; earlier transforms keep their cells."""
    span = slice(bisect_left(ds.years, w.start_year), bisect_right(ds.years, w.end_year))
    if span.start == span.stop:
        raise EmptyWindowError(f"{w.label}: no dataset years in [{w.start_year}, {w.end_year}]")
    return PanelDataset(ds.countries, ds.years[span], ds.variables, ds._values[:, :, span])


def country_span(ds: PanelDataset, start: int, stop: int) -> PanelDataset:
    """Restrict to countries start..stop - 1, a slice of the country axis; every series keeps its cells."""
    span = slice(start, stop)
    if not ds.countries[span]:
        raise PanelDataError(f"no countries in positions [{start}, {stop})")
    return PanelDataset(ds.countries[span], ds.years, ds.variables, ds._values[:, span])


def window_means(ds: PanelDataset, names: Iterable[str]) -> np.ndarray:
    """Each variable's per-country mean over the observed years of `ds`, as (variable, country); NaN if none.

    The sum runs year by year as Python's sum() adds, so each mean equals
    sum(obs) / len(obs) bit for bit (np.mean sums pairwise).
    """
    values, _ = ds.complete_cells(names)
    observed = ~np.isnan(values)  # missing cells hold NaN
    # + 0.0 turns a sum of -0.0 cells into 0.0, as sum() starting from 0 does
    sums = np.cumsum(np.where(observed, values, 0.0), axis=2)[:, :, -1] + 0.0
    with np.errstate(invalid="ignore"):  # 0 / 0 is NaN
        return sums / np.count_nonzero(observed, axis=2)


def median_by_window(ds: PanelDataset, var: str, w: DecadeWindow) -> float:
    """Cross-country median of the per-country means inside the window, over the countries observed there."""
    if var not in ds.variables:
        raise PanelDataError(f"unknown variable {var!r}")
    with suppress(EmptyWindowError):
        means = window_means(window(ds, w), [var])[0]
        if not np.isnan(means).all():
            # statistics.median's rule; np.median would turn a middle -0.0 into 0.0
            seen = sorted(means[~np.isnan(means)].tolist())
            mid = len(seen) // 2
            return seen[mid] if len(seen) % 2 else (seen[mid - 1] + seen[mid]) / 2
    raise NoDataError(f"{var}: no observations in {w.label}")

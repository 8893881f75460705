from __future__ import annotations

import math
import re
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from passthru.panel_data import (
    DecadeWindow,
    DuplicateKeyError,
    EmptyFileError,
    EmptyWindowError,
    MalformedNumberError,
    NameCollisionError,
    NoDataError,
    NonPositiveForLogError,
    PanelDataError,
    PanelDataset,
    TransformSpec,
    UnknownColumnError,
    apply_transform,
    apply_transforms,
    country_span,
    load_decade_csv,
    load_panel_csv,
    median_by_window,
    panel_csv_text,
    table_a2_path,
    window,
    window_means,
    write_panel_csv,
)


def one_country(values: dict[int, float], var: str = "x") -> PanelDataset:
    years = sorted(values)
    return PanelDataset(["AA"], years, {var: {("AA", y): v for y, v in values.items()}})


# ---------------------------------------------------------------- ingestion

def test_table_a2_fixture_values():
    ds = load_decade_csv(table_a2_path())
    assert ds.value("em10", "US", 2010) == 0.0506
    assert ds.value("kof", "AT", 1980) == 0.744
    assert len(ds.countries) == 16
    total = sum(ds.n_obs("kof") for _ in [0])
    assert total == 58


def test_load_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("country,year,cpi\n")
    with pytest.raises(EmptyFileError):
        load_panel_csv(p)
    p2 = tmp_path / "nothing.csv"
    p2.write_text("")
    with pytest.raises(EmptyFileError):
        load_panel_csv(p2)


def test_load_rejects_duplicate_key(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("country,year,cpi\nAT,1990,100\nAT,1990,101\n")
    with pytest.raises(DuplicateKeyError) as err:
        load_panel_csv(p)
    assert err.value.country == "AT"
    assert err.value.year == 1990


def test_load_rejects_malformed_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("country,year,cpi\nAT,1990,abc\n")
    with pytest.raises(MalformedNumberError) as err:
        load_panel_csv(p)
    assert err.value.row == 2
    assert err.value.col == "cpi"


def test_load_rejects_unknown_column(tmp_path):
    p = tmp_path / "extra.csv"
    p.write_text("country,year,cpi,mystery\nAT,1990,100,1\n")
    with pytest.raises(UnknownColumnError):
        load_panel_csv(p, schema=("cpi",))
    # open schema accepts anything
    ds = load_panel_csv(p, schema=None)
    assert ds.value("mystery", "AT", 1990) == 1.0


def test_missing_cells_are_absent(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("country,year,cpi,ulc\nAT,1990,100,\nAT,1991,,90\n")
    ds = load_panel_csv(p, schema=("cpi", "ulc"))
    assert ds.value("cpi", "AT", 1990) == 100.0
    assert ds.value("ulc", "AT", 1990) is None
    assert ds.value("cpi", "AT", 1991) is None


def test_round_trip_is_bit_exact(tmp_path, toy_levels):
    path = write_panel_csv(toy_levels, tmp_path / "panel.csv")
    again = load_panel_csv(path, schema=None)
    assert again == toy_levels
    # including awkward floats
    ds = one_country({1990: 0.1, 1991: 1e-17, 1992: -3.141592653589793})
    path = write_panel_csv(ds, tmp_path / "tricky.csv")
    assert load_panel_csv(path, schema=None) == ds


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def panels_with_holes(draw) -> PanelDataset:
    """Every (country, year) row keeps at least one observed cell, so the CSV lists it."""
    countries = draw(st.lists(st.text("ABCXYZ", min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    years = sorted(draw(st.sets(st.integers(1950, 2030), min_size=1, max_size=6)))
    variables = draw(st.lists(st.sampled_from(("v1", "v2", "v3", "v4")), min_size=1, max_size=4, unique=True))
    series = {v: {} for v in variables}
    for c in countries:
        for y in years:
            present = draw(st.sets(st.sampled_from(variables), min_size=1))
            for v in present:
                series[v][(c, y)] = draw(FINITE)
    return PanelDataset(countries, years, series)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ds=panels_with_holes())
def test_panel_with_holes_survives_csv_round_trip_bit_for_bit(ds, tmp_path):
    path = tmp_path / "holes.csv"
    path.write_text(panel_csv_text(ds), encoding="utf-8")
    again = load_panel_csv(path, schema=None)
    assert (again.countries, again.years, again.variables) == (ds.countries, ds.years, ds.variables)
    for v in ds.variables:
        for c in ds.countries:
            for y in ds.years:
                cell, back = ds.value(v, c, y), again.value(v, c, y)
                if (c, y) in ds.cells(v):
                    assert back.hex() == cell.hex()
                else:
                    assert cell is None and back is None


def assert_nan_marks_the_missing_cells(ds: PanelDataset) -> None:
    """n_obs, cells, value and complete_cells all read a cell as missing exactly where it is NaN."""
    values, complete = ds.complete_cells(ds.variables)
    observed = ~np.isnan(values)
    assert np.array_equal(complete, observed.all(axis=0))
    for v, var in enumerate(ds.variables):
        assert ds.n_obs(var) == np.count_nonzero(observed[v])
        keys = [(ds.countries[i], ds.years[j]) for i, j in np.argwhere(observed[v]).tolist()]
        assert dict(ds.cells(var)) == dict(zip(keys, values[v][observed[v]].tolist()))
        assert np.array_equal(ds.complete_cells([var])[1], observed[v])
        for i, country in enumerate(ds.countries):
            for j, year in enumerate(ds.years):
                cell = ds.value(var, country, year)
                assert (cell is None) == (not observed[v, i, j])
                assert cell is None or cell == values[v, i, j]


@st.composite
def gappy_positive_panels(draw) -> PanelDataset:
    """Two-variable panels on consecutive and broken year axes, any cell missing, values fit for a log."""
    countries = [f"C{i}" for i in range(draw(st.integers(1, 4)))]
    years = sorted(draw(st.sets(st.integers(1978, 2003), min_size=1, max_size=12)))
    level = st.floats(min_value=1e-3, max_value=1e3)
    series = {
        var: {(c, y): draw(level) for c in countries for y in years if draw(st.booleans())} for var in ("x", "z")
    }
    return PanelDataset(countries, years, series)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ds=gappy_positive_panels(), dense=st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
def test_nan_is_the_only_missing_cell_marker_on_every_path(ds, dense, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        made = [ds, PanelDataset.from_arrays(["AA", "BB"], [1990, 1991, 1993], ["d"], np.reshape(dense, (1, 2, 3)))]
        if not np.isnan(ds.complete_cells(ds.variables)[0]).all():  # else the CSV would list no row
            made.append(load_panel_csv(write_panel_csv(ds, tmp_path / "gappy.csv"), schema=None))
        derived = apply_transforms(ds, {
            "x_lag2": TransformSpec.lag("x", 2),
            "dx": TransformSpec.log_diff("x"),
            "xz": TransformSpec.product("x", "z"),
            "dx_z": TransformSpec.product("dx", "z"),
            "same": TransformSpec.identity("dx"),
        })
        decade = DecadeWindow(ds.years[0] // 10 * 10)
        made += [derived, window(derived, decade), country_span(derived, 0, 1)]
        for each in made:
            assert_nan_marks_the_missing_cells(each)


def test_an_overflowed_product_is_reported_before_a_later_series_fault():
    ds = PanelDataset(["AA", "BB"], [1990, 1991], {
        "x": {("AA", 1990): 1e200, ("AA", 1991): 2.0, ("BB", 1991): -1.0},
        "zero": {("AA", 1990): 0.0, ("BB", 1990): 1.0},
    })
    later_faults = (
        TransformSpec.lag("absent"),  # an unknown operand
        TransformSpec.log_diff("x"),  # a non-positive log cell
        TransformSpec.product("xx", "zero"),  # inf * 0: NaN at the overflowed cell
    )
    for later in later_faults:
        with pytest.raises(PanelDataError, match=r"^xx: non-finite value at \(AA, 1990\); leave missing cells absent$"):
            apply_transforms(ds, {"xx": TransformSpec.product("x", "x"), "later": later})


@pytest.mark.parametrize("later", [TransformSpec.product("xx", "zero"), TransformSpec.log_diff("xx")])
def test_an_overflowed_product_raises_its_error_and_no_numpy_warning(later):
    # inf * 0 and inf - inf are NaN: numpy's "invalid value" warnings, before the error names xx
    ds = PanelDataset(["AA"], [1990, 1991], {
        "x": {("AA", 1990): 1e200, ("AA", 1991): 1e200},
        "zero": {("AA", 1990): 0.0, ("AA", 1991): 0.0},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PanelDataError, match=r"^xx: non-finite value at \(AA, 1990\); leave missing cells absent$"):
            apply_transforms(ds, {"xx": TransformSpec.product("x", "x"), "later": later})


def test_loaders_read_a_file_saved_with_a_byte_order_mark(tmp_path):
    bom = b"\xef\xbb\xbf"  # UTF-8 byte-order mark, as Excel saves CSV
    panel = write_panel_csv(one_country({1990: 1.5, 1991: 2.5}), tmp_path / "panel.csv")
    (tmp_path / "bom.csv").write_bytes(bom + panel.read_bytes())
    assert load_panel_csv(tmp_path / "bom.csv", schema=None) == load_panel_csv(panel, schema=None)
    (tmp_path / "decades.csv").write_bytes(bom + table_a2_path().read_bytes())
    assert load_decade_csv(tmp_path / "decades.csv") == load_decade_csv(table_a2_path())


def test_array_constructor_copies_and_checks_its_array():
    values = np.array([[[1.0, 2.0, 3.0]], [[4.0, 5.0, 6.0]]])
    ds = PanelDataset.from_arrays(["AA"], [1990, 1991, 1992], ["x", "y"], values)
    assert ds == PanelDataset(
        ["AA"], [1990, 1991, 1992],
        {"x": {("AA", 1990 + j): v for j, v in enumerate((1.0, 2.0, 3.0))},
         "y": {("AA", 1990 + j): v for j, v in enumerate((4.0, 5.0, 6.0))}},
    )
    values[0, 0, 0] = 99.0  # the dataset keeps its own copy
    assert ds.value("x", "AA", 1990) == 1.0
    values[1, 0, 2] = np.inf
    with pytest.raises(PanelDataError, match=r"y: non-finite value at \(AA, 1992\)"):
        PanelDataset.from_arrays(["AA"], [1990, 1991, 1992], ["x", "y"], values)
    with pytest.raises(PanelDataError):
        PanelDataset.from_arrays(["AA"], [1990], ["x"], np.ones((1, 1, 2)))


def test_product_overflow_is_rejected():
    ds = one_country({1990: 1e200})
    with pytest.raises(PanelDataError, match="non-finite"):
        apply_transform(ds, TransformSpec.product("x", "x"), "xx")


def test_decade_loader_requires_decade_multiples(tmp_path):
    p = tmp_path / "dec.csv"
    p.write_text("country,decade,kof\nAT,1985,0.7\n")
    with pytest.raises(PanelDataError, match=r"decades must be multiples of 10, got \[1985\]$") as err:
        load_decade_csv(p, schema=("kof",))
    assert not isinstance(err.value, MalformedNumberError)  # every number parsed


def test_decade_loader_names_the_file_and_every_bad_decade(tmp_path):
    p = tmp_path / "decades.csv"
    p.write_text("country,decade,em6\nAT,1985,0.1\nAT,1990,0.2\nBE,2003,0.3\n")
    with pytest.raises(PanelDataError) as err:
        load_decade_csv(p)
    assert str(err.value) == f"{p}: decades must be multiples of 10, got [1985, 2003]"


def test_dataset_rejects_nan_cells():
    with pytest.raises(PanelDataError):
        PanelDataset(["AA"], [1990], {"x": {("AA", 1990): float("nan")}})


def test_constructors_name_the_first_non_finite_cell_in_grid_order():
    countries, years = ["AA", "BB"], [1990, 1991]
    given = {("BB", 1991): math.nan, ("BB", 1990): 1.0, ("AA", 1991): -math.inf, ("AA", 1990): 2.0}
    first = r"^y: non-finite value at \(AA, 1991\); leave missing cells absent$"
    with pytest.raises(PanelDataError, match=first):
        PanelDataset(countries, years, {"x": {("AA", 1990): 1.0}, "y": given})
    values = np.ones((2, 2, 2))
    values[1] = [[2.0, -math.inf], [1.0, math.nan]]
    with pytest.raises(PanelDataError, match=first):
        PanelDataset.from_arrays(countries, years, ["x", "y"], values)


# ---------------------------------------------------------------- transforms

def test_log_diff_constant_series():
    ds = one_country({1990: 100.0, 1991: 100.0, 1992: 100.0})
    out = apply_transform(ds, TransformSpec.log_diff("x"), "dx")
    assert out.value("dx", "AA", 1990) is None
    assert out.value("dx", "AA", 1991) == 0.0
    assert out.value("dx", "AA", 1992) == 0.0


def test_log_diff_hand_value():
    ds = one_country({1990: 100.0, 1991: 110.0})
    out = apply_transform(ds, TransformSpec.log_diff("x"), "dx")
    assert out.value("dx", "AA", 1991) == pytest.approx(0.0953102, abs=1e-7)


def test_log_diff_rejects_non_positive():
    ds = one_country({1990: 100.0, 1991: -1.0})
    with pytest.raises(NonPositiveForLogError) as err:
        apply_transform(ds, TransformSpec.log_diff("x"), "dx")
    assert (err.value.country, err.value.year) == ("AA", 1991)


def test_lag_two_years():
    ds = one_country({1990: 1.0, 1991: 2.0, 1992: 3.0})
    out = apply_transform(ds, TransformSpec.lag("x", 2), "x_lag2")
    assert out.value("x_lag2", "AA", 1990) is None
    assert out.value("x_lag2", "AA", 1991) is None
    assert out.value("x_lag2", "AA", 1992) == 1.0


def test_lag_is_calendar_based():
    ds = one_country({1990: 1.0, 1992: 3.0})  # no 1991 row
    out = apply_transform(ds, TransformSpec.lag("x", 1), "x_lag1")
    # a positional shift would put 1.0 here; the calendar lag leaves it missing
    assert out.value("x_lag1", "AA", 1992) is None
    out2 = apply_transform(ds, TransformSpec.lag("x", 2), "x_lag2")
    assert out2.value("x_lag2", "AA", 1992) == 1.0


def test_product_is_cellwise(toy_levels):
    out = apply_transform(toy_levels, TransformSpec.product("cpi", "ulc"), "prod")
    assert out.value("prod", "AA", 1990) == 100.0 * 90.0
    assert out.value("prod", "BB", 1992) is None  # cpi missing there


def test_name_collision():
    ds = one_country({1990: 1.0})
    with pytest.raises(NameCollisionError):
        apply_transform(ds, TransformSpec.identity("x"), "x")


def test_log_diff_of_geometric_series_is_constant():
    for growth in (0.5, 0.9, 1.0, 1.07, 2.0):
        levels = {1980 + t: 100.0 * growth**t for t in range(20)}
        out = apply_transform(one_country(levels), TransformSpec.log_diff("x"), "dx")
        for year in range(1981, 2000):
            assert abs(out.value("dx", "AA", year) - math.log(growth)) <= 1e-12


# ---------------------------------------------------------------- windows

def test_window_retains_decade(toy_levels):
    w = DecadeWindow.from_label("1990s")
    sub = window(toy_levels, w)
    assert sub.years == tuple(range(1990, 1995))
    with pytest.raises(EmptyWindowError):
        window(toy_levels, DecadeWindow.from_label("2010s"))


def test_pre_window_lag_survives_at_window_start():
    ds = one_country({y: float(y) for y in range(1979, 1986)})
    lagged = apply_transform(ds, TransformSpec.lag("x", 1), "x_lag1")
    sub = window(lagged, DecadeWindow(1980))
    assert sub.value("x_lag1", "AA", 1980) == 1979.0


def test_nested_windows_equal_intersection():
    ds = one_country({y: float(y) for y in range(1980, 2000)})
    w80 = DecadeWindow(1980)
    again = window(window(ds, w80), w80)
    assert again == window(ds, w80)


def test_decade_window_validation():
    with pytest.raises(PanelDataError, match=r"^1985s: decade must start on a multiple of 10$"):
        DecadeWindow(1985)
    with pytest.raises(PanelDataError):
        DecadeWindow.from_label("decade of 1980")
    w = DecadeWindow.from_label(" 2010s ")
    assert (w.start_year, w.end_year) == (2010, 2019)


@pytest.mark.parametrize("start", [1990.0, "1990", True])
def test_a_decade_window_names_a_start_that_is_not_an_int(start):
    with pytest.raises(PanelDataError, match=rf"^decade start_year must be an int, got {re.escape(repr(start))}$"):
        DecadeWindow(start)


def test_a_decade_window_is_its_start_year():
    w = DecadeWindow(1990)
    assert w == DecadeWindow.from_label(" 1990s ") == DecadeWindow.from_label("01990s")
    assert (w.label, w.start_year, w.end_year) == ("1990s", 1990, 1999)


# ---------------------------------------------------------------- medians

def test_median_matches_decade_fixture():
    ds = load_decade_csv(table_a2_path())
    assert median_by_window(ds, "em6", DecadeWindow(1980)) == pytest.approx(0.0041, abs=1e-12)
    assert median_by_window(ds, "em10", DecadeWindow(2010)) == pytest.approx(0.0442, abs=1e-12)


def test_median_single_country():
    ds = one_country({1990: 7.0})
    assert median_by_window(ds, "x", DecadeWindow(1990)) == 7.0


def test_median_no_data():
    ds = one_country({1990: 7.0})
    with pytest.raises(NoDataError):
        median_by_window(ds, "x", DecadeWindow(2000))


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=9),
    scale=st.floats(min_value=0.01, max_value=50),
)
def test_median_ordering_and_scale_invariance(values, scale):
    countries = [f"C{i}" for i in range(len(values))]
    base = {"x": {(c, 1990): v for c, v in zip(countries, values)}}
    ds = PanelDataset(countries, [1990], base)
    shuffled = PanelDataset(countries[::-1], [1990], base)
    w = DecadeWindow(1990)
    m = median_by_window(ds, "x", w)
    assert median_by_window(shuffled, "x", w) == m
    scaled = PanelDataset(countries, [1990], {"x": {k: scale * v for k, v in base["x"].items()}})
    assert median_by_window(scaled, "x", w) == pytest.approx(scale * m, rel=1e-12, abs=1e-12)


TINY_OR_SIGNED_ZERO = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0)) | st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.none() | TINY_OR_SIGNED_ZERO, min_size=3, max_size=3), min_size=1, max_size=11))
@example(rows=[[-5e-324, 0.0, 0.0], [1.0, None, None], [-1.0, None, None]])  # a mean underflows to -0.0
def test_median_by_window_is_statistics_median_bit_for_bit(rows):
    countries = [f"C{i:02d}" for i in range(len(rows))]
    cells = {(c, 1990 + j): v for c, row in zip(countries, rows) for j, v in enumerate(row) if v is not None}
    ds = PanelDataset(countries, [1990, 1991, 1992], {"x": cells})
    means = [m for m in window_means(ds, ["x"])[0].tolist() if not math.isnan(m)]
    w = DecadeWindow(1990)
    if not means:
        with pytest.raises(NoDataError):
            median_by_window(ds, "x", w)
    else:
        assert median_by_window(ds, "x", w).hex() == statistics.median(means).hex()


def test_transform_spec_validation():
    with pytest.raises(PanelDataError):
        TransformSpec("sqrt", "x")
    with pytest.raises(PanelDataError):
        TransformSpec.lag("x", 0)
    with pytest.raises(PanelDataError):
        TransformSpec("product", "x")


def test_csv_text_matches_written_file(tmp_path, toy_levels):
    path = write_panel_csv(toy_levels, tmp_path / "a.csv")
    assert path.read_text() == panel_csv_text(toy_levels)

from __future__ import annotations

import codecs
import csv
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import passthru

from passthru import cli_report
from passthru.kvconfig import format_kv
from passthru.cli_report import (
    CONTROLS,
    FORMATS,
    INTERACTIONS,
    OUTPUTS,
    VARIANTS,
    Cell,
    ConfigError,
    ForestConfig,
    RaggedGridError,
    RenderedTable,
    RunConfig,
    StageError,
    TableRow,
    config_from_mapping,
    config_from_manifest,
    config_to_mapping,
    fmt6,
    main,
    p_stars,
    render_table,
    run_pipeline,
    stars_for,
)
from passthru.mg_panel import build_passthrough_spec
from passthru.panel_data import NonPositiveForLogError, PanelDataset, panel_csv_text, table_a2_path, write_panel_csv
from passthru.synth_lab import DgpParams, generate_panel


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("data")
    ds = generate_panel(DgpParams(n_countries=12, n_years=40, seed=101))
    write_panel_csv(ds, root / "panel.csv")
    return root


def read_rows(path: Path) -> dict[tuple[str, str], dict]:
    payload = json.loads(path.read_text())
    out = {}
    for row in payload["rows"]:
        for col, cell in zip(payload["columns"], row["cells"]):
            out[(row["label"], col)] = cell
    return out


# ---------------------------------------------------------------- stars / formatting

def test_star_thresholds_exact_at_boundaries():
    assert stars_for(1.960, 1.0) == "**"
    assert stars_for(1.9599, 1.0) == "*"
    assert stars_for(2.576, 1.0) == "***"
    assert stars_for(2.5759, 1.0) == "**"
    assert stars_for(1.645, 1.0) == "*"
    assert stars_for(1.6449, 1.0) == ""
    assert stars_for(-2.0, 1.0) == "**"


def test_star_published_examples():
    # 0.124 over 0.033 is clearly significant; 0.064 over 0.061 is not
    assert stars_for(0.124, 0.033) == "***"
    assert stars_for(0.064, 0.061) == ""


def test_degenerate_se_flag():
    cell = Cell(0.5, 0.0)
    assert (cell.stars, cell.degenerate_se) == ("***", True)
    cell = Cell(0.0, 0.0)
    assert (cell.stars, cell.degenerate_se) == ("", True)


def test_p_stars():
    assert p_stars(0.0005) == "***"
    assert p_stars(0.02) == "**"
    assert p_stars(0.089) == "*"
    assert p_stars(0.2) == ""


def test_fmt6():
    assert fmt6(0.124) == "0.124"
    assert fmt6(1234567.0) == "1.23457e+06"
    assert fmt6(-0.0) == "0"
    assert fmt6(float("nan")) == "nan"


# ---------------------------------------------------------------- rendering

def sample_table() -> RenderedTable:
    return RenderedTable(
        title="Demo",
        columns=("(I)", "(II)"),
        rows=(
            TableRow("slope", (Cell(0.124, 0.033), Cell(0.064, 0.061))),
            TableRow("n", (Cell(text="58"), Cell(text="58"))),
        ),
    )


def test_text_rendering_places_se_beneath():
    text = render_table(sample_table(), "text")
    lines = text.splitlines()
    slope_line = next(i for i, line in enumerate(lines) if line.startswith("slope"))
    assert "0.124***" in lines[slope_line]
    assert "0.033" in lines[slope_line + 1]
    assert lines[slope_line + 1].strip().startswith("0.033")


def test_csv_and_json_rendering_round_trip():
    table = sample_table()
    csv_text = render_table(table, "csv")
    assert csv_text.splitlines()[0] == "row,column,estimate,se,stars,text,degenerate_se"
    assert "slope,(I),0.124,0.033,***,," in csv_text
    payload = json.loads(render_table(table, "json"))
    assert payload["rows"][0]["cells"][0]["estimate"] == 0.124
    assert payload["rows"][0]["cells"][0]["stars"] == "***"


def test_degenerate_se_is_rendered_with_flag():
    table = RenderedTable(
        title="T", columns=("(I)",),
        rows=(TableRow("slope", (Cell(0.5, 0.0),)),),
    )
    text = render_table(table, "text")
    assert "0.5***" in text
    assert "(degenerate)" in text


def test_ragged_grid_rejected():
    table = RenderedTable(
        title="T", columns=("a", "b"),
        rows=(TableRow("r", (Cell(text="1"),)),),
    )
    with pytest.raises(RaggedGridError):
        render_table(table, "text")


# ---------------------------------------------------------------- config

def test_config_unknown_key():
    with pytest.raises(ConfigError) as err:
        config_from_mapping({"output.dir": "out", "mystery.key": "1"})
    assert "mystery.key" in str(err.value)


def test_config_missing_panel_file_names_field(tmp_path):
    with pytest.raises(ConfigError) as err:
        config_from_mapping(
            {"output.dir": str(tmp_path), "data.panel_path": "nope.csv"}, base_dir=tmp_path
        )
    assert err.value.field_path == "data.panel_path"


def test_config_requires_seed_for_forest(tmp_path, data_dir):
    mapping = {
        "output.dir": str(tmp_path),
        "data.panel_path": str(data_dir / "panel.csv"),
        "outputs": "pd_grid",
    }
    with pytest.raises(ConfigError) as err:
        config_from_mapping(mapping)
    assert err.value.field_path == "seed"


@pytest.mark.parametrize(
    "key, value",
    [
        ("forest.trees", "0"),
        ("forest.min_leaf", "0"),
        ("forest.subsample", "0"),
        ("forest.subsample", "1.5"),
        ("forest.steps", "0"),
        ("forest.steps", "1"),
        ("forest.max_depth", "-1"),
    ],
)
def test_config_rejects_degenerate_forest_settings(tmp_path, data_dir, key, value):
    mapping = {
        "output.dir": str(tmp_path),
        "data.panel_path": str(data_dir / "panel.csv"),
        "outputs": "pd_grid",
        "seed": "1",
        key: value,
    }
    with pytest.raises(ConfigError) as err:
        config_from_mapping(mapping)
    assert err.value.field_path == key


@pytest.mark.parametrize(
    "lines, field",
    [
        (("outputs = mg_table", "forest.max_depth = -1"), "forest.max_depth"),
        (("decades = 1990s,2000s", "outputs = passthrough_panel,pd_grid", "seed = -3"), "seed"),
        (("data.synthetic = true", "dgp.seed = -1"), "dgp"),
        (("data.synthetic = true",), "data.panel_path"),  # the generated panel would be fitted, the file unread
    ],
)
def test_bad_forest_and_seed_values_fail_before_any_output(tmp_path, data_dir, capsys, lines, field):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([f"data.panel_path = {data_dir / 'panel.csv'}", f"output.dir = {out}", *lines]) + "\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("dgp.lambda_schedule = 0.1,abc", "dgp.lambda_schedule: expected a number, got 'abc'"),
    ("dgp.rho = nan", "dgp: rho must be finite, got nan"),
    ("dgp.lam = inf", "dgp: lam must be finite, got inf"),
])
def test_bad_generator_values_fail_before_any_output(tmp_path, data_dir, capsys, line, message):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data.panel_path = {data_dir / 'panel.csv'}\noutput.dir = {out}\ndata.synthetic = true\n{line}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_preset_rejects_a_negative_seed_before_any_output(tmp_path, data_dir, capsys):
    out = tmp_path / "out"
    assert main(["preset", "fig5", "--data", str(data_dir), "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error: seed: ")
    assert not out.exists()


@pytest.mark.parametrize("value, synthetic", [
    ("true", True), ("YES", True), ("1", True), ("False", False), ("no", False), ("0", False), ("", False),
])
def test_config_synthetic_switch_values(tmp_path, data_dir, value, synthetic):
    # a synthetic run reads no panel file
    panel = {} if synthetic else {"data.panel_path": str(data_dir / "panel.csv")}
    mapping = panel | {"output.dir": str(tmp_path), "data.synthetic": value}
    assert (config_from_mapping(mapping).dgp is not None) == synthetic


def test_config_synthetic_switch_is_strict(tmp_path, data_dir):
    base = {"data.panel_path": str(data_dir / "panel.csv"), "output.dir": str(tmp_path)}
    for mapping, field in [
        (base | {"data.synthetic": "ture", "dgp.countires": "30"}, "data.synthetic"),
        (base | {"data.synthetic": "on"}, "data.synthetic"),
        (base | {"dgp.seed": "5"}, "dgp.seed"),
        (base | {"data.synthetic": "no", "dgp.countries": "8"}, "dgp.countries"),
    ]:
        with pytest.raises(ConfigError) as err:
            config_from_mapping(mapping)
        assert err.value.field_path == field


def test_config_reads_generator_keys(tmp_path):
    base = {"output.dir": str(tmp_path), "data.synthetic": "true"}
    cfg = config_from_mapping(base | {
        "dgp.countries": "7", "dgp.years": "25", "dgp.rho": "0.3", "dgp.lam": "0.2",
        "dgp.sigma_eps": "0.02", "dgp.seed": "3", "dgp.lambda_schedule": "0.25, 0.1",
    })
    p = cfg.dgp
    assert (p.n_countries, p.n_years, p.rho, p.lam, p.sigma_eps, p.seed) == (7, 25, 0.3, 0.2, 0.02, 3)
    assert p.lambda_schedule == (0.25, 0.1)
    # an empty value leaves the default, as for every other key
    assert config_from_mapping(base | {"dgp.rho": ""}).dgp == DgpParams()
    assert config_from_mapping(base | {"dgp.lambda_schedule": ""}).dgp == DgpParams()
    for key, raw, message in [
        ("dgp.mystery", "1", "unknown configuration key"),
        ("dgp.n_countries", "7", "unknown configuration key"),
        ("dgp.rho", "abc", "expected a number, got 'abc'"),
        ("dgp.seed", "1.5", "expected an integer, got '1.5'"),
        ("dgp.lambda_schedule", "0.1, abc", "expected a number, got 'abc'"),
    ]:
        with pytest.raises(ConfigError) as err:
            config_from_mapping(base | {key: raw})
        assert (err.value.field_path, str(err.value)) == (key, f"{key}: {message}")


def test_config_reads_int_and_float_keys_by_their_field_types(tmp_path):
    cfg = config_from_mapping({
        "output.dir": str(tmp_path), "data.synthetic": "true", "dgp.seed": "3", "dgp.countries": "7",
        "dgp.rho": "1", "model.min_obs": "12", "forest.subsample": "1",
    })
    p = cfg.dgp
    # an int key reads as an int and a float key as a float, whatever the table
    assert [type(v) for v in (p.seed, p.n_countries, cfg.min_obs, p.rho, cfg.forest.subsample)] == [int] * 3 + [float] * 2
    assert (p.seed, p.n_countries, cfg.min_obs, p.rho, cfg.forest.subsample) == (3, 7, 12, 1.0, 1.0)


@pytest.mark.parametrize("key, raw, expected", [
    ("dgp.rho", "0_4", "a number"),  # float() reads 4.0
    ("seed", "1_0", "an integer"),  # int() reads 10
    ("seed", "٣", "an integer"),  # an Arabic-Indic three; int() reads 3
])
def test_config_numbers_are_ascii_without_underscores(tmp_path, key, raw, expected):
    with pytest.raises(ConfigError) as err:
        config_from_mapping({"output.dir": str(tmp_path), "data.synthetic": "true", key: raw})
    assert (err.value.field_path, str(err.value)) == (key, f"{key}: expected {expected}, got {raw!r}")


def test_config_round_trips_generator_settings(tmp_path):
    custom = DgpParams(n_countries=7, rho=0.3, sigma_eps=0.02, lambda_schedule=(0.25, 0.1), seed=3)
    mappings = []
    for p in (DgpParams(), custom):
        cfg = RunConfig(out_dir=tmp_path.resolve(), dgp=p)
        mappings.append(config_to_mapping(cfg))
        assert config_from_mapping(mappings[-1]) == cfg
    default, written = mappings
    assert (written["dgp.countries"], written["dgp.lambda_schedule"]) == ("7", "0.25,0.1")
    assert "dgp.lambda_schedule" not in default


def test_config_decade_labels_validated(tmp_path, data_dir):
    mapping = {
        "output.dir": str(tmp_path),
        "data.panel_path": str(data_dir / "panel.csv"),
        "decades": "full,eighties",
    }
    with pytest.raises(ConfigError):
        config_from_mapping(mapping)


BAD_RUN_CONFIGS = [
    ({"variants": ("bogus",)}, "model.variants"),
    ({"variants": ()}, "model.variants"),
    ({"control": "gap"}, "model.control"),
    ({"control": "none"}, "model.control"),  # no control is None; `none` is its config text
    ({"interactions": "all"}, "model.interactions"),
    ({"outputs": ("mg_table", "bogus")}, "outputs"),
    ({"outputs": ()}, "outputs"),
    ({"fmt": "xml"}, "output.format"),
    ({"decades": ("full", "eighties")}, "decades"),
    ({"seed": -1}, "seed"),
    ({"outputs": ("passthrough_panel", "pd_grid")}, "seed"),
    ({"outputs": ("passthrough_panel",), "decades": ()}, "decades"),
    ({"min_obs": 2}, "model.min_obs"),
    ({"panel_path": Path("panel.csv"), "dgp": DgpParams()}, "data.panel_path"),
]


@pytest.mark.parametrize("settings, field", BAD_RUN_CONFIGS)
def test_run_config_built_in_code_names_its_bad_field(tmp_path, settings, field):
    with pytest.raises(ConfigError) as err:
        RunConfig(out_dir=tmp_path / "out", **settings)
    assert err.value.field_path == field
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(("settings", "field"), [
    ({}, "data.panel_path"),
    ({"outputs": ("mg_table", "medians"), "decade_path": Path("decades.csv")}, "data.panel_path"),
    ({"outputs": ("medians",)}, "data.decade_path"),
    ({"outputs": ("mg_table", "medians"), "dgp": DgpParams(n_countries=3, seed=1)}, "data.decade_path"),
])
def test_run_pipeline_names_a_missing_data_source_before_writing(tmp_path, settings, field):
    with pytest.raises(ConfigError) as err:
        run_pipeline(RunConfig(out_dir=tmp_path / "out", **settings))
    assert err.value.field_path == field
    assert not (tmp_path / "out").exists()


def test_config_to_mapping_is_pinned():
    cfg = RunConfig(
        out_dir=Path("/runs/out"),
        decade_path=Path("/data/decades.csv"),
        dgp=DgpParams(n_countries=8, n_years=30, lambda_schedule=(0.3, 0.1), seed=5),
        variants=("core",),
        control="unemp_gap",
        interactions="both",
        decades=("full", "1990s"),
        exclude=("CZ", "LU"),
        outputs=("mg_table", "passthrough_panel", "pd_grid"),
        forest=ForestConfig(trees=200, subsample=0.5, min_leaf=3, max_depth=6, steps=20),
        seed=11,
        fmt="json",
        min_obs=12,
    )
    assert config_to_mapping(cfg) == {
        "data.decade_path": "/data/decades.csv",
        "data.synthetic": "true",
        "decades": "full,1990s",
        "dgp.alpha_mean": "0.01",
        "dgp.alpha_sd": "0.0",
        "dgp.burn_in": "50",
        "dgp.cost_ar": "0.5",
        "dgp.cost_sd": "0.02",
        "dgp.countries": "8",
        "dgp.lam": "0.25",
        "dgp.lambda_schedule": "0.3,0.1",
        "dgp.rho": "0.4",
        "dgp.seed": "5",
        "dgp.sigma_eps": "0.01",
        "dgp.sigma_mu1": "0.1",
        "dgp.sigma_mu2": "0.1",
        "dgp.start_year": "1980",
        "dgp.years": "30",
        "exclude": "CZ,LU",
        "forest.max_depth": "6",
        "forest.min_leaf": "3",
        "forest.steps": "20",
        "forest.subsample": "0.5",
        "forest.trees": "200",
        "model.control": "unemp_gap",
        "model.interactions": "both",
        "model.min_obs": "12",
        "model.variants": "core",
        "output.dir": "/runs/out",
        "output.format": "json",
        "outputs": "mg_table,passthrough_panel,pd_grid",
        "seed": "11",
    }


def test_fig5_preset_config_mapping_is_pinned(tmp_path, data_dir):
    cfg = cli_report._preset_config("fig5", data_dir, tmp_path / "out", None, "text")
    assert config_to_mapping(cfg) == {
        "data.panel_path": str((data_dir / "panel.csv").resolve()),
        "decades": "1980s,1990s,2000s,2010s",
        "exclude": "CZ,EE,LU,KR",
        "forest.min_leaf": "5",
        "forest.steps": "50",
        "forest.subsample": "0.6666666666666666",
        "forest.trees": "1000",
        "model.control": "none",
        "model.interactions": "none",
        "model.variants": "headline",
        "output.dir": str((tmp_path / "out").resolve()),
        "output.format": "text",
        "outputs": "passthrough_panel,pd_grid",
        "seed": "0",
    }


# ---------------------------------------------------------------- pipeline

def test_preset_table1_shape(tmp_path, data_dir):
    rc = main(["preset", "table1", "--data", str(data_dir), "--out", str(tmp_path / "t1"),
               "--format", "json"])
    assert rc == 0
    cells = read_rows(tmp_path / "t1" / "mg_table.json")
    payload = json.loads((tmp_path / "t1" / "mg_table.json").read_text())
    assert payload["columns"] == ["full", "1980s", "1990s", "2000s", "2010s"]
    labels = [r["label"] for r in payload["rows"]]
    assert labels == [
        "dln_cpi_lag1", "dln_ulc", "constant", "LT effect: dln_ulc",
        "observations", "countries", "RMSE (sigma)", "chi2", "Wald p",
    ]
    for col in payload["columns"]:
        assert cells[("observations", col)]["text"]
        assert cells[("dln_ulc", col)]["estimate"] is not None
        assert cells[("dln_ulc", col)]["se"] is not None


def test_preset_fig2_medians_on_bundled_fixture(tmp_path):
    rc = main(["preset", "fig2", "--out", str(tmp_path / "fig2"), "--format", "json"])
    assert rc == 0
    cells = read_rows(tmp_path / "fig2" / "medians.json")
    assert cells[("1980s", "em6")]["estimate"] == 0.0041
    assert cells[("2010s", "em6")]["estimate"] == 0.02855
    assert cells[("1980s", "em10")]["estimate"] == 0.0058
    assert cells[("2010s", "em10")]["estimate"] == 0.0442


def test_preset_interaction_tables_have_variant_columns(tmp_path, data_dir):
    for name in ("table6", "table7", "table8"):
        rc = main(["preset", name, "--data", str(data_dir), "--out", str(tmp_path / name),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads((tmp_path / name / "mg_table.json").read_text())
        assert payload["columns"] == ["headline", "core"]
    t8 = json.loads((tmp_path / "table8" / "mg_table.json").read_text())
    labels = [r["label"] for r in t8["rows"]]
    assert "dln_ulc_x_kof" in labels
    assert "dln_ulc_x_dln_cpi_lag2" in labels


def test_preset_table5_and_figures(tmp_path, data_dir):
    rc = main(["preset", "table5", "--data", str(data_dir), "--out", str(tmp_path / "t5"),
               "--format", "json"])
    assert rc == 0
    out = tmp_path / "t5"
    assert (out / "passthrough_panel.csv").is_file()
    assert (out / "exclusions.csv").is_file()
    payload = json.loads((out / "second_stage.json").read_text())
    assert payload["columns"] == ["(I)", "(II)", "(III)", "(IV)", "(V)", "(VI)"]

    rc = main(["preset", "fig4", "--data", str(data_dir), "--out", str(tmp_path / "fig4"),
               "--format", "json"])
    assert rc == 0
    assert (tmp_path / "fig4" / "importance.json").is_file()

    rc = main(["preset", "fig5", "--data", str(data_dir), "--out", str(tmp_path / "fig5"),
               "--seed", "7"])
    assert rc == 0
    for name in ("pd_grid.csv", "pd_slices.csv", "pd_grid.json"):
        assert (tmp_path / "fig5" / name).is_file()
    grid = json.loads((tmp_path / "fig5" / "pd_grid.json").read_text())
    assert len(grid["surface"]) == 50
    assert len(grid["slices"]) == 5  # two openness values, three inflation values


def test_run_config_file_and_determinism(tmp_path, data_dir):
    cfg_text = "\n".join([
        f"data.panel_path = {data_dir / 'panel.csv'}",
        "model.variants = core",
        "decades = full,1990s",
        "outputs = mg_table",
        f"output.dir = {tmp_path / 'run1'}",
        "output.format = csv",
        "seed = 5",
    ])
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text + "\n")
    assert main(["run", str(cfg_path)]) == 0
    first = (tmp_path / "run1" / "mg_table.csv").read_bytes()
    first_manifest = (tmp_path / "run1" / "manifest.json").read_bytes()
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "run1" / "mg_table.csv").read_bytes() == first
    assert (tmp_path / "run1" / "manifest.json").read_bytes() == first_manifest


def test_manifest_round_trip(tmp_path, data_dir):
    out = tmp_path / "mrt"
    rc = main(["preset", "fig5", "--data", str(data_dir), "--out", str(out), "--seed", "3"])
    assert rc == 0
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg = config_from_manifest(out / "manifest.json")
    run_pipeline(cfg)
    for name, blob in files.items():
        assert (out / name).read_bytes() == blob, f"{name} changed across manifest re-run"


# SHA-256 of every fig4 and fig5 output but manifest.json (which records paths), for
# generate_panel(DgpParams(n_countries=21, n_years=40, seed=1)) and --seed 1, as
# written by the node-at-a-time tree grower that the batched level-wise one replaced.
GOLDEN_DIGESTS = {
    "fig4/exclusions.csv": "7ce0e117d557c3a19d11423126d6af72767f710b964af64d14b2dea85f506f5f",
    "fig4/importance.txt": "82907f43a4d5b2c7585292d187814a3b3381a86f83200b6a732f534e611a2dfc",
    "fig4/passthrough_panel.csv": "25c81b1910f050bc99f1a7320b562c0dfa0640d80e9d23b92a3f193a2b1c387e",
    "fig5/exclusions.csv": "7ce0e117d557c3a19d11423126d6af72767f710b964af64d14b2dea85f506f5f",
    "fig5/passthrough_panel.csv": "25c81b1910f050bc99f1a7320b562c0dfa0640d80e9d23b92a3f193a2b1c387e",
    "fig5/pd_grid.csv": "a3d008b77a5559c708c978575b1f496b93dd07e695e77c762b19d22f62bf0a83",
    "fig5/pd_grid.json": "1dfefa6b2e1d6ad045056610f684ac27f2a03a5100a29112517007767877a027",
    "fig5/pd_slices.csv": "7efa5cf5d893a3092a0e6652674d8e51b06fbd22d0fee383bbb6a07118f3085e",
}


def test_fig4_fig5_outputs_match_golden_digests(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    write_panel_csv(generate_panel(DgpParams(n_countries=21, n_years=40, seed=1)), data / "panel.csv")
    digests = {}
    for name in ("fig4", "fig5"):
        assert main(["preset", name, "--data", str(data), "--out", str(tmp_path / name), "--seed", "1"]) == 0
        for path in (tmp_path / name).iterdir():
            if path.name != "manifest.json":
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_DIGESTS


# cells left out of the seed-3 panel: (variable, country, years)
PANEL_GAPS = (
    ("cpi", "C01", range(1990, 1997)),  # too few rows in the 1990s
    ("core_cpi", "C02", range(2000, 2006)),
    ("output_gap", "C07", range(1985, 1988)),
    ("kof", "C03", range(2010, 2020)),  # no decades.csv row for 2010: kof missing
    ("kof", "C04", range(1980, 1985)),
    ("em6", "C05", range(1990, 2000)),  # blank in decades.csv too: em6 missing
    ("em10", "C06", range(2000, 2010)),  # no em10 column in decades.csv: em10 missing
)
DECADE_FILE = "country,decade,kof,em6\n" + "".join(
    f"{country},{decade},{'' if (country, decade) == ('C00', 2000) else 0.5 + 0.01 * i + 0.002 * (decade - 1980)},"
    f"{'' if (country, decade) == ('C05', 1990) else 0.004 + 0.0005 * i + 0.0001 * (decade - 1980)}\n"
    for i, country in enumerate(("C00", "C01", "C02", "C03", "C04", "C05", "C06", "C07", "ZZ"))
    for decade in (1980, 1990, 2000)
)

# SHA-256 of every output but manifest.json of each preset, in text format with --seed 7,
# on generate_panel(DgpParams(seed=1)) ("complete") and on generate_panel(DgpParams(seed=3))
# less the PANEL_GAPS cells, next to DECADE_FILE as decades.csv ("gappy")
PRESET_DIGESTS = {
    "complete/table1/mg_table.txt": "2d500c8f2910b15727e9d21e75a4d6ea6bf1ae0e41a64d8710814cea00c535ef",
    "complete/table2/mg_table.txt": "4e0d827f6c9fd582ed8d5951a50ed3e77b3d516e034852f7086d944032575a01",
    "complete/table3/mg_table.txt": "5040009c3fe96367a8bea44505ca0361b021f0c4f96756a9f366d27d71ac34a0",
    "complete/table4/mg_table.txt": "02a9ddaf2be023269833475dbb0dd13c2a38b891b5b3fd0bde97a2d8b2cc79eb",
    "complete/table5/exclusions.csv": "7ce0e117d557c3a19d11423126d6af72767f710b964af64d14b2dea85f506f5f",
    "complete/table5/passthrough_panel.csv": "25c81b1910f050bc99f1a7320b562c0dfa0640d80e9d23b92a3f193a2b1c387e",
    "complete/table5/second_stage.txt": "ffe51be0c6f1c3d21f89723fc1d5c755aae4ea2aea052f48df4ea121f746452b",
    "complete/table6/mg_table.txt": "3b11b7fef78f82832ce610c80f629e5882ef0f4f8ea4ca9e3916fa2759c4e375",
    "complete/table7/mg_table.txt": "7c930898af4ecdbaad5742b54b18dc325c2f3e75c356b705d949484f3082d183",
    "complete/table8/mg_table.txt": "13f896cd0680268b00e79d5b781c2fecd53346b1c0e5ac5a7656ae148b7ed243",
    "complete/a1/mg_table.txt": "a4f64dd187504f3eb892d328d5335eb32207a3ef7942217542f6a761ac4b693b",
    "complete/fig2/medians.txt": "0da7fe2d33a5044db895bd63d29e8c081ea42ad5d8495b985b6fb5f0bcab94f0",
    "complete/fig4/exclusions.csv": "7ce0e117d557c3a19d11423126d6af72767f710b964af64d14b2dea85f506f5f",
    "complete/fig4/importance.txt": "82907f43a4d5b2c7585292d187814a3b3381a86f83200b6a732f534e611a2dfc",
    "complete/fig4/passthrough_panel.csv": "25c81b1910f050bc99f1a7320b562c0dfa0640d80e9d23b92a3f193a2b1c387e",
    "complete/fig5/exclusions.csv": "7ce0e117d557c3a19d11423126d6af72767f710b964af64d14b2dea85f506f5f",
    "complete/fig5/passthrough_panel.csv": "25c81b1910f050bc99f1a7320b562c0dfa0640d80e9d23b92a3f193a2b1c387e",
    "complete/fig5/pd_grid.csv": "d81682abe28c867cc043a0f48efce0a80b2258d8607c28999d089ecfe4f13f80",
    "complete/fig5/pd_grid.json": "48807112bb9b44ec219e75b0e98c3aa4dc49fa5edeb52a5eb04eb8eed0eb6bee",
    "complete/fig5/pd_slices.csv": "93228d532418c6c7a4cc339cf1c6e66f9ffe7886bf8ff18ecb7ca02b8f859178",
    "gappy/table1/mg_table.txt": "90e8ddf639db83a9b44cdabe437f9a3b069832d468e16c54881c7cbfa8080742",
    "gappy/table2/mg_table.txt": "faaa74729e8b18f51c3cbd86af75d67358d3e87803b599acd6aa25000093954d",
    "gappy/table3/mg_table.txt": "8841410dfd3335068004e0c2046b511b5526d1b83bc94d387eb3e09f9011e150",
    "gappy/table4/mg_table.txt": "e836d7f59e196b4c9e7bcbb81cfcecde2a8319bfebff1c199f6e985182b7c328",
    "gappy/table5/exclusions.csv": "c2059ba93168d5fc168504a3607ca0d092465192bb099f0c97ac6fd59c8b63cd",
    "gappy/table5/passthrough_panel.csv": "438c275c3e7c10f50191e83cc568d3628dd284577fcdfeb85ecad310fa781bc3",
    "gappy/table5/second_stage.txt": "465d839d14216463758c8d94a9a08f93201bd029a90279c0c63fc3f738f25eb3",
    "gappy/table6/mg_table.txt": "935e91754206b1b723670d6dc4edc4f6484edf8f7429f4c2bbc2befab7def960",
    "gappy/table7/mg_table.txt": "4ebda225c5645289368363cd8b96134ea83d107889ba9e8483fa97f2373eb4f0",
    "gappy/table8/mg_table.txt": "3725fbd2e22909ee000a46a20a65a77c867cf7a6e853ed27abdea12d487a0f5e",
    "gappy/a1/mg_table.txt": "de6b1e6600d1a1f4e5680335fb5695a23d2d37541e174ddaaf96a2f68d9e10cb",
    "gappy/fig2/medians.txt": "42d9695214fda19b26b582523240427ba8d5be53e8fd0f8037c86eab694f827c",
    "gappy/fig4/exclusions.csv": "c2059ba93168d5fc168504a3607ca0d092465192bb099f0c97ac6fd59c8b63cd",
    "gappy/fig4/importance.txt": "efc903c8a77c7cf056354ec66786a958c6f403b5a8ce8322b3db5900e0270a42",
    "gappy/fig4/passthrough_panel.csv": "438c275c3e7c10f50191e83cc568d3628dd284577fcdfeb85ecad310fa781bc3",
    "gappy/fig5/exclusions.csv": "c2059ba93168d5fc168504a3607ca0d092465192bb099f0c97ac6fd59c8b63cd",
    "gappy/fig5/passthrough_panel.csv": "438c275c3e7c10f50191e83cc568d3628dd284577fcdfeb85ecad310fa781bc3",
    "gappy/fig5/pd_grid.csv": "f262ddac187197641af15edbf55479548a4270328754f4b3c0702b6041770a69",
    "gappy/fig5/pd_grid.json": "4ea1f33ce51593a1df76c1fd42274caead70981f6bea946a71920ede20190509",
    "gappy/fig5/pd_slices.csv": "ec4eb6bf481bf5d3fffe967b469c6c9b778789a16114dc2160ecc7dcc7937522",
}


def test_every_preset_output_matches_its_pinned_digest(tmp_path):
    complete, gappy = tmp_path / "complete", tmp_path / "gappy"
    complete.mkdir()
    gappy.mkdir()
    write_panel_csv(generate_panel(DgpParams(seed=1)), complete / "panel.csv")
    ds = generate_panel(DgpParams(seed=3))
    values, _ = ds.complete_cells(ds.variables)
    for var, country, years in PANEL_GAPS:
        values[ds.variables.index(var), ds.countries.index(country), np.isin(ds.years, years)] = np.nan
    write_panel_csv(PanelDataset(ds.countries, ds.years, ds.variables, values), gappy / "panel.csv")
    (gappy / "decades.csv").write_text(DECADE_FILE)
    digests = {}
    for data in (complete, gappy):
        for name in cli_report.PRESETS:
            out = tmp_path / "out" / data.name / name
            assert main(["preset", name, "--data", str(data), "--out", str(out), "--seed", "7"]) == 0
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    digests[f"{data.name}/{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PRESET_DIGESTS


def test_manifest_rerun_rejects_an_input_that_changed(tmp_path, data_dir, capsys):
    data = tmp_path / "data"
    data.mkdir()
    panel = data / "panel.csv"
    panel.write_bytes((data_dir / "panel.csv").read_bytes())
    out = tmp_path / "out"
    assert main(["preset", "table1", "--data", str(data), "--out", str(out)]) == 0
    manifest = out / "manifest.json"
    recorded = json.loads(manifest.read_text())["input_sha256"]
    assert recorded == {"data.panel_path": hashlib.sha256(panel.read_bytes()).hexdigest()}
    assert main(["run", str(manifest)]) == 0  # unchanged input: the re-run goes ahead

    header, first, *rest = panel.read_text().splitlines(keepends=True)
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) * 1.01)
    panel.write_text("".join([header, ",".join(cells), *rest]))
    with pytest.raises(ConfigError) as err:
        config_from_manifest(manifest)
    assert err.value.field_path == "data.panel_path"
    assert str(panel.resolve()) in str(err.value)
    capsys.readouterr()
    assert main(["run", str(manifest)]) == 2
    assert str(panel.resolve()) in capsys.readouterr().err


def test_a_manifest_whose_config_is_not_an_object_is_a_config_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": [["output.dir", str(tmp_path / "out")]]}))
    assert main(["run", str(manifest)]) == 2
    assert capsys.readouterr().err == f"config error: manifest: {manifest} is not a run manifest\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_a_manifest_value_that_is_not_text_is_a_config_error(tmp_path, capsys):
    assert main(["preset", "fig2", "--out", str(tmp_path / "fig2")]) == 0
    payload = json.loads((tmp_path / "fig2" / "manifest.json").read_text())
    payload["config"] |= {"seed": 42, "output.dir": str(tmp_path / "out")}  # as a hand edit writes it
    manifest = tmp_path / "edited.json"
    manifest.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["run", str(manifest)]) == 2
    assert capsys.readouterr().err == "config error: seed: expected text, got 42\n"
    assert not (tmp_path / "out").exists()


def test_a_manifest_that_is_not_json_is_a_config_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"config": {"output.dir": ')  # cut short by a hand edit
    assert main(["run", str(manifest)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: manifest: {manifest} is not valid JSON: Expecting value")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_a_manifest_whose_input_digests_are_not_an_object_is_a_config_error(tmp_path, capsys):
    assert main(["preset", "fig2", "--out", str(tmp_path / "fig2")]) == 0
    payload = json.loads((tmp_path / "fig2" / "manifest.json").read_text())
    payload["config"]["output.dir"] = str(tmp_path / "out")
    payload["input_sha256"] = list(payload["input_sha256"].items())
    manifest = tmp_path / "edited.json"
    manifest.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["run", str(manifest)]) == 2
    assert capsys.readouterr().err == f"config error: manifest: {manifest} is not a run manifest\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["key = value", "manifest"])
def test_a_config_file_with_a_byte_order_mark_runs(tmp_path, kind):
    first = tmp_path / "fig2"
    assert main(["preset", "fig2", "--out", str(first)]) == 0
    manifest = first / "manifest.json"
    out = tmp_path / "out"
    if kind == "manifest":
        payload = json.loads(manifest.read_text())
        payload["config"]["output.dir"] = str(out)
        text = json.dumps(payload)
    else:
        text = format_kv(config_to_mapping(config_from_manifest(manifest)) | {"output.dir": str(out)})
    cfg = tmp_path / "saved-with-bom.cfg"
    cfg.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert main(["run", str(cfg)]) == 0
    for path in first.iterdir():
        if path.name != "manifest.json":
            assert (out / path.name).read_bytes() == path.read_bytes()


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\n" + f"outputs = medians\noutput.dir = {tmp_path / 'out'}\n".encode())
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: config: {cfg} is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9"
    )
    assert not (tmp_path / "out").exists()


def test_a_manifest_saved_as_utf16_is_a_config_error(tmp_path, capsys):
    assert main(["preset", "fig2", "--out", str(tmp_path / "fig2")]) == 0
    manifest = tmp_path / "utf16.json"
    manifest.write_text((tmp_path / "fig2" / "manifest.json").read_text(), encoding="utf-16")
    with pytest.raises(ConfigError, match=r"^manifest: .* is not UTF-8 text: 'utf-8' codec can't decode byte 0xff") as raised:
        config_from_manifest(manifest)
    assert raised.value.field_path == "manifest"
    capsys.readouterr()
    assert main(["run", str(manifest)]) == 2  # read as a config file first
    assert capsys.readouterr().err.startswith(f"config error: config: {manifest} is not UTF-8 text: ")


def test_a_panel_file_that_is_not_utf8_fails_in_ingest_naming_it(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    panel = data / "panel.csv"
    panel.write_bytes(panel_csv_text(generate_panel(DgpParams(n_countries=3, seed=5))).encode() + b"caf\xe9,2001\n")
    assert main(["preset", "table1", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: stage 'ingest' failed: {panel}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9"
    )


@pytest.mark.parametrize("command", ["preset", "run"])
def test_an_output_dir_that_cannot_be_made_is_a_config_error(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    if command == "preset":
        argv = ["preset", "fig2", "--out", str(taken)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"outputs = medians\ndata.decade_path = {table_a2_path()}\noutput.dir = {taken}\n")
        argv = ["run", str(cfg)]
    assert main(argv) == 2
    assert re.match(r"config error: output\.dir: cannot create the output directory: .*File exists", capsys.readouterr().err)
    assert taken.read_text() == "a file\n"
    assert {p.name for p in tmp_path.iterdir()} == {"taken"} | ({"run.cfg"} if command == "run" else set())


def test_an_unknown_log_level_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PASSTHRU_LOG", "verbose")
    assert main(["preset", "fig2", "--out", str(tmp_path / "fig2")]) == 2
    assert capsys.readouterr().err == (
        "config error: PASSTHRU_LOG: unknown level 'VERBOSE'; use DEBUG, INFO, WARNING, ERROR or CRITICAL\n"
    )
    assert not (tmp_path / "fig2").exists()


@pytest.mark.parametrize("field, value", [
    ("trees", 2.5), ("steps", 2.5), ("min_leaf", True), ("max_depth", 1.5), ("trees", "10"), ("subsample", True),
])
def test_a_bad_code_built_forest_config_writes_nothing(tmp_path, data_dir, field, value):
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as err:
        run_pipeline(RunConfig(
            out_dir=out, panel_path=data_dir / "panel.csv", decades=("1990s", "2000s"),
            outputs=("passthrough_panel", "importance", "pd_grid"), seed=1, forest=ForestConfig(**{field: value}),
        ))
    assert err.value.field_path == f"forest.{field}"
    assert str(err.value).endswith(f", got {value!r}")
    assert not out.exists()


@pytest.mark.parametrize("seed", [2.5, True, "1", -1])
def test_a_bad_code_built_seed_writes_nothing(tmp_path, data_dir, seed):
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as err:
        run_pipeline(RunConfig(
            out_dir=out, panel_path=data_dir / "panel.csv", decades=("1990s", "2000s"),
            outputs=("passthrough_panel", "pd_grid"), seed=seed,
        ))
    assert str(err.value) == f"seed: must be an int of at least 0, got {seed!r}"
    assert not out.exists()


def test_fig2_manifest_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "fig2"
    assert main(["preset", "fig2", "--out", str(out)]) == 0
    first = (out / "manifest.json").read_bytes()
    assert json.loads(first)["config"]["decades"] == ""
    assert config_from_manifest(out / "manifest.json").decades == ()
    assert main(["run", str(out / "manifest.json")]) == 0
    assert (out / "manifest.json").read_bytes() == first


def test_config_decades_empty_or_absent(tmp_path, data_dir):
    base = {"data.panel_path": str(data_dir / "panel.csv"), "output.dir": str(tmp_path / "d")}
    assert config_from_mapping(base).decades == RunConfig(out_dir=tmp_path).decades
    variant_columns = config_from_mapping(base | {"decades": "", "model.variants": "headline,core"})
    assert variant_columns.decades == ()
    for extra in ({}, {"outputs": "passthrough_panel"}, {"outputs": "pd_grid", "seed": "1"}):
        with pytest.raises(ConfigError) as err:
            config_from_mapping(base | {"decades": ""} | extra)
        assert err.value.field_path == "decades"


@pytest.mark.parametrize("lines, field", [
    (("decades = 1980s,1980s", "outputs = passthrough_panel"), "decades"),
    (("decades = 1980s,01980s", "outputs = passthrough_panel"), "decades"),
    (("decades = full,1980s,1980s",), "decades"),
    (("model.variants = headline,headline", "decades = full"), "model.variants"),
    (("outputs = mg_table,mg_table",), "outputs"),
    (("decades = full", "outputs = second_stage"), "decades"),
    (("decades = full", "outputs = pd_grid", "seed = 1"), "decades"),
])
def test_repeated_entries_and_a_decade_list_without_a_window_fail_before_any_output(
    tmp_path, data_dir, capsys, lines, field
):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([f"data.panel_path = {data_dir / 'panel.csv'}", f"output.dir = {out}", *lines]) + "\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("lines, needs", [
    (("decades = 1990s,2000s",), "1990s, 2000s"),
    (("decades = 1990s,2000s", "outputs = mg_table,passthrough_panel"), "1990s, 2000s, passthrough_panel"),
])
def test_several_variants_refuse_decade_windows_and_panel_outputs(tmp_path, capsys, lines, needs):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    head = [f"output.dir = {out}", "data.synthetic = true", "dgp.countries = 8", "model.variants = headline,core"]
    cfg.write_text("\n".join([*head, *lines]) + "\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: model.variants: several variants fit the full sample only; {needs} need one\n"
    assert not out.exists()


def test_a_decade_label_is_stored_in_its_canonical_form(tmp_path, data_dir):
    written = {}
    for label in ("1990s", "01990s"):
        out = tmp_path / label
        cfg = config_from_mapping({
            "data.panel_path": str(data_dir / "panel.csv"),
            "output.dir": str(out),
            "decades": f"full,{label}",
            "outputs": "mg_table,passthrough_panel",
            "output.format": "csv",
        })
        assert cfg.decades == ("full", "1990s")
        run_pipeline(cfg)
        assert json.loads((out / "manifest.json").read_text())["config"]["decades"] == "full,1990s"
        written[label] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    # the table, the panel and the exclusions all say 1990s
    assert written["01990s"] == written["1990s"]
    assert b"\ndln_cpi_lag1,1990s," in written["1990s"]["mg_table.csv"]


def test_a_column_with_too_few_countries_is_marked(tmp_path):
    # the panel starts in 1987: its three 1980s years leave no country enough rows
    data = tmp_path / "data"
    data.mkdir()
    write_panel_csv(generate_panel(DgpParams(seed=1, start_year=1987, n_years=33)), data / "panel.csv")
    assert main(["preset", "table1", "--data", str(data), "--out", str(tmp_path / "t1"), "--format", "json"]) == 0
    marked = json.loads((tmp_path / "t1" / "mg_table.json").read_text())
    mapping = {
        "data.panel_path": str(data / "panel.csv"),
        "output.dir": str(tmp_path / "rest"),
        "decades": "full,1990s,2000s,2010s",
        "output.format": "json",
    }
    run_pipeline(config_from_mapping(mapping))
    rest = json.loads((tmp_path / "rest" / "mg_table.json").read_text())
    assert marked["columns"] == ["full", "1980s", "1990s", "2000s", "2010s"]
    for marked_row, rest_row in zip(marked["rows"], rest["rows"], strict=True):
        cells = marked_row["cells"]
        assert [cells[0], *cells[2:]] == rest_row["cells"]
        want = "0" if marked_row["label"] == "countries" else "n/a (too few countries)"
        assert cells[1] == {"estimate": None, "se": None, "stars": None, "text": want, "degenerate_se": False}


DECADE_LABELS = ("full", "1970s", "1980s", "1990s", "2000s", "2010s")
CONFIG_FLOATS = st.floats(-0.9, 0.9, allow_nan=False)


@st.composite
def run_configs(draw, out_dir: Path, panel_path: Path, decade_path: Path) -> RunConfig:
    outputs = tuple(draw(st.lists(st.sampled_from(OUTPUTS), min_size=1, max_size=3, unique=True)))
    panel_based = set(outputs) & {"passthrough_panel", "second_stage", "importance", "pd_grid"}
    most = 1 if panel_based else 2  # a panel output fits one variant
    variants = tuple(draw(st.lists(st.sampled_from(sorted(VARIANTS)), min_size=1, max_size=most, unique=True)))
    needs_decades = panel_based or ("mg_table" in outputs and len(variants) == 1)
    decade_lists = st.lists(st.sampled_from(DECADE_LABELS), min_size=1, max_size=4, unique=True).map(tuple)
    if panel_based:  # the panel outputs need a decade window
        decade_lists = decade_lists.filter(lambda labels: labels != ("full",))
    if len(variants) > 1:  # several variants fit the full sample only
        decade_lists = st.just(("full",))
    dgp = draw(st.one_of(st.none(), st.builds(
        DgpParams,
        n_countries=st.integers(1, 40),
        n_years=st.integers(10, 80),
        rho=CONFIG_FLOATS,
        cost_ar=CONFIG_FLOATS,
        lambda_schedule=st.one_of(st.none(), st.lists(CONFIG_FLOATS, min_size=1, max_size=4).map(tuple)),
        seed=st.integers(0, 2**32),
    )))
    control = draw(st.sampled_from((None, *CONTROLS)))
    interactions = draw(st.sampled_from(INTERACTIONS))
    k = build_passthrough_spec(  # every variant has the same k
        control=control,
        with_globalisation=interactions in ("globalisation", "both"),
        with_lagged_inflation=interactions in ("lagged_inflation", "both"),
    ).k
    return RunConfig(
        out_dir=out_dir,
        panel_path=None if dgp is not None else panel_path,
        decade_path=decade_path if "medians" in outputs or draw(st.booleans()) else None,
        dgp=dgp,
        variants=variants,
        control=control,
        interactions=interactions,
        decades=draw(decade_lists if needs_decades else st.one_of(st.just(()), decade_lists)),
        exclude=tuple(draw(st.lists(st.sampled_from(("AT", "CZ", "EE", "LU")), max_size=3))),
        outputs=outputs,
        forest=ForestConfig(
            trees=draw(st.integers(1, 5000)),
            subsample=draw(st.floats(1e-3, 1.0)),
            min_leaf=draw(st.integers(1, 20)),
            max_depth=draw(st.one_of(st.none(), st.integers(0, 30))),
            steps=draw(st.integers(2, 200)),
        ),
        seed=draw(st.integers(0, 10**6)) if "pd_grid" in outputs else draw(st.one_of(st.none(), st.integers(0, 10**6))),
        fmt=draw(st.sampled_from(FORMATS)),
        min_obs=draw(st.one_of(st.none(), st.integers(k + 2, k + 40))),
    )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_survives_mapping_round_trip(data, tmp_path, data_dir):
    decade_path = (tmp_path / "decades.csv").resolve()
    if not decade_path.exists():
        decade_path.write_bytes(table_a2_path().read_bytes())
    cfg = data.draw(run_configs(tmp_path.resolve(), (data_dir / "panel.csv").resolve(), decade_path))
    assert config_from_mapping(config_to_mapping(cfg)) == cfg


def test_stage_wall_times_and_forest_shape_go_to_the_log_only(tmp_path, data_dir, caplog):
    out = tmp_path / "logged"
    mapping = {
        "data.panel_path": str(data_dir / "panel.csv"),
        "output.dir": str(out),
        "decades": "1990s,2000s",
        "outputs": "pd_grid",
        "forest.trees": "12",
        "forest.steps": "4",
        "seed": "2",
    }
    with caplog.at_level(logging.INFO, logger="passthru"):
        written = run_pipeline(config_from_mapping(mapping))
    messages = [r.getMessage() for r in caplog.records]
    for name in ("ingest", "passthroughs", "pd_grid"):
        assert any(m.startswith(f"stage {name} ended after ") and m.endswith(" s") for m in messages), name
    shapes = [m for m in messages if m.startswith("forest: ")]
    assert len(shapes) == 1
    found = re.fullmatch(r"forest: 12 trees, (\d+) nodes, max depth (\d+), workers 1", shapes[0])  # one batch
    nodes, depth = int(found[1]), int(found[2])
    assert nodes >= 12 and (nodes - 12) % 2 == 0  # each split adds two nodes
    assert (depth == 0) == (nodes == 12)
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in written) == [
        "manifest.json", "pd_grid.csv", "pd_grid.json", "pd_slices.csv",
    ]


def test_usable_countries_by_reason_go_to_the_log_only(tmp_path, caplog):
    base = generate_panel(DgpParams(n_countries=5, n_years=40, seed=7))
    values, _ = base.complete_cells(base.variables)
    values[base.variables.index("cpi"), 3, 5:] = np.nan  # C03 keeps five years of levels: too few rows everywhere
    # C04's cost growth is constant: singular in every window
    values[base.variables.index("ulc"), 4] = [100.0 * 1.02 ** (year - 1980) for year in base.years]
    data = tmp_path / "panel.csv"
    write_panel_csv(PanelDataset(base.countries, base.years, base.variables, values), data)
    out = tmp_path / "logged"
    mapping = {
        "data.panel_path": str(data),
        "output.dir": str(out),
        "decades": "full,1990s",
        "outputs": "mg_table,passthrough_panel",
        "exclude": "C00",
    }
    with caplog.at_level(logging.INFO, logger="passthru"):
        written = run_pipeline(config_from_mapping(mapping))
    messages = [r.getMessage() for r in caplog.records]
    for line in (
        "mg_table full: 3 usable countries; unusable: SingularDesign 1, TooFewRows 1",
        "mg_table 1990s: 3 usable countries; unusable: SingularDesign 1, TooFewRows 1",
        "passthroughs 1990s: 2 usable countries; unusable: ExcludedByConfig 1, SingularDesign 1, TooFewRows 1",
    ):
        assert line in messages
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in written) == [
        "exclusions.csv", "manifest.json", "mg_table.txt", "passthrough_panel.csv",
    ]


def test_unmatched_and_repeated_exclude_entries_are_warned_about_once(tmp_path, caplog):
    base = {
        "output.dir": str(tmp_path / "plain"),
        "data.synthetic": "true",
        "dgp.countries": "6",
        "decades": "1990s,2000s",
        "outputs": "passthrough_panel",
        "exclude": "C01",
    }
    with caplog.at_level(logging.INFO, logger="passthru"):
        run_pipeline(config_from_mapping(base))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    caplog.clear()
    noisy = base | {"output.dir": str(tmp_path / "noisy"), "exclude": "CZ,C01,KR,C01,CZ"}
    with caplog.at_level(logging.INFO, logger="passthru"):
        run_pipeline(config_from_mapping(noisy))
    warned = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warned == ["exclude: no country of the panel matches CZ, KR; repeated: CZ, C01"]
    for name in ("passthrough_panel.csv", "exclusions.csv"):
        assert (tmp_path / "noisy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\noutput.dir = out\n")
    assert main(["run", str(bad)]) == 2
    # a config that parses but fails downstream: a cpi cell with no log
    cfg = tmp_path / "downstream.cfg"
    write_panel_with_a_zero_cpi(tmp_path / "tiny_panel.csv", DgpParams(n_countries=4, n_years=12, seed=1))
    cfg.write_text(
        f"data.panel_path = {tmp_path / 'tiny_panel.csv'}\n"
        f"output.dir = {tmp_path / 'dout'}\n"
        "decades = full,1980s\n"
        "outputs = mg_table\n"
    )
    rc = main(["run", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: stage 'mg_table' failed: ")


def write_panel_with_a_zero_cpi(path: Path, params: DgpParams) -> None:
    """A generated panel whose cpi is 0 in one cell, which fails the log transform of every model."""
    base = generate_panel(params)
    values, _ = base.complete_cells(base.variables)
    values[base.variables.index("cpi"), 1, 5] = 0.0
    write_panel_csv(PanelDataset(base.countries, base.years, base.variables, values), path)


def test_stage_error_names_stage(tmp_path):
    write_panel_with_a_zero_cpi(tmp_path / "panel.csv", DgpParams(n_countries=12, n_years=40, seed=101))
    mapping = {
        "data.panel_path": str(tmp_path / "panel.csv"),
        "output.dir": str(tmp_path / "stage_err"),
        "decades": "full,1990s",
        "outputs": "mg_table",
    }
    cfg = config_from_mapping(mapping)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "mg_table"
    assert isinstance(err.value.__cause__, NonPositiveForLogError)


@pytest.mark.parametrize("name", ["absent.csv", "a_directory"])
def test_an_unreadable_panel_file_fails_the_ingest_stage(tmp_path, name):
    (tmp_path / "a_directory").mkdir()
    cfg = RunConfig(out_dir=tmp_path / "out", panel_path=tmp_path / name)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "ingest"
    assert str(err.value.__cause__).startswith(f"{tmp_path / name}: cannot read: ")


def test_a_decade_with_no_panel_years_is_a_marked_column(tmp_path, data_dir, caplog):
    columns = {}
    for decades in ("full,1980s,2070s", "full,1980s"):
        cfg = tmp_path / f"{decades}.cfg"
        cfg.write_text(
            f"data.panel_path = {data_dir / 'panel.csv'}\n"
            f"output.dir = {tmp_path / decades}\n"
            f"decades = {decades}\n"
            "outputs = mg_table\n"
            "output.format = csv\n"
        )
        with caplog.at_level(logging.WARNING, logger="passthru"):
            assert main(["run", str(cfg)]) == 0
        with open(tmp_path / decades / "mg_table.csv", newline="") as f:
            for label, column, *cell in list(csv.reader(f))[1:]:
                columns.setdefault((decades, column), []).append((label, cell))
    assert columns[("full,1980s,2070s", "full")] == columns[("full,1980s", "full")]
    assert columns[("full,1980s,2070s", "1980s")] == columns[("full,1980s", "1980s")]
    for label, cell in columns[("full,1980s,2070s", "2070s")]:
        assert cell == ["", "", "", "0" if label == "countries" else "n/a (no panel years)", ""]
    assert "mg_table 2070s: the panel has no years in this decade" in caplog.messages


def test_a_unit_root_marks_only_the_lt_row(tmp_path):
    # price growth is a random walk driven by cost growth, with no noise: persistence 1 in every window
    rng = np.random.default_rng(3)
    cost = rng.normal(0.02, 0.01, size=(5, 40))
    price = np.cumsum(0.5 * (cost - 0.02), axis=1)
    levels = 100.0 * np.exp(np.cumsum(np.stack([price, cost]), axis=2))
    panel = PanelDataset([f"C{i:02d}" for i in range(5)], range(1980, 2020), ("cpi", "ulc"), levels)
    data = tmp_path / "panel.csv"
    write_panel_csv(panel, data)
    mapping = {
        "data.panel_path": str(data),
        "output.dir": str(tmp_path / "out"),
        "decades": "full,1990s",
        "outputs": "mg_table",
        "output.format": "json",
    }
    run_pipeline(config_from_mapping(mapping))
    cells = read_rows(tmp_path / "out" / "mg_table.json")
    for column in ("full", "1990s"):
        assert cells[("LT effect: dln_ulc", column)]["text"] == "n/a (unit root)"
        for label in ("dln_cpi_lag1", "dln_ulc", "constant"):
            assert cells[(label, column)]["estimate"] is not None
        for label in ("observations", "countries", "RMSE (sigma)", "chi2", "Wald p"):
            assert cells[(label, column)]["text"]
    assert cells[("countries", "full")]["text"] == "5"


def test_a_tree_with_no_split_is_marked_and_the_run_goes_on(tmp_path):
    # two countries over four decades give each tree 8 rows: too few for two leaves of min_leaf 5
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"output.dir = {out}\ndata.synthetic = true\ndgp.countries = 2\n"
        "decades = 1980s,1990s,2000s,2010s\noutputs = passthrough_panel,importance\noutput.format = json\n"
    )
    assert main(["run", str(cfg)]) == 0
    assert (out / "manifest.json").is_file()
    cells = read_rows(out / "importance.json")
    assert sorted(cells) == sorted(
        (f"{tree} tree: {name}", column)
        for tree in ("em6", "em10") for name in (tree, "avg_inflation") for column in ("avg MSE gain", "share")
    )
    assert all(cell["text"] == "n/a (no splits)" and cell["estimate"] is None for cell in cells.values())


def test_synthetic_config_drives_generator(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(
        "data.synthetic = true\n"
        "dgp.countries = 8\n"
        "dgp.years = 30\n"
        "dgp.seed = 2\n"
        "decades = full,1990s\n"
        "outputs = mg_table\n"
        f"output.dir = {tmp_path / 'sout'}\n"
    )
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "sout" / "synthetic_panel.csv").is_file()
    assert (tmp_path / "sout" / "mg_table.txt").is_file()


def test_config_rejects_min_obs_below_k_plus_2_at_parse_time(tmp_path):
    base = {"data.synthetic": "true", "output.dir": str(tmp_path / "o"), "model.variants": "headline"}
    assert config_from_mapping(base | {"model.min_obs": "5"}).min_obs == 5
    for extra in ({"model.min_obs": "4"}, {"model.min_obs": "5", "model.interactions": "globalisation"}):
        with pytest.raises(ConfigError) as err:
            config_from_mapping(base | extra)
        assert err.value.field_path == "model.min_obs"


def test_min_obs_below_k_plus_2_fails_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(f"data.synthetic = true\nmodel.variants = headline,core\nmodel.min_obs = 2\noutput.dir = {out}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: model.min_obs: min_obs must be >= k + 2 = 5\n"
    assert not out.exists()


def test_config_to_mapping_round_trips(tmp_path, data_dir):
    mapping = {
        "data.panel_path": str(data_dir / "panel.csv"),
        "output.dir": str(tmp_path / "rt"),
        "outputs": "mg_table",
        "seed": "9",
    }
    cfg = config_from_mapping(mapping)
    again = config_from_mapping(config_to_mapping(cfg))
    assert again == cfg


def test_singular_wald_cells_are_marked(tmp_path):
    # three usable countries cannot identify a five-slope dispersion matrix
    data = tmp_path / "data"
    data.mkdir()
    write_panel_csv(generate_panel(DgpParams(n_countries=3, n_years=40, seed=5)), data / "panel.csv")
    mapping = {
        "data.panel_path": str(data / "panel.csv"),
        "output.dir": str(tmp_path / "out"),
        "model.interactions": "both",
        "decades": "full",
        "outputs": "mg_table",
        "output.format": "json",
    }
    run_pipeline(config_from_mapping(mapping))
    rows = read_rows(tmp_path / "out" / "mg_table.json")
    assert rows[("countries", "full")]["text"] == "3"
    assert rows[("chi2", "full")]["text"] == "n/a (singular)"
    assert rows[("Wald p", "full")]["text"] == "n/a (singular)"
    assert rows[("dln_ulc", "full")]["estimate"] is not None


NO_SCIPY_SCRIPT = """
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())

import passthru.cli_report
import passthru.synth_lab
from passthru.mg_panel import build_passthrough_spec


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


assert not scipy_modules(), scipy_modules()
assert passthru.cli_report.main(["preset", "table1", "--data", sys.argv[1], "--out", sys.argv[2]]) == 0
params = passthru.synth_lab.DgpParams(seed=3)
report = passthru.synth_lab.monte_carlo(params, build_passthrough_spec(), reps=2)
assert report.reps == 2 and report.slots, report
assert not scipy_modules(), scipy_modules()
"""


def test_runtime_needs_no_scipy(tmp_path, data_dir):
    src = str(Path(passthru.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(data_dir), str(tmp_path / "t1")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "t1" / "mg_table.txt").is_file()

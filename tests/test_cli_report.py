from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import passthru

from passthru import cli_report
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
from passthru.kvconfig import number_parser
from passthru.mg_panel import build_passthrough_spec
from passthru.panel_data import PanelDataset, table_a2_path, write_panel_csv
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
    assert stars_for(1.960, 1.0) == ("**", False)
    assert stars_for(1.9599, 1.0) == ("*", False)
    assert stars_for(2.576, 1.0) == ("***", False)
    assert stars_for(2.5759, 1.0) == ("**", False)
    assert stars_for(1.645, 1.0) == ("*", False)
    assert stars_for(1.6449, 1.0) == ("", False)
    assert stars_for(-2.0, 1.0) == ("**", False)


def test_star_published_examples():
    # 0.124 over 0.033 is clearly significant; 0.064 over 0.061 is not
    assert stars_for(0.124, 0.033)[0] == "***"
    assert stars_for(0.064, 0.061)[0] == ""


def test_degenerate_se_flag():
    stars, degenerate = stars_for(0.5, 0.0)
    assert (stars, degenerate) == ("***", True)
    assert stars_for(0.0, 0.0) == ("", True)


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
            TableRow("slope", (Cell.coef(0.124, 0.033), Cell.coef(0.064, 0.061))),
            TableRow("n", (Cell.plain("58"), Cell.plain("58"))),
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
        rows=(TableRow("slope", (Cell.coef(0.5, 0.0),)),),
    )
    text = render_table(table, "text")
    assert "0.5***" in text
    assert "(degenerate)" in text


def test_ragged_grid_rejected():
    table = RenderedTable(
        title="T", columns=("a", "b"),
        rows=(TableRow("r", (Cell.plain("1"),)),),
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
    ("dgp.lambda_schedule = 0.1,abc", "dgp: dgp.lambda_schedule: cannot parse 'abc'"),
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
    mapping = {"data.panel_path": str(data_dir / "panel.csv"), "output.dir": str(tmp_path), "data.synthetic": value}
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


def test_number_parser_reads_field_annotations():
    assert number_parser("int") is int
    assert number_parser("float") is float
    assert number_parser("int | None") is int
    with pytest.raises(KeyError):
        number_parser("tuple[float, ...] | None")


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
]


@pytest.mark.parametrize("settings, field", BAD_RUN_CONFIGS)
def test_run_config_built_in_code_names_its_bad_field(tmp_path, settings, field):
    with pytest.raises(ConfigError) as err:
        RunConfig(out_dir=tmp_path / "out", **settings)
    assert err.value.field_path == field
    assert not (tmp_path / "out").exists()


def test_config_to_mapping_is_pinned():
    cfg = RunConfig(
        out_dir=Path("/runs/out"),
        panel_path=Path("/data/panel.csv"),
        decade_path=Path("/data/decades.csv"),
        dgp=DgpParams(n_countries=8, n_years=30, lambda_schedule=(0.3, 0.1), seed=5),
        variants=("core", "earnings"),
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
        "data.panel_path": "/data/panel.csv",
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
        "model.variants": "core,earnings",
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


DECADE_LABELS = ("full", "1970s", "1980s", "1990s", "2000s", "2010s")
CONFIG_FLOATS = st.floats(-0.9, 0.9, allow_nan=False)


@st.composite
def run_configs(draw, out_dir: Path, panel_path: Path, decade_path: Path) -> RunConfig:
    outputs = tuple(draw(st.lists(st.sampled_from(OUTPUTS), min_size=1, max_size=3)))
    variants = tuple(draw(st.lists(st.sampled_from(sorted(VARIANTS)), min_size=1, max_size=2)))
    panel_based = set(outputs) & {"passthrough_panel", "second_stage", "importance", "pd_grid"}
    needs_decades = panel_based or ("mg_table" in outputs and len(variants) == 1)
    decade_lists = st.lists(st.sampled_from(DECADE_LABELS), min_size=1, max_size=4).map(tuple)
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
        controls=(control,) if control else (),
        with_globalisation=interactions in ("globalisation", "both"),
        with_lagged_inflation=interactions in ("lagged_inflation", "both"),
    ).k
    return RunConfig(
        out_dir=out_dir,
        panel_path=None if dgp is not None and draw(st.booleans()) else panel_path,
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
    found = re.fullmatch(r"forest: 12 trees, (\d+) nodes, max depth (\d+)", shapes[0])
    nodes, depth = int(found[1]), int(found[2])
    assert nodes >= 12 and (nodes - 12) % 2 == 0  # each split adds two nodes
    assert (depth == 0) == (nodes == 12)
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in written) == [
        "manifest.json", "pd_grid.csv", "pd_grid.json", "pd_slices.csv",
    ]


def test_usable_countries_by_reason_go_to_the_log_only(tmp_path, caplog):
    base = generate_panel(DgpParams(n_countries=5, n_years=40, seed=7))
    cells = {v: dict(base.cells(v)) for v in base.variables}
    for (country, year) in list(cells["cpi"]):
        if country == "C03" and year >= 1985:  # five years of levels: too few rows everywhere
            del cells["cpi"][(country, year)]
        if country == "C04":  # constant cost growth: singular in every window
            cells["ulc"][(country, year)] = 100.0 * 1.02 ** (year - 1980)
    data = tmp_path / "panel.csv"
    write_panel_csv(PanelDataset(base.countries, base.years, cells), data)
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


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\noutput.dir = out\n")
    assert main(["run", str(bad)]) == 2
    # a config that parses but fails downstream: medians without decade data
    cfg = tmp_path / "downstream.cfg"
    ds = generate_panel(DgpParams(n_countries=4, n_years=12, seed=1))
    write_panel_csv(ds, tmp_path / "tiny_panel.csv")
    cfg.write_text(
        f"data.panel_path = {tmp_path / 'tiny_panel.csv'}\n"
        f"output.dir = {tmp_path / 'dout'}\n"
        "decades = full,2010s\n"  # window outside the tiny panel's years
        "outputs = mg_table\n"
    )
    rc = main(["run", str(cfg)])
    assert rc == 1
    capsys.readouterr()


def test_stage_error_names_stage(tmp_path, data_dir):
    mapping = {
        "data.panel_path": str(data_dir / "panel.csv"),
        "output.dir": str(tmp_path / "stage_err"),
        "decades": "full,2070s",
        "outputs": "mg_table",
    }
    cfg = config_from_mapping(mapping)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "mg_table"


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

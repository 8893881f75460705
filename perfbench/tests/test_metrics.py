import json
from pathlib import Path

import pytest

from metrics import LAYER_METRICS, OVERHEAD_METRIC, LoopResult, closed_loop, end_to_end, error_rate, high_percentile
from workloads import EXPECTED_FILES, Presets, pooled_mc

ROOT = Path(__file__).resolve().parents[2]


def test_high_percentile_needs_ten_samples_beyond_it():
    assert high_percentile([]) is None
    assert high_percentile([float(i) for i in range(99)]) is None  # 9 beyond
    assert high_percentile([float(i) for i in range(100)]) == 89.0  # 10 beyond
    assert high_percentile([float(i) for i in range(200, 0, -1)]) == 180.0


def test_closed_loop_counts_failed_checks_and_raising_ops():
    def op(i):
        if i == 3:
            raise ValueError("broken")
        return i

    loop = closed_loop(op, lambda i, out: "wrong" if i == 1 else None, seconds=0.0, cycle=5)
    assert loop.attempted == 5  # stops at the first cycle boundary
    assert loop.failures == {1: "wrong", 3: "raised ValueError: broken"}
    assert loop.units == [1.0, 0.0, 1.0, 0.0, 1.0]
    assert error_rate(loop.attempted, len(loop.failures)) == pytest.approx(2 / 5)
    e2e = end_to_end(loop, setup_s=1.0, peak_rss_mb=10.0)
    assert set(e2e["metrics"]) == {"setup_s", "throughput", "op_ms_p50", "peak_rss_mb"}


def test_pooled_mc_flags_bias_and_coverage():
    assert pooled_mc([(0.004, 0.875)] * 40, 8)["problem"] is None
    assert "bias" in pooled_mc([(0.05, 0.875)] * 40, 8)["problem"]
    assert "coverage" in pooled_mc([(0.004, 0.5)] * 40, 8)["problem"]


def _write(out, files):
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)
    return "".join(f"{out / name}\n" for name in files)


def test_preset_check_fails_forced_bad_outputs(tmp_path):
    wl = Presets(1, tmp_path, ("table1",), n_countries=3, pass_seed=False)
    out = tmp_path / "out" / "table1"
    good = {name: b"ok" for name in EXPECTED_FILES["table1"]}
    printed = _write(out, good)
    assert wl.check(0, (0, printed)) is None
    assert "exit code 1" in wl.check(1, (1, printed))
    printed = _write(out, {**good, "mg_table.txt": b"changed"})
    assert "bytes differ" in wl.check(2, (0, printed))
    (out / "manifest.json").unlink()
    assert "expected" in wl.check(3, (0, printed))


def test_throughput_is_completed_units_per_timed_second():
    loop = LoopResult(first=0, next=4, latencies_s=[1.0, 0.5, 2.0, 0.5], units=[50.0, 50.0, 0.0, 50.0])
    assert loop.throughput() == pytest.approx(150 / 4.0)


def test_layer_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == [(n, u, b) for n, (u, b, *_) in LAYER_METRICS.items()] + [(OVERHEAD_METRIC, "ratio", "lower")]

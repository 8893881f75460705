"""Closed loop, failure accounting and the metric definitions.

Nothing here imports the library, so the arithmetic is testable on its own.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from tracer import LayerStats, Span, pool_utilisation

HIGH_PERCENTILE = 0.90
MIN_BEYOND = 10  # samples that must lie beyond the high percentile to report it


@dataclass
class LoopResult:
    """What one closed loop did: per-op latency and units of work, failures by op."""

    first: int
    next: int = 0
    latencies_s: list[float] = field(default_factory=list)
    units: list[float] = field(default_factory=list)  # 0 for an op that failed
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.next - self.first

    @property
    def timed_s(self) -> float:
        return math.fsum(self.latencies_s)

    def throughput(self) -> float:
        """Units of work completed per second of timed wall time."""
        return math.fsum(self.units) / self.timed_s


def closed_loop(
    run_op: Callable[[int], object],
    check: Callable[[int, object], str | None],
    seconds: float,
    first: int = 0,
    cycle: int = 1,
    units_per_op: float = 1.0,
    prepare: Callable[[int], None] | None = None,
) -> LoopResult:
    """One client: op i+1 starts when op i returns.

    Only `run_op` is timed; `prepare` and `check` run outside the clock. The
    loop stops at the first multiple of `cycle` ops once the timed total
    reaches `seconds`, so every op kind in a cycle is sampled equally. An op
    that raises, or whose check returns a message, counts as failed.
    """
    loop = LoopResult(first=first, next=first)
    while True:
        i = loop.next
        if prepare is not None:
            prepare(i)
        start = time.perf_counter()
        try:
            out = run_op(i)
        except Exception as exc:  # a failing op is counted, and the loop goes on
            loop.latencies_s.append(time.perf_counter() - start)
            loop.units.append(0.0)
            loop.failures[i] = f"raised {type(exc).__name__}: {exc}"
        else:
            loop.latencies_s.append(time.perf_counter() - start)
            problem = check(i, out)
            loop.units.append(units_per_op if problem is None else 0.0)
            if problem is not None:
                loop.failures[i] = problem
        loop.next = i + 1
        if (loop.next - first) % cycle == 0 and loop.timed_s >= seconds:
            return loop


def high_percentile(samples: list[float], q: float = HIGH_PERCENTILE) -> float | None:
    """Nearest-rank q-quantile, or None when fewer than MIN_BEYOND samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def end_to_end(loop: LoopResult, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run, plus the percentile report."""
    lat_ms = [1000.0 * s for s in loop.latencies_s]
    p90 = high_percentile(lat_ms)
    return {
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput": {"value": loop.throughput(), "unit": "units/s"},
            "op_ms_p50": {"value": statistics.median(lat_ms), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        },
        "op_ms_p90": p90,
        "samples": len(lat_ms),
    }


# Per-layer metrics: name -> (unit, better, how to read it from the traced
# run's per-span stats, which end-to-end metric it should move, on which
# workloads). Values are per op, so runs of different length compare.
LayerReader = Callable[[Mapping[str, LayerStats], list[Span], int], float]


def _calls(span: str) -> LayerReader:
    return lambda st, spans, ops: st[span].calls / ops if span in st else 0.0


def _self_ms(span: str) -> LayerReader:
    return lambda st, spans, ops: 1000.0 * st[span].self_s / ops if span in st else 0.0


def _count(span: str, key: str) -> LayerReader:
    return lambda st, spans, ops: st[span].counts.get(key, 0) / ops if span in st else 0.0


def _raised(span: str, exc: str) -> LayerReader:
    return lambda st, spans, ops: st[span].raised.get(exc, 0) / ops if span in st else 0.0


def _usable_ratio(st, spans, ops) -> float:
    fc = st.get("mg_panel.fit_country")
    return fc.counts.get("usable", 0) / fc.calls if fc else 0.0


LAYER_METRICS: dict[str, tuple[str, str, LayerReader, str, str]] = {
    "panel_data.PanelDataset.calls": ("count", "lower", _calls("panel_data.PanelDataset"), "throughput", "mc_parallel, tables"),
    "panel_data.PanelDataset.self_ms": ("ms", "lower", _self_ms("panel_data.PanelDataset"), "throughput", "mc_parallel, tables"),
    "panel_data.PanelDataset.cells": ("count", "lower", _count("panel_data.PanelDataset", "cells"), "throughput", "mc_parallel, tables"),
    "panel_data.apply_transform.self_ms": ("ms", "lower", _self_ms("panel_data.apply_transform"), "throughput, op_ms_p50", "mc_parallel, tables"),
    "panel_data.window.self_ms": ("ms", "lower", _self_ms("panel_data.window"), "throughput, op_ms_p50", "mc_parallel, tables, forest_pd"),
    "panel_data.complete_rows.self_ms": ("ms", "lower", _self_ms("panel_data.complete_rows"), "throughput, op_ms_p50", "mc_parallel, tables"),
    "panel_data.load_panel_csv.self_ms": ("ms", "lower", _self_ms("panel_data.load_panel_csv"), "op_ms_p50", "tables, forest_pd"),
    "regression_core.ols_fit.calls": ("count", "lower", _calls("regression_core.ols_fit"), "throughput", "mc_parallel, tables"),
    "regression_core.ols_fit.self_ms": ("ms", "lower", _self_ms("regression_core.ols_fit"), "throughput", "mc_parallel, tables"),
    "regression_core.ols_fit.singular": ("count", "lower", _raised("regression_core.ols_fit", "SingularDesignError"), "throughput", "mc_parallel, tables"),
    "regression_core.robust_cov.self_ms": ("ms", "lower", _self_ms("regression_core.robust_cov"), "op_ms_p90 when reported, else op_ms_p50", "tables (table5)"),
    "regression_core.within_transform.self_ms": ("ms", "lower", _self_ms("regression_core.within_transform"), "op_ms_p90 when reported, else op_ms_p50", "tables (table5)"),
    "regression_core.r2_components.self_ms": ("ms", "lower", _self_ms("regression_core.r2_components"), "op_ms_p90 when reported, else op_ms_p50", "tables (table5)"),
    "mg_panel.materialize_design.self_ms": ("ms", "lower", _self_ms("mg_panel.materialize_design"), "throughput", "mc_parallel, tables"),
    "mg_panel.fit_country.calls": ("count", "lower", _calls("mg_panel.fit_country"), "throughput", "mc_parallel, tables"),
    "mg_panel.fit_country.self_ms": ("ms", "lower", _self_ms("mg_panel.fit_country"), "throughput", "mc_parallel, tables"),
    "mg_panel.fit_country.usable_ratio": ("ratio", "higher", _usable_ratio, "throughput", "mc_parallel, tables"),
    "mg_panel.mean_group.self_ms": ("ms", "lower", _self_ms("mg_panel.mean_group"), "throughput", "mc_parallel, tables"),
    "mg_panel.wald_joint.self_ms": ("ms", "lower", _self_ms("mg_panel.wald_joint"), "op_ms_p50", "tables"),
    "mg_panel.long_run_effect.self_ms": ("ms", "lower", _self_ms("mg_panel.long_run_effect"), "op_ms_p50", "tables"),
    "mg_panel.estimate_decade_passthroughs.self_ms": ("ms", "lower", _self_ms("mg_panel.estimate_decade_passthroughs"), "op_ms_p50", "tables, forest_pd"),
    "second_stage.second_stage_fit.calls": ("count", "lower", _calls("second_stage.second_stage_fit"), "op_ms_p50", "tables"),
    "second_stage.second_stage_fit.self_ms": ("ms", "lower", _self_ms("second_stage.second_stage_fit"), "op_ms_p50", "tables"),
    "tree_forest.fit_forest.self_ms": ("ms", "lower", _self_ms("tree_forest.fit_forest"), "op_ms_p50", "forest_pd"),
    "tree_forest.fit_tree.calls": ("count", "lower", _calls("tree_forest.fit_tree"), "op_ms_p50", "forest_pd, tables (fig4)"),
    "tree_forest.fit_tree.self_ms": ("ms", "lower", _self_ms("tree_forest.fit_tree"), "op_ms_p50", "forest_pd, tables (fig4)"),
    "tree_forest.best_split.calls": ("count", "lower", _calls("tree_forest.best_split"), "op_ms_p50", "forest_pd, tables (fig4)"),
    "tree_forest.best_split.self_ms": ("ms", "lower", _self_ms("tree_forest.best_split"), "op_ms_p50", "forest_pd, tables (fig4)"),
    "tree_forest.split_nodes": ("count", "lower", _count("tree_forest.best_split", "split"), "op_ms_p50", "forest_pd, tables (fig4)"),
    "tree_forest.partial_dependence.self_ms": ("ms", "lower", _self_ms("tree_forest.partial_dependence"), "op_ms_p50", "forest_pd"),
    "tree_forest.predict_many.calls": ("count", "lower", _calls("tree_forest.predict_many"), "op_ms_p50", "forest_pd"),
    "tree_forest.predict_many.self_ms": ("ms", "lower", _self_ms("tree_forest.predict_many"), "op_ms_p50", "forest_pd"),
    "tree_forest.point_tree_routes": ("count", "lower", _count("tree_forest.predict_many", "routes"), "op_ms_p50", "forest_pd"),
    "tree_forest.importance.self_ms": ("ms", "lower", _self_ms("tree_forest.importance"), "op_ms_p50", "tables"),
    "synth_lab.generate_panel.self_ms": ("ms", "lower", _self_ms("synth_lab.generate_panel"), "throughput", "mc_parallel"),
    "synth_lab.monte_carlo.self_ms": ("ms", "lower", _self_ms("synth_lab.monte_carlo"), "throughput", "mc_parallel"),
    "synth_lab.pool.utilisation": ("ratio", "higher", lambda st, spans, ops: pool_utilisation(spans), "throughput", "mc_parallel"),
    "cli_report.run_pipeline.self_ms": ("ms", "lower", _self_ms("cli_report.run_pipeline"), "op_ms_p50", "tables, forest_pd"),
    "cli_report.render.self_ms": ("ms", "lower", _self_ms("cli_report.render"), "op_ms_p50", "tables, forest_pd"),
    "cli_report.bytes_written": ("bytes", "lower", _count("cli_report.run_pipeline", "bytes"), "op_ms_p50", "tables, forest_pd"),
}
OVERHEAD_METRIC = "trace.overhead_ratio"


def per_layer(stats: Mapping[str, LayerStats], spans: list[Span], ops: int, overhead_ratio: float) -> dict:
    metrics = {
        name: {"value": read(stats, spans, ops), "unit": unit}
        for name, (unit, _, read, _, _) in LAYER_METRICS.items()
    }
    metrics[OVERHEAD_METRIC] = {"value": overhead_ratio, "unit": "ratio"}
    return metrics

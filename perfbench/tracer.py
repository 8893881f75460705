"""Outside-in tracer: wraps the library's public functions and records spans.

The tracer never edits the library. It replaces each listed function on its
defining module, and on every `passthru` module that imported it by name, with
a wrapper that records a span: name, start, end, parent span, thread id and
op id. Methods are replaced on their class. Spans stay in memory until the
run ends. Parents are tracked per thread, so self time (a span minus the part
of it covered by its children) is computed per thread; spans that worker
threads open have no parent on their own thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import resource
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    counts: dict | None = None
    raised: str | None = None
    cpu: float | None = None  # thread CPU seconds, kept for spans with no parent

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """One traced function: where it is defined, its span name, its counters.

    `after(args, kwargs, result, state)` returns the counters recorded on a
    span that returned; `before(fn, args, kwargs)`, called with the original
    function, gives it `state`.
    """

    module: str
    attr: str  # "name" for a function, "Class.method" for a method
    span: str
    before: Callable | None = None
    after: Callable | None = None


def _cpu_seconds() -> float:
    """CPU time of the calling thread plus this process's reaped child processes.

    Process-wide CPU time would also count the BLAS library's own threads,
    which spin while they wait for work.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


def _count_cells(args, kwargs, result, state):
    ds = args[0]
    return {"cells": sum(ds.n_obs(v) for v in ds.variables)}


def _count_usable(args, kwargs, result, state):
    return {"usable": int(result.usable)}


def _count_split(args, kwargs, result, state):
    return {"split": int(result is not None)}


def _count_routes(args, kwargs, result, state):
    model = args[0]
    return {"routes": len(result) * getattr(model, "n_trees", 1)}


def _count_bytes(args, kwargs, result, state):
    return {"bytes": sum(path.stat().st_size for path in result)}


def _mc_before(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["n_jobs"], _cpu_seconds()


def _mc_after(args, kwargs, result, state):
    n_jobs, cpu_start = state
    return {"workers": max(1, n_jobs), "cpu_s": _cpu_seconds() - cpu_start}


PROBES: tuple[Probe, ...] = (
    Probe("passthru.panel_data", "PanelDataset.__init__", "panel_data.PanelDataset", after=_count_cells),
    Probe("passthru.panel_data", "PanelDataset.complete_rows", "panel_data.complete_rows"),
    Probe("passthru.panel_data", "apply_transform", "panel_data.apply_transform"),
    Probe("passthru.panel_data", "window", "panel_data.window"),
    Probe("passthru.panel_data", "load_panel_csv", "panel_data.load_panel_csv"),
    Probe("passthru.regression_core", "ols_fit", "regression_core.ols_fit"),
    Probe("passthru.regression_core", "robust_cov", "regression_core.robust_cov"),
    Probe("passthru.regression_core", "within_transform", "regression_core.within_transform"),
    Probe("passthru.regression_core", "r2_components", "regression_core.r2_components"),
    Probe("passthru.mg_panel", "materialize_design", "mg_panel.materialize_design"),
    Probe("passthru.mg_panel", "fit_country", "mg_panel.fit_country", after=_count_usable),
    Probe("passthru.mg_panel", "mean_group", "mg_panel.mean_group"),
    Probe("passthru.mg_panel", "wald_joint", "mg_panel.wald_joint"),
    Probe("passthru.mg_panel", "long_run_effect", "mg_panel.long_run_effect"),
    Probe("passthru.mg_panel", "estimate_decade_passthroughs", "mg_panel.estimate_decade_passthroughs"),
    Probe("passthru.second_stage", "second_stage_fit", "second_stage.second_stage_fit"),
    Probe("passthru.tree_forest", "fit_forest", "tree_forest.fit_forest"),
    Probe("passthru.tree_forest", "fit_tree", "tree_forest.fit_tree"),
    Probe("passthru.tree_forest", "best_split", "tree_forest.best_split", after=_count_split),
    Probe("passthru.tree_forest", "partial_dependence", "tree_forest.partial_dependence"),
    Probe("passthru.tree_forest", "predict_many", "tree_forest.predict_many", after=_count_routes),
    Probe("passthru.tree_forest", "importance", "tree_forest.importance"),
    Probe("passthru.synth_lab", "generate_panel", "synth_lab.generate_panel"),
    Probe("passthru.synth_lab", "monte_carlo", "synth_lab.monte_carlo", before=_mc_before, after=_mc_after),
    Probe("passthru.cli_report", "run_pipeline", "cli_report.run_pipeline", after=_count_bytes),
    Probe("passthru.cli_report", "render_table", "cli_report.render"),
    Probe("passthru.tree_forest", "PdGrid.to_csv", "cli_report.render"),
    Probe("passthru.tree_forest", "PdGrid.slices_to_csv", "cli_report.render"),
    Probe("passthru.tree_forest", "PdGrid.to_json", "cli_report.render"),
)

OP_SPAN = "op"


class Tracer:
    """Records spans from wrappers it installs; `uninstall` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            state = before(fn, args, kwargs) if before is not None else None
            stack.append(sid)
            cpu = time.thread_time() if parent is None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), tracer.op,
                         raised=type(exc).__name__)
                )
                raise
            end = time.perf_counter()
            if cpu is not None:
                cpu = time.thread_time() - cpu
            stack.pop()
            counts = after(args, kwargs, result, state) if after is not None else None
            tracer.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), tracer.op, counts, cpu=cpu)
            )
            return result

        return traced

    def run_op(self, op: int, fn: Callable[[int], object]) -> object:
        """Run one benchmark op inside a root span that tags child spans with its id."""
        self.op = op
        return self.wrap(fn, OP_SPAN)(op)

    def install(self, probes: Iterable[Probe] = PROBES) -> None:
        """Swap every probed function for its wrapper wherever it is bound by name."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for probe in probes:
            module = importlib.import_module(probe.module)
            owner_name, _, attr = probe.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self.wrap(original, probe.span, probe.before, probe.after))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, probe.span, probe.before, probe.after)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "passthru" or mod_name.startswith("passthru.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def _replace(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, separators=(",", ":")) + "\n")


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its own child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


@dataclass(frozen=True)
class LayerStats:
    calls: int
    self_s: float
    counts: Mapping[str, float]
    raised: Mapping[str, int]


def summarize(spans: Sequence[Span]) -> dict[str, LayerStats]:
    """Per span name: calls, total self time, summed counters, exceptions by type."""
    own = self_times(spans)
    acc: dict[str, tuple[int, float, dict, dict]] = {}
    for s in spans:
        calls, self_s, counts, raised = acc.get(s.name, (0, 0.0, {}, {}))
        for key, value in (s.counts or {}).items():
            counts[key] = counts.get(key, 0) + value
        if s.raised is not None:
            raised[s.raised] = raised.get(s.raised, 0) + 1
        acc[s.name] = (calls + 1, self_s + own[s.id], counts, raised)
    return {name: LayerStats(*fields) for name, fields in acc.items()}


def pool_utilisation(spans: Sequence[Span]) -> float:
    """Worker busy time / (wall time x workers), summed over monte_carlo calls.

    Busy time is CPU time, so a worker waiting for the interpreter lock is
    idle: the caller's own thread and reaped child processes (recorded on the
    monte_carlo span), plus the root spans other threads ran inside the call.
    """
    busy = capacity = 0.0
    for m in spans:
        if m.name != "synth_lab.monte_carlo" or m.counts is None:
            continue
        capacity += m.duration * m.counts["workers"]
        busy += m.counts["cpu_s"] + math.fsum(
            s.cpu for s in spans
            if s.parent is None and s.cpu is not None and s.thread != m.thread
            and s.op == m.op and m.start <= s.start <= m.end
        )
    return busy / capacity if capacity > 0.0 else 0.0

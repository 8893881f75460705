import threading

import pytest

from tracer import Span, Tracer, covered_length, pool_utilisation, self_times, summarize


def span(sid, name, start, end, parent=None, thread=1, op=0, **kw):
    return Span(sid, name, start, end, parent, thread, op, **kw)


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, "a", 0.0, 10.0),
        span(2, "b", 1.0, 4.0, parent=1),
        span(3, "c", 5.0, 9.0, parent=1),
        span(4, "d", 6.0, 7.0, parent=3),
    ]
    assert self_times(spans) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_self_time_counts_overlapping_children_once():
    # children recorded on one thread never overlap, but the union must not double-subtract
    spans = [span(1, "a", 0.0, 10.0), span(2, "b", 2.0, 6.0, parent=1), span(3, "c", 4.0, 8.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(4.0)
    assert covered_length([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_self_time_is_per_thread():
    # the caller waits on thread 1 while workers on threads 2 and 3 run inside its interval
    spans = [
        span(1, "mc", 0.0, 10.0, thread=1),
        span(2, "gen", 1.0, 5.0, thread=2),
        span(3, "gen", 2.0, 8.0, thread=3),
        span(4, "fit", 3.0, 4.0, parent=3, thread=3),
    ]
    own = self_times(spans)
    assert own == {1: 10.0, 2: 4.0, 3: 5.0, 4: 1.0}
    stats = summarize(spans)
    assert stats["gen"].calls == 2
    assert stats["gen"].self_s == pytest.approx(9.0)


def test_summarize_counts_and_exceptions():
    spans = [
        span(1, "fit", 0.0, 1.0, counts={"usable": 1}),
        span(2, "fit", 1.0, 2.0, counts={"usable": 0}),
        span(3, "ols", 2.0, 3.0, raised="SingularDesignError"),
    ]
    stats = summarize(spans)
    assert stats["fit"].counts == {"usable": 1}
    assert stats["ols"].raised == {"SingularDesignError": 1}


def test_pool_utilisation_uses_worker_cpu_time():
    mc = span(1, "synth_lab.monte_carlo", 0.0, 10.0, thread=1, counts={"workers": 2, "cpu_s": 0.5})
    spans = [
        mc,
        span(2, "w", 1.0, 5.0, thread=2, cpu=4.0),
        span(3, "w", 2.0, 9.0, thread=3, cpu=5.5),
        span(4, "w", 20.0, 21.0, thread=3, cpu=1.0),  # after the call: not counted
        span(5, "inner", 3.0, 4.0, parent=3, thread=3),
    ]
    assert pool_utilisation(spans) == pytest.approx((0.5 + 4.0 + 5.5) / 20.0)
    assert pool_utilisation(spans[1:]) == 0.0


def test_wrapped_calls_nest_per_thread():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    threads = [threading.Thread(target=outer, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    by_id = {s.id: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 4
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
    assert all(s.parent is None and s.cpu is not None for s in tracer.spans if s.name == "outer")


def test_wrapper_records_raising_calls():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0].raised == "KeyError"


def test_install_wraps_every_binding_and_uninstall_restores():
    regression_core = pytest.importorskip("passthru.regression_core")
    import passthru.mg_panel as mg_panel
    import passthru.panel_data as panel_data

    original_fit = regression_core.ols_fit
    original_init = panel_data.PanelDataset.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert regression_core.ols_fit is not original_fit
        assert mg_panel.ols_fit is regression_core.ols_fit
        assert panel_data.PanelDataset.__init__ is not original_init
    finally:
        tracer.uninstall()
    assert regression_core.ols_fit is original_fit and mg_panel.ols_fit is original_fit
    assert panel_data.PanelDataset.__init__ is original_init

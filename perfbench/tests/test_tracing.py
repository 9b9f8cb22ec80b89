import multiprocessing
import sys
import types

import pytest

from tracing import Tracer, covered, layer_totals, self_times, tail_percentile


@pytest.mark.parametrize("n, expected", [
    (100, 90.0),    # p90 leaves exactly 10 beyond; p95 leaves 5
    (166, 90.0),    # p90 leaves 16; p95 leaves 8
    (810, 95.0),    # p95 leaves 40; p99 leaves 8
    (20, 50.0),     # only the median has 10 beyond it
    (10_000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    values = [float(i) for i in range(n, 0, -1)]
    pct, value = tail_percentile(values)
    assert pct == expected
    assert sum(1 for v in values if v > value) >= 10


def test_tail_absent_with_too_few_samples():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([]) is None


def _span(span_id, parent, start, end, name="x", **attrs):
    return {"id": span_id, "parent": parent, "start": start, "end": end,
            "name": name, "run": "r", "pid": 1, "attrs": attrs}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("p", None, 0.0, 10.0, "parent"),
        _span("a", "p", 1.0, 4.0, "child"),
        _span("b", "p", 3.0, 6.0, "child"),    # overlaps a (two workers)
        _span("c", "p", 8.0, 12.0, "child"),   # runs past the parent's end
    ]
    assert covered(0.0, 10.0, [(1, 4), (3, 6), (8, 12)]) == pytest.approx(7.0)
    selfs = self_times(spans)
    assert selfs["p"] == pytest.approx(3.0)
    assert selfs["a"] == pytest.approx(3.0)
    totals = layer_totals(spans)
    assert totals["child"]["calls"] == 3
    assert totals["child"]["total_s"] == pytest.approx(10.0)
    assert totals["parent"]["self_s"] == pytest.approx(3.0)


def _install_fake_module(monkeypatch):
    lib = types.ModuleType("fake_layer")

    def work(x):
        work.last = x
        return x * 2

    work.last = None
    lib.work = work
    user = types.ModuleType("fake_user")
    user.work = work                      # ``from fake_layer import work``
    monkeypatch.setitem(sys.modules, "fake_layer", lib)
    monkeypatch.setitem(sys.modules, "fake_user", user)
    return lib, user, work


def test_wrap_rebinds_every_name_and_uninstall_restores(tmp_path, monkeypatch):
    lib, user, original = _install_fake_module(monkeypatch)
    tracer = Tracer(tmp_path)
    tracer.wrap_function(lib, "work", "fake.work",
                         lambda a, _k, r: {"arg": a[0], "out": r})
    assert user.work is lib.work is not original
    assert user.work(3) == 6
    assert user.work.last == 3            # function attributes are shared
    tracer.uninstall()
    assert user.work is lib.work is original
    (span,) = tracer.collect()
    assert span["name"] == "fake.work" and span["attrs"] == {"arg": 3, "out": 6}


def _child(lib):
    lib.work(5)


def test_spans_from_forked_workers_reach_the_parent(tmp_path, monkeypatch):
    lib, _user, _original = _install_fake_module(monkeypatch)
    tracer = Tracer(tmp_path)
    tracer.run_id = "run-1"
    tracer.wrap_function(lib, "work", "fake.work")
    ctx = multiprocessing.get_context("fork")
    with tracer.span("pool"):
        proc = ctx.Process(target=_child, args=(lib,))
        proc.start()
        proc.join(timeout=30)
    tracer.uninstall()
    assert not proc.is_alive() and proc.exitcode == 0
    spans = tracer.collect()
    pool = next(s for s in spans if s["name"] == "pool")
    worker = next(s for s in spans if s["name"] == "fake.work")
    assert worker["pid"] == proc.pid != pool["pid"]
    assert worker["parent"] == pool["id"]
    assert worker["run"] == "run-1"
    assert len(spans) == 2                # the parent's spans are not re-spilled

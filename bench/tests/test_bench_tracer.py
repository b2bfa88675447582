"""Span recording, self-time arithmetic and patch removal, on fake calls."""

import types

import pytest

from tracer import Tracer, self_times, within


class FakeClock:
    """Advances only when a test says so, so durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def _nested_module(clock):
    mod = types.SimpleNamespace()

    def leaf():
        clock.tick(2.0)

    def project():
        clock.tick(0.5)

    def middle():
        clock.tick(1.0)
        mod.leaf()
        mod.project()
        mod.project()
        clock.tick(0.25)

    def outer():
        clock.tick(3.0)
        mod.middle()
        mod.leaf()

    mod.leaf, mod.project, mod.middle, mod.outer = leaf, project, middle, outer
    return mod


def _trace(clock, mod):
    tracer = Tracer(clock=clock)
    with tracer:
        tracer.install([
            (mod, "outer", "a.outer", None),
            (mod, "middle", "b.middle", None),
            (mod, "leaf", "c.leaf", None),
            (mod, "project", None, None),
        ])
        tracer.call("bench.op", mod.outer, (), {})
    return tracer


def test_self_times_subtract_children_and_aggregated_calls():
    clock = FakeClock()
    tracer = _trace(clock, _nested_module(clock))
    names = [s.name for s in tracer.spans]
    assert names == ["bench.op", "a.outer", "b.middle", "c.leaf", "c.leaf"]
    durations = [s.duration for s in tracer.spans]
    assert durations == [9.25, 9.25, 4.25, 2.0, 2.0]
    middle = tracer.spans[2]
    assert (middle.calls, middle.busy) == (2, 1.0)
    assert self_times(tracer.spans) == [0.0, 3.0, 1.25, 2.0, 2.0]
    # self times plus aggregated busy time cover the root exactly
    total = sum(self_times(tracer.spans)) + sum(s.busy for s in tracer.spans)
    assert total == tracer.spans[0].duration


def test_parents_and_runs_are_recorded():
    clock = FakeClock()
    tracer = _trace(clock, _nested_module(clock))
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 2, 1]
    assert all(s.run == -1 for s in tracer.spans)
    assert within(tracer.spans, "b.middle") == [False, False, True, True, False]


def test_remove_restores_every_original():
    clock = FakeClock()
    mod = _nested_module(clock)
    before = dict(vars(mod))

    class Owner:
        def method(self):
            return 7

    original_method = Owner.__dict__["method"]
    tracer = Tracer(clock=clock)
    with tracer:
        tracer.install([(mod, "leaf", "c.leaf", None), (Owner, "method", "o.method", None)])
        assert mod.leaf is not before["leaf"]
        assert Owner().method() == 7
    assert vars(mod) == before
    assert Owner.__dict__["method"] is original_method
    assert [s.name for s in tracer.spans] == ["o.method"]


def test_raising_call_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.tick(1.0)
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.call("x.boom", boom, (), {})
    span, = tracer.spans
    assert span.duration == 1.0 and span.attrs == {"raised": True}
    assert tracer._stack == []


def test_describe_records_result_attributes():
    tracer = Tracer(clock=FakeClock())
    out = tracer.call("x.f", lambda n: n * 2, (21,), {}, describe=lambda r: {"value": r})
    assert out == 42 and tracer.spans[0].attrs == {"value": 42}

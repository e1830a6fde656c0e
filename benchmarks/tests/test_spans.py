import itertools
import types

import pytest

import layers
from spans import Span, Tracer, lookup, self_times, under


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("a.inner", 2.0, 3.0, 1, None),
        Span("b", 5.0, 6.0, 0, None),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("b", 3.0, 5.0, 0, None),
    ]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_tracer_records_parents_and_self_time():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)), measure=lambda args, result: result)

    assert outer(1) == 3
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    # outer opens at 0, the inner calls take 1-2 and 3-4, outer closes at 5
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert tracer.spans[0].value == 3.0
    assert under(tracer.spans, "outer") == [False, True, True]


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._open == []


def test_wrappers_are_restored_for_modules_classes_and_dicts():
    mod = types.ModuleType("fake")
    mod.f = lambda: "f"

    class Owner:
        def method(self):
            return "m"

    table = {"cmd": lambda: "cmd"}
    originals = (mod.f, vars(Owner)["method"], table["cmd"])
    targets = [("f", mod, "f", None), ("m", Owner, "method", None), ("cmd", table, "cmd", None)]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert (mod.f(), Owner().method(), table["cmd"]()) == ("f", "m", "cmd")
            assert mod.f is not originals[0]
            raise RuntimeError("leave the block early")
    assert (mod.f, vars(Owner)["method"], table["cmd"]) == originals
    assert [s.name for s in tracer.spans] == ["f", "m", "cmd"]


def test_every_dualvae_target_is_wrapped_and_restored():
    originals = [lookup(owner, key) for _, owner, key, _ in layers.TARGETS]
    with Tracer().installed(layers.TARGETS):
        wrapped = [lookup(owner, key) for _, owner, key, _ in layers.TARGETS]
    restored = [lookup(owner, key) for _, owner, key, _ in layers.TARGETS]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(r is o for r, o in zip(restored, originals))


def test_per_layer_statistics():
    tracer = Tracer()
    tracer.spans = [
        Span("model.refresh", 0.0, 4.0, -1, None),
        Span("model.compute_side_state", 1.0, 3.0, 0, None),
        Span("tensor.backward", 5.0, 6.0, -1, 300.0),
        Span("tensor.backward", 6.0, 8.0, -1, 296.0),
    ]
    m = layers.per_layer_metrics(tracer)
    assert m["model.refresh_self_s"] == (pytest.approx(2.0), "s")
    assert m["model.compute_side_state_s"] == (pytest.approx(2.0), "s")
    assert m["model.refresh_calls"] == (1, "count")
    assert m["tensor.backward_s"] == (pytest.approx(3.0), "s")
    assert m["tensor.tape_nodes_per_step"] == (pytest.approx(298.0), "count")
    assert m["encoder.encode_calls"] == (0, "count")

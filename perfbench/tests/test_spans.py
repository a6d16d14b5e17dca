"""Self-time attribution and namespace wrapping of the tracer."""

import pytest

from perfbench import layers
from perfbench.run import load_program
from perfbench.spans import Tracer, summarize


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_nested_self_time():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    a = tracer.wrap("a", lambda: None)
    c = tracer.wrap("c", lambda: None)
    b = tracer.wrap("b", lambda: c())
    with tracer.op("outer"):
        a()
        b()
    s = summarize(tracer.spans)
    assert {k: v["self_s"] for k, v in s.items()} == {"outer": 4, "a": 2, "b": 3, "c": 1}
    assert {k: v["total_s"] for k, v in s.items()} == {"outer": 10, "a": 2, "b": 4, "c": 1}
    assert sum(v["self_s"] for v in s.values()) == 10
    root = tracer.spans[0]
    assert all(rec[2] == root[0] for rec in tracer.spans)  # one op id for the whole tree
    assert [rec[1] for rec in tracer.spans] == [-1, 0, 0, 2]  # parent links


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3]))

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", boom)
    with pytest.raises(ValueError):
        with tracer.op("outer"):
            inner()
    s = summarize(tracer.spans)
    assert s["inner"]["self_s"] == 1 and s["outer"]["self_s"] == 2
    assert tracer._stack == []


def test_every_binding_is_wrapped_and_restored():
    gd = load_program()
    original = gd.matfun.convolve
    tracer = Tracer(gd.modules, layers.TARGETS)
    group = gd.groups.parse_group_spec("z3")
    f = gd.matfun.random_matfun(group, 2, 7)
    with tracer.active():
        assert gd.roots.convolve is gd.theorems.convolve is gd.matfun.convolve is not original
        gd.matfun.make_pd(f)
    assert gd.roots.convolve is gd.theorems.convolve is gd.matfun.convolve is original
    names = [(rec[3], rec[1]) for rec in tracer.spans]
    # make_pd calls convolve through matfun's own namespace: a child span of make_pd
    assert names == [("matfun.make_pd", -1), ("matfun.convolve", 0)]
    assert tracer.spans[1][7] == 8 * 3 ** 2 * 2 ** 3

"""Self-time arithmetic and span recording of the benchmark's tracer."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, aggregate, self_times  # noqa: E402

# [name, start, end, parent]: a and b are back-to-back children of root, c is
# nested inside a, d reaches itself again, and e runs past d's end.
TREE = [
    ["root", 0.0, 10.0, -1],
    ["a", 1.0, 3.0, 0],
    ["b", 3.0, 4.0, 0],
    ["c", 1.5, 2.5, 1],
    ["d", 6.0, 9.0, 0],
    ["d", 7.0, 8.0, 4],
    ["e", 8.5, 9.5, 4],
]


def test_self_time_subtracts_direct_children_once():
    assert self_times(TREE) == pytest.approx([4.0, 1.0, 1.0, 1.0, 1.5, 1.0, 1.0])


def test_overlapping_children_are_merged():
    spans = [["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 3.0, 6.0, 0],
             ["z", 6.0, 7.0, 0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0)


def test_aggregate_counts_recursion_once_in_busy_time():
    agg = aggregate(TREE)
    assert agg["d"]["calls"] == 2
    assert agg["d"]["busy_s"] == pytest.approx(3.0)
    assert agg["d"]["self_s"] == pytest.approx(2.5)
    assert agg["root"]["self_s"] == pytest.approx(4.0)


def test_wrapped_calls_record_parents_and_summaries():
    tracer = Tracer()

    def inner(x):
        return x + 1

    inner = tracer.wrap("m.inner", inner, lambda args, kwargs, result: {"n": result})

    def outer(x):
        return inner(x) + inner(x)

    outer = tracer.wrap("m.outer", outer)
    assert outer(1) == 4
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("m.outer", -1), ("m.inner", 0), ("m.inner", 0)]
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert tracer.summaries == [(1, {"n": 2}), (2, {"n": 2})]

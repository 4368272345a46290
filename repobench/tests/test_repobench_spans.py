"""Span bookkeeping: parents, self time, and the disabled tracer."""

from __future__ import annotations

import pytest

from repobench.harness import Span, Tracer, max_duration, self_time_by_name, self_times


def _span(name, start, end, span_id, parent):
    return Span(name, start, end, span_id, parent, "run")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, 0, None),
        _span("a", 1.0, 4.0, 1, 0),
        _span("b", 3.0, 6.0, 2, 0),  # overlaps a: the union counts once
        _span("a.child", 2.0, 3.0, 3, 1),
        _span("late", 9.0, 12.0, 4, 0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    by_name = self_time_by_name(spans + [_span("a", 20.0, 20.5, 5, None)])
    assert by_name["a"] == pytest.approx(2.5)
    assert max_duration(spans, "a") == pytest.approx(3.0)


def test_tracer_records_parents_and_run_id():
    tracer = Tracer("run-7")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    tracer.add("count", 2)
    spans = {s.span_id: s for s in tracer.spans}
    outer = next(s for s in tracer.spans if s.name == "outer")
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert outer.parent is None
    assert [s.parent for s in inners] == [outer.span_id, outer.span_id]
    assert {s.run_id for s in spans.values()} == {"run-7"}
    assert all(outer.start <= s.start <= s.end <= outer.end for s in inners)
    assert tracer.counts == {"count": 2}


def test_disabled_tracer_keeps_counts_but_no_spans():
    tracer = Tracer("run", enabled=False)
    with tracer.span("outer"):
        tracer.add("calls")
    assert tracer.spans == []
    assert tracer.counts == {"calls": 1}

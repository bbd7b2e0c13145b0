"""Tests for span tracing."""

import pytest

from repro.obs import Tracer


class TestTracer:
    def test_nested_spans_share_trace_and_link_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.active() is inner
            assert tracer.active() is outer
        assert tracer.active() is None
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_duration_none_while_open(self):
        tracer = Tracer()
        with tracer.span("x") as sp:
            assert sp.duration is None
        assert sp.duration is not None and sp.duration >= 0.0

    def test_tags_and_to_dict(self):
        tracer = Tracer()
        with tracer.span("x", device="nvme", n=3) as sp:
            pass
        d = sp.to_dict()
        assert d["name"] == "x"
        assert d["tags"] == {"device": "nvme", "n": 3}
        assert d["duration"] == sp.duration

    def test_finished_ring_evicts_oldest(self):
        tracer = Tracer(max_spans=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [s.name for s in tracer.finished()]
        assert names == ["s6", "s7", "s8", "s9"]
        assert tracer.spans_started == 10

    def test_trace_filters_by_id(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        with tracer.span("other"):
            pass
        names = sorted(s.name for s in tracer.trace(root.trace_id))
        assert names == ["child", "root"]

    def test_clear_and_invalid_capacity(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.finished() == []
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


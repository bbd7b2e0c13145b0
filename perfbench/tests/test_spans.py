"""Span recording and the self-time arithmetic."""

import pytest

from perfbench.spans import Tracer, nesting_errors, op_ids, self_times


def test_self_time_subtracts_direct_children_only():
    # op 0: A [0,100] holds B [10,40], which holds C [15,25];
    #       D [50,90] is B's sibling under A.
    # op 1: E [100,130] has no children.
    start = [0, 10, 15, 50, 100]
    end = [100, 40, 25, 90, 130]
    parent = [-1, 0, 1, 0, -1]
    own = self_times(start, end, parent)
    assert own.tolist() == [30, 20, 10, 40, 30]
    assert own.sum() == (100 - 0) + (130 - 100)


def test_nesting_errors_finds_spans_that_do_not_nest():
    start = [0, 10, 15, 50, 100]
    end = [100, 40, 25, 90, 130]
    parent = [-1, 0, 1, 0, -1]
    assert nesting_errors(start, end, parent) == 0
    # C ends after its parent B.
    assert nesting_errors(start, [100, 40, 45, 90, 130], parent) == 1
    # D starts before its sibling B has ended.
    assert nesting_errors([0, 10, 15, 30, 100], end, parent) == 1
    # E, the second root, starts before the first root has ended.
    assert nesting_errors([0, 10, 15, 50, 95], end, parent) == 1
    # A span that ends before it starts.
    assert nesting_errors(start, [100, 40, 25, 90, 99], parent) == 1


def test_op_ids_follow_the_roots():
    assert op_ids([-1, 0, 1, 0, -1, 4]).tolist() == [0, 0, 0, 0, 1, 1]


class _Toy:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return sum(range(100))


def test_patched_calls_nest_and_the_patches_come_off():
    originals = dict(_Toy.__dict__)
    tracer = Tracer()
    tracer.patch(_Toy, "outer", "toy.outer")
    tracer.patch(_Toy, "inner", "toy.inner")
    toy = _Toy()
    assert toy.outer() == "done"
    toy.outer()
    tracer.restore()
    assert _Toy.__dict__["outer"] is originals["outer"]
    assert _Toy.__dict__["inner"] is originals["inner"]

    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name"]] == ["toy.outer", "toy.inner", "toy.inner"] * 2
    assert spans["parent"].tolist() == [-1, 0, 0, -1, 3, 3]
    assert spans["op"].tolist() == [0, 0, 0, 1, 1, 1]
    assert nesting_errors(spans["start"], spans["end"], spans["parent"]) == 0
    own = self_times(spans["start"], spans["end"], spans["parent"])
    assert (own >= 0).all()


def test_a_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    spans = tracer.arrays()  # raises while a span is still open
    assert spans["end"][0] >= spans["start"][0]

"""Self-time arithmetic and span nesting of the trace recorder."""
import numpy as np

from tracing import Recorder, self_times


def test_self_time_subtracts_children_but_not_grandchildren():
    #   0: [0, 100)  root
    #   1: [10, 40)  child of 0
    #   2: [20, 30)  child of 1 (grandchild of 0)
    #   3: [50, 90)  child of 0
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]


def test_overlapping_children_are_covered_once():
    # children [10, 50) and [30, 70) cover [10, 70) together: 60, not 80
    start = [0, 10, 30]
    end = [100, 50, 70]
    parent = [-1, 0, 0]
    assert self_times(start, end, parent).tolist() == [40, 40, 40]


def test_children_are_clipped_to_their_parent():
    # a child overhanging its parent covers only the shared interval
    start = [0, 80, 5]
    end = [100, 130, 10]
    parent = [-1, 0, -1]
    assert self_times(start, end, parent).tolist() == [80, 50, 5]


def test_sibling_groups_do_not_leak_into_each_other():
    # two parents whose children would overlap if the groups were merged
    start = [0, 0, 10, 10, 20]
    end = [100, 100, 90, 90, 30]
    parent = [-1, -1, 0, 1, 1]
    assert self_times(start, end, parent).tolist() == [20, 20, 80, 80, 10]


def test_leaf_spans_keep_their_duration():
    assert self_times([5, 7], [9, 8], [-1, -1]).tolist() == [4, 1]


def test_wrapped_calls_record_parent_and_operation():
    rec = Recorder()
    inner = rec.wrap("lib.inner", lambda x: x + 1)
    outer = rec.wrap("lib.outer", lambda x: inner(x) * 2,
                     info=lambda x: {"items": x})
    rec.op_id = 7
    assert outer(3) == 8
    assert rec.names == ["lib.outer", "lib.inner"]
    assert list(rec.parent) == [-1, 0]
    assert list(rec.op) == [7, 7]
    assert rec.info == {0: {"items": 3}}
    start, end, parent = rec.arrays()
    assert np.all(end >= start)
    own = self_times(start, end, parent)
    assert own[0] == (end[0] - start[0]) - (end[1] - start[1])


def test_span_closes_when_the_call_raises():
    rec = Recorder()

    def boom():
        raise ValueError("no")

    traced = rec.wrap("lib.boom", boom)
    try:
        traced()
    except ValueError:
        pass
    assert rec.stack == []
    assert rec.end[0] >= rec.start[0] > 0

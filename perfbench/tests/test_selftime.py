"""Self time, wait and the per-thread identity on hand-built spans."""

import pytest

from perfbench.selftime import attribute, merge_intervals, overlap

MAIN, WORKER, OTHER = 1, 2, 3


def span(sid, parent, tkey, layer, start, end, fold=None, name="call"):
    return {"sid": sid, "parent": parent, "tkey": tkey, "layer": layer,
            "name": name, "start": start, "end": end, "fold": fold or {}, "units": 0}


def root(sid, tkey, start, end, parent=None):
    return span(sid, parent, tkey, "trace", start, end, name="trace.root")


def assert_identity(attr):
    layers = sum(attr.layer_self.values())
    assert layers + attr.unaccounted_s == pytest.approx(attr.wall_s)
    assert all(abs(r) < 1e-9 for r in attr.residuals.values())


def test_intervals_merge_and_overlap():
    merged = merge_intervals([(3, 4), (0, 1), (0.5, 2), (5, 5)])
    assert merged == [(0, 2), (3, 4)]
    assert overlap(merged, [(1, 3.5)]) == pytest.approx(1.5)


def test_nested_children_on_one_thread():
    attr = attribute([
        root(1, MAIN, 0, 10),
        span(2, 1, MAIN, "a", 1, 4),
        span(3, 2, MAIN, "b", 2, 3),
    ])
    assert attr.layer_self["a"] == pytest.approx(2)
    assert attr.layer_self["b"] == pytest.approx(1)
    assert attr.unaccounted_s == pytest.approx(7)
    assert attr.wait_s == 0
    assert_identity(attr)


def test_cross_thread_child_is_wait_not_self():
    attr = attribute([
        root(1, MAIN, 0, 10),
        span(2, 1, MAIN, "supervisor", 1, 9),
        root(3, WORKER, 2, 8, parent=2),
        span(4, 3, WORKER, "transport", 3, 7),
    ])
    assert attr.layer_self["supervisor"] == pytest.approx(2)
    assert attr.wait_s == pytest.approx(6)
    assert attr.layer_self["transport"] == pytest.approx(4)
    # main root gaps 2 + wait 6 + worker root gaps 2
    assert attr.unaccounted_s == pytest.approx(10)
    assert attr.wall_s == pytest.approx(16)
    assert_identity(attr)


def test_cross_process_children_overlap_and_are_clipped():
    attr = attribute([
        root(1, MAIN, 0, 10),
        span(2, 1, MAIN, "campaign", 1, 9),
        root(3, WORKER, 2, 8, parent=2),
        root(4, OTHER, 3, 9.5, parent=2),  # outlives its parent span
        span(5, 3, WORKER, "net", 2.5, 7.5),
        span(6, 4, OTHER, "net", 3.5, 9.0),
    ])
    assert attr.layer_self["campaign"] == pytest.approx(8 - 7)
    assert attr.wait_s == pytest.approx(7)
    assert attr.layer_self["net"] == pytest.approx(5 + 5.5)
    assert attr.residuals[WORKER] == pytest.approx(0)
    assert attr.residuals[OTHER] == pytest.approx(0)
    assert_identity(attr)


def test_folded_leaves_count_for_their_own_layer():
    attr = attribute([
        root(1, MAIN, 0, 12),
        span(2, 1, MAIN, "platform", 1, 11, fold={"net|ping": [100, 3.0, 100]}),
        span(3, 2, MAIN, "fsim", 2, 3),
    ])
    assert attr.layer_self["platform"] == pytest.approx(10 - 1 - 3)
    assert attr.layer_self["net"] == pytest.approx(3)
    assert attr.calls["net|ping"] == 100
    assert attr.units["net|ping"] == 100
    assert_identity(attr)


def test_fold_is_taken_before_wait_when_they_overlap():
    attr = attribute([
        root(1, MAIN, 0, 10, ),
        span(2, 1, MAIN, "s", 0, 10, fold={"leaf|f": [1, 3.0, 0]}),
        root(3, WORKER, 1, 9, parent=2),
    ])
    assert attr.layer_self["leaf"] == pytest.approx(3)
    assert attr.layer_self["s"] == pytest.approx(0)
    assert attr.wait_s == pytest.approx(7)
    assert_identity(attr)


def test_durations_and_calls_per_name():
    attr = attribute([
        root(1, MAIN, 0, 10),
        span(2, 1, MAIN, "atlas.transport", 1, 2, name="Transport.results"),
        span(3, 1, MAIN, "atlas.transport", 3, 6, name="Transport.results"),
    ])
    assert attr.calls["atlas.transport|Transport.results"] == 2
    assert attr.durations["atlas.transport|Transport.results"] == [1, 3]
    assert attr.seconds["atlas.transport|Transport.results"] == pytest.approx(4)

"""The recorder: stacks, leaf folding, thread links, fork spools, patches."""

import os
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench.selftime import attribute
from perfbench.spans import Patches, Recorder, activate, traced_executor


def by_name(records):
    return {record["name"]: record for record in records}


def test_spans_record_only_inside_a_root():
    recorder = Recorder()
    work = recorder.span(lambda: 7, "layer", "work")
    assert work() == 7
    assert recorder.records() == []
    with recorder.root():
        assert work() == 7
    names = by_name(recorder.records())
    assert names["work"]["parent"] == names["trace.root"]["sid"]


def test_nested_spans_link_to_their_caller():
    recorder = Recorder()
    inner = recorder.span(lambda: None, "b", "inner")
    outer = recorder.span(lambda: inner(), "a", "outer")
    with recorder.root():
        outer()
    names = by_name(recorder.records())
    assert names["inner"]["parent"] == names["outer"]["sid"]
    assert names["outer"]["start"] <= names["inner"]["start"]
    assert names["inner"]["end"] <= names["outer"]["end"]


def test_leaf_calls_fold_into_the_enclosing_span():
    recorder = Recorder()
    nested = recorder.leaf(lambda: None, "frame", "nested")
    ping = recorder.leaf(lambda n: nested() or n, "net", "ping", units=lambda a, k, r: r)
    window = recorder.span(lambda: [ping(3) for _ in range(1000)], "platform", "window")
    with recorder.root():
        window()
    records = recorder.records()
    assert [r["name"] for r in records] == ["trace.root", "window"]
    calls, seconds, units = by_name(records)["window"]["fold"]["net|ping"]
    assert (calls, units) == (1000, 3000)
    assert seconds > 0
    # Calls inside a leaf are not timed on their own.
    assert "frame|nested" not in by_name(records)["window"]["fold"]


def test_leaf_that_raises_still_folds():
    recorder = Recorder()

    def broken():
        raise ValueError("boom")

    leaf = recorder.leaf(broken, "atlas.results", "get")
    with recorder.root() as top:
        with pytest.raises(ValueError):
            leaf()
        assert top[7]["atlas.results|get"][0] == 1
        # The failed call left the thread able to fold the next one.
        assert recorder.leaf(lambda: 1, "x", "ok")() == 1
        assert top[7]["x|ok"][0] == 1


def test_thread_pool_tasks_become_roots_linked_to_the_submitter():
    recorder = Recorder()
    executor = traced_executor(recorder)
    work = recorder.span(lambda: time.sleep(0.01), "transport", "fetch")

    def run_round():
        with executor(max_workers=2) as pool:
            futures = [pool.submit(work) for _ in range(2)]
            return [future.result() for future in futures]

    supervise = recorder.span(run_round, "supervisor", "collect_into")
    with recorder.root():
        supervise()
    records = recorder.records()
    submitter = by_name(records)["collect_into"]
    roots = [r for r in records if r["name"] == "trace.thread"]
    assert len(roots) == 2
    assert all(r["parent"] == submitter["sid"] for r in roots)
    assert all(r["tkey"] != submitter["tkey"] for r in roots)
    fetches = [r for r in records if r["name"] == "fetch"]
    assert {f["parent"] for f in fetches} == {r["sid"] for r in roots}
    attr = attribute(records)
    assert attr.wait_s > 0.005
    assert all(abs(r) < 1e-9 for r in attr.residuals.values())


def test_untraced_submitters_leave_tasks_alone():
    recorder = Recorder()
    with traced_executor(recorder)(max_workers=1) as pool:
        assert pool.submit(lambda: 5).result() == 5
    assert recorder.records() == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_children_spool_spans_per_pid(tmp_path):
    recorder = Recorder(spool_dir=str(tmp_path))
    activate(recorder)
    work = recorder.span(lambda: time.sleep(0.01), "net", "synthesize")
    try:
        def fork_workers():
            pids = []
            for _ in range(2):
                pid = os.fork()
                if pid == 0:
                    work()
                    work()
                    os._exit(0)  # no cleanup, like a real worker
                pids.append(pid)
            for pid in pids:
                assert os.waitpid(pid, 0)[1] == 0
            return pids

        collect = recorder.span(fork_workers, "campaign", "collect")
        with recorder.root():
            pids = collect()
    finally:
        activate(None)
    assert sorted(os.listdir(tmp_path)) == sorted(f"{pid}.jsonl" for pid in pids)
    records = recorder.records()
    collect_span = by_name(records)["collect"]
    process_roots = [r for r in records if r["name"] == "trace.process"]
    assert len(process_roots) == 2
    assert all(r["parent"] == collect_span["sid"] for r in process_roots)
    children = [r for r in records if r["name"] == "synthesize"]
    assert len(children) == 4
    assert {c["parent"] for c in children} == {r["sid"] for r in process_roots}
    # The parent's closed spans were not duplicated by the children.
    assert len([r for r in records if r["name"] == "trace.root"]) == 1
    attr = attribute(records)
    assert attr.layer_self["net"] >= 0.04
    assert attr.layer_self["campaign"] < collect_span["end"] - collect_span["start"]
    assert all(abs(r) < 1e-9 for r in attr.residuals.values())


class Target:
    def method(self, x):
        return ("method", x)

    @staticmethod
    def static(x):
        return ("static", x)

    @classmethod
    def klass(cls, x):
        return (cls.__name__, x)


def helper(x):
    return ("helper", x)


@pytest.fixture
def fake_package():
    package = types.ModuleType("fakepkg")
    defining = types.ModuleType("fakepkg.defining")
    user = types.ModuleType("fakepkg.user")
    defining.helper = helper
    user.helper = helper  # as `from fakepkg.defining import helper` would bind it
    user.alias = helper
    modules = {"fakepkg": package, "fakepkg.defining": defining, "fakepkg.user": user}
    sys.modules.update(modules)
    try:
        yield defining, user
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def test_patches_keep_descriptors_and_rebind_imports(fake_package):
    defining, user = fake_package
    recorder = Recorder()
    patches = Patches(package="fakepkg")

    def wrap(fn):
        return recorder.span(fn, "layer", fn.__name__)

    for name in ("method", "static", "klass"):
        patches.method(Target, name, wrap)
    assert patches.function(defining, "helper", wrap) == 3
    assert isinstance(Target.__dict__["static"], staticmethod)
    assert isinstance(Target.__dict__["klass"], classmethod)
    with recorder.root():
        assert Target().method(1) == ("method", 1)
        assert Target.static(2) == ("static", 2)
        assert Target().static(2) == ("static", 2)
        assert Target.klass(3) == ("Target", 3)
        assert user.helper(4) == ("helper", 4)
        assert user.alias(5) == ("helper", 5)
    names = [r["name"] for r in recorder.records() if r["layer"] == "layer"]
    assert names == ["method", "static", "static", "klass", "helper", "helper"]
    patches.restore()
    assert Target.__dict__["static"].__func__.__name__ == "static"
    assert user.helper is helper and user.alias is helper and defining.helper is helper


def test_installed_thread_pool_binding_is_restored():
    import concurrent.futures

    import repro.core.supervisor as supervisor
    from perfbench.layers import LAYERS, TARGETS, install

    patches = install(Recorder())
    try:
        assert supervisor.ThreadPoolExecutor is not concurrent.futures.ThreadPoolExecutor
        assert issubclass(supervisor.ThreadPoolExecutor, ThreadPoolExecutor)
    finally:
        patches.restore()
    assert supervisor.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
    assert len(LAYERS) == len(set(LAYERS)) and len(TARGETS) > len(LAYERS)

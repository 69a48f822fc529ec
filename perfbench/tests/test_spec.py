"""BENCHMARK.json matches the spec, and every name in it is well formed."""

import json
from pathlib import Path

import pytest

from perfbench import spec
from perfbench.metrics import layer_metrics
from perfbench.selftime import Attribution
from perfbench.workloads import QUERY_NAMES, WORKLOADS, queries

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name, ok", [
    ("setup_s", True),
    ("atlas.transport.window_s.p50", True),
    ("9lives", True),
    ("a" * 64, True),
    ("a" * 65, False),
    ("", False),
    ("-leading-dash", False),
    (".leading-dot", False),
    ("has space", False),
    ("slash/name", False),
    ("café", False),
])
def test_metric_name_validation(name, ok):
    assert spec.valid_name(name) is ok


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_spec_follows_the_contract():
    data = spec.benchmark_json()
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    assert all(spec.valid_name(name) for name in names)
    for metric in data["end_to_end"] + data["per_layer"]:
        assert spec.UNIT_RE.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in data["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])
    for workload in data["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w.name for w in spec.WORKLOADS] == list(WORKLOADS)
    assert 1 <= data["run_seconds"] <= 60 and len(json.dumps(data)) < 64 * 1024


def test_layer_metrics_produce_exactly_the_per_layer_names():
    metrics = layer_metrics(Attribution(), {}, {}, 0, 0, overhead_share=0.0)
    assert list(metrics) == [metric.name for metric in spec.PER_LAYER]


def test_every_layer_reports_its_self_time():
    from perfbench.layers import LAYERS

    names = {metric.name for metric in spec.PER_LAYER}
    assert {f"{layer}.self_s" for layer in LAYERS} <= names


def test_query_names_match_the_mix():
    class FakeScan:
        def filter(self, *predicate):
            return self

    assert tuple(name for name, _ in queries(FakeScan(), (0, 1))) == QUERY_NAMES

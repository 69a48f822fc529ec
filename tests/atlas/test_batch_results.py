"""Tests for the columnar result path — platform, transport, client.

The platform's ``results_columns`` must be bit-identical to fetching the
raw dict stream and parsing it sample by sample (``PingColumns.
from_results`` over parsed :class:`PingResult` objects is the parity
reference).  Under a fault injector the transport's columnar fetch must
serve what cleaning the mangled dict stream yields (``PingColumns.
from_raw`` over ``Transport.results``) with the same faults and retries,
and the client's ``columns()`` verb must report *why* a fetch has no
columnar path instead of raising.
"""

import itertools

import numpy as np
import pytest

from repro.atlas.api.client import AtlasResultsRequest
from repro.atlas.api.sources import AtlasSource
from repro.atlas.api.transport import Transport
from repro.atlas.faults import FaultProfile
import repro.atlas.platform as platform_module
from repro.atlas.platform import DEFAULT_KEY, AtlasPlatform
from repro.atlas.results.ping import PingColumns, PingResult
from repro.errors import ResultParseError
from repro.net.pathmodel import LatencyModel

T0 = 1_567_296_000
DAY = 86_400


@pytest.fixture(scope="module")
def backend() -> AtlasPlatform:
    return AtlasPlatform(seed=5)


def create(backend, msm_type="ping", af=4, oneoff=False, **definition) -> int:
    target = backend.hostname_for(backend.fleet[9])
    definition = {
        "target": target,
        "description": "test",
        "type": msm_type,
        "af": af,
        "is_oneoff": oneoff,
        **({"packets": 3, "size": 48} if msm_type == "ping" else {}),
        **({} if oneoff else {"interval": 10_800}),
        **definition,
    }
    return backend.create_measurement(
        definition,
        [AtlasSource(type="country", value="DE", requested=10)],
        T0,
        T0 + 2 * DAY,
        key=DEFAULT_KEY,
    )


def reference_columns(backend, msm_id, **window) -> PingColumns:
    """The scalar path, columnar-ized: fetch dicts, parse, stack."""
    raws = backend.results(msm_id, **window)
    return PingColumns.from_results([PingResult(raw) for raw in raws])


class TestPlatformColumns:
    def test_matches_scalar_parse_bitwise(self, backend):
        msm_id = create(backend)
        columns = backend.results_columns(msm_id)
        expected = reference_columns(backend, msm_id)
        assert len(columns) == len(expected) > 0
        assert np.array_equal(columns.probe_ids, expected.probe_ids)
        assert np.array_equal(columns.timestamps, expected.timestamps)
        assert np.array_equal(columns.rtt_min, expected.rtt_min, equal_nan=True)
        assert np.array_equal(columns.rtt_avg, expected.rtt_avg, equal_nan=True)
        assert np.array_equal(columns.sent, expected.sent)
        assert np.array_equal(columns.rcvd, expected.rcvd)

    def test_windowed_fetch_matches(self, backend):
        """A mid-flow window must skip the pre-window draws exactly as
        the scalar generator loop does."""
        msm_id = create(backend)
        window = {"start": T0 + DAY // 2, "stop": T0 + DAY + DAY // 2}
        columns = backend.results_columns(msm_id, **window)
        expected = reference_columns(backend, msm_id, **window)
        assert len(columns) == len(expected) > 0
        assert np.array_equal(columns.timestamps, expected.timestamps)
        assert np.array_equal(columns.rtt_min, expected.rtt_min, equal_nan=True)

    def test_probe_filter_matches(self, backend):
        msm_id = create(backend)
        wanted = backend.measurement(msm_id).probes[0].probe_id
        columns = backend.results_columns(msm_id, probe_ids=[wanted])
        assert len(columns) > 0
        assert set(columns.probe_ids) == {wanted}
        expected = reference_columns(backend, msm_id, probe_ids=[wanted])
        assert np.array_equal(columns.rtt_min, expected.rtt_min, equal_nan=True)

    def test_ipv6_flow_matches(self, backend):
        msm_id = create(backend, af=6)
        columns = backend.results_columns(msm_id)
        expected = reference_columns(backend, msm_id)
        assert np.array_equal(columns.rtt_min, expected.rtt_min, equal_nan=True)

    def test_oneoff_matches(self, backend):
        msm_id = create(backend, oneoff=True)
        columns = backend.results_columns(msm_id)
        expected = reference_columns(backend, msm_id)
        assert len(columns) == len(expected) > 0
        assert np.array_equal(columns.rtt_min, expected.rtt_min, equal_nan=True)

    def test_traceroute_has_no_batch_path(self, backend):
        msm_id = create(backend, msm_type="traceroute", oneoff=True)
        assert not backend.supports_batch(msm_id)
        assert backend.results_columns(msm_id) is None

    def test_deterministic(self, backend):
        msm_id = create(backend)
        first = backend.results_columns(msm_id)
        second = backend.results_columns(msm_id)
        assert np.array_equal(first.rtt_min, second.rtt_min, equal_nan=True)

    def test_columnar_fetch_leaves_scalar_stream_untouched(self, backend):
        """Interleaving columnar and scalar fetches must not perturb
        either: flow streams are derived per call, never shared."""
        msm_id = create(backend)
        before = backend.results(msm_id)
        backend.results_columns(msm_id)
        assert backend.results(msm_id) == before


def composed_rows(monkeypatch):
    """Wrap ``LatencyModel.ping_batch``: the rows each call composes."""
    calls = []
    original = LatencyModel.ping_batch

    def counting(self, *args, **kwargs):
        batch = original(self, *args, **kwargs)
        calls.append(len(batch.rtt_min))
        return batch

    monkeypatch.setattr(LatencyModel, "ping_batch", counting)
    return calls


def columns_bytes(columns: PingColumns) -> bytes:
    return b"".join(
        getattr(columns, name).tobytes()
        for name in ("probe_ids", "timestamps", "rtt_min", "rtt_avg", "sent", "rcvd")
    )


class TestWindowSynthesis:
    def test_one_kernel_call_per_window(self, backend, monkeypatch):
        msm_id = create(backend)
        calls = composed_rows(monkeypatch)
        columns = backend.results_columns(msm_id)
        assert calls == [len(columns)]

    def test_prefix_is_drawn_not_composed(self, backend, monkeypatch):
        """A window starting mid-measurement composes exactly its own
        rows, and they are the tail of the full window, byte for byte."""
        msm_id = create(backend)
        full = backend.results_columns(msm_id)
        calls = composed_rows(monkeypatch)
        midpoint = T0 + DAY
        tail = backend.results_columns(msm_id, start=midpoint)
        assert sum(calls) == len(tail) > 0
        assert len(tail) < len(full)
        assert columns_bytes(tail) == columns_bytes(
            full.take(np.flatnonzero(full.timestamps >= midpoint))
        )

    def test_small_blocks_give_the_same_bytes(self, backend, monkeypatch):
        """Blocks of whole flows bound the kernel's working set without
        moving a bit."""
        msm_id = create(backend)
        window = {"start": T0 + DAY // 3}
        whole = backend.results_columns(msm_id, **window)
        monkeypatch.setattr(platform_module, "KERNEL_BLOCK_ROWS", 40)
        calls = composed_rows(monkeypatch)
        blocked = backend.results_columns(msm_id, **window)
        assert len(calls) > 1 and max(calls) <= 40
        assert columns_bytes(blocked) == columns_bytes(whole)

    def test_a_flow_longer_than_a_block_is_its_own_block(self, backend, monkeypatch):
        msm_id = create(backend)
        whole = backend.results_columns(msm_id)
        monkeypatch.setattr(platform_module, "KERNEL_BLOCK_ROWS", 1)
        calls = composed_rows(monkeypatch)
        blocked = backend.results_columns(msm_id)
        _, first, per_flow = np.unique(
            whole.probe_ids, return_index=True, return_counts=True
        )
        assert calls == per_flow[np.argsort(first)].tolist()
        assert columns_bytes(blocked) == columns_bytes(whole)


class TestPingColumnsContainer:
    def test_ragged_rejected(self):
        with pytest.raises(ResultParseError):
            PingColumns(
                probe_ids=np.zeros(2, dtype=np.int64),
                timestamps=np.zeros(1, dtype=np.int64),
                rtt_min=np.zeros(2),
                rtt_avg=np.zeros(2),
                sent=np.zeros(2, dtype=np.int64),
                rcvd=np.zeros(2, dtype=np.int64),
            )


def assert_columns_equal(actual: PingColumns, expected: PingColumns) -> None:
    assert len(actual) == len(expected)
    assert np.array_equal(actual.probe_ids, expected.probe_ids)
    assert np.array_equal(actual.timestamps, expected.timestamps)
    assert np.array_equal(actual.rtt_min, expected.rtt_min, equal_nan=True)
    assert np.array_equal(actual.rtt_avg, expected.rtt_avg, equal_nan=True)
    assert np.array_equal(actual.sent, expected.sent)
    assert np.array_equal(actual.rcvd, expected.rcvd)


#: Chaos levels the columnar fetch must replay; the last one duplicates
#: and corrupts every page, so corrupted originals meet their duplicates.
CHAOS = (
    "flaky",
    "hostile",
    FaultProfile(name="overlap", duplicate_page=1.0, malformed=1.0),
)


class TestTransportGate:
    def test_clean_transport_serves_columns(self, backend):
        msm_id = create(backend)
        transport = Transport(backend)
        window = transport.results_columns(msm_id)
        assert window is not None and len(window.columns) > 0
        assert (window.quarantined, window.duplicates) == (0, 0)
        assert_columns_equal(window.columns, reference_columns(backend, msm_id))

    def test_chaos_transport_serves_oracle_columns(self, backend):
        """The columnar fetch replays the dict stream's page schedule:
        the same rows in the same order, the same cleaning counts, and
        the same faults and retries as cleaning ``results()``."""
        msm_id = create(backend)
        windows = ({}, {"start": T0 + DAY // 2, "stop": T0 + DAY})
        for profile, window in itertools.product(CHAOS, windows):
            dicts = Transport(backend, faults=profile, page_size=7)
            columnar = Transport(backend, faults=profile, page_size=7)
            expected = PingColumns.from_raw(dicts.results(msm_id, **window))
            served = columnar.results_columns(msm_id, **window)
            assert_columns_equal(served.columns, expected.columns)
            assert served.quarantined == expected.quarantined
            assert served.duplicates == expected.duplicates
            assert columnar.stats() == dicts.stats()

    def test_chaos_empty_window_costs_one_page_call(self, backend):
        """An empty window still makes its one (empty) page call, so the
        fault schedule of the windows that follow is unchanged."""
        msm_id = create(backend)
        empty = {"start": T0 + 5 * DAY, "stop": T0 + 6 * DAY}
        dicts = Transport(backend, faults="hostile")
        columnar = Transport(backend, faults="hostile")
        assert dicts.results(msm_id, **empty) == []
        served = columnar.results_columns(msm_id, **empty)
        assert len(served.columns) == 0
        assert columnar.stats() == dicts.stats()


class TestClientColumns:
    def test_columns_verb(self, backend):
        msm_id = create(backend)
        ok, columns = AtlasResultsRequest(msm_id=msm_id, platform=backend).columns()
        assert ok
        expected = reference_columns(backend, msm_id)
        assert np.array_equal(columns.rtt_min, expected.rtt_min, equal_nan=True)

    def test_columns_reports_fallback_reason(self, backend):
        msm_id = create(backend, msm_type="traceroute", oneoff=True)
        request = AtlasResultsRequest(
            msm_id=msm_id, transport=Transport(backend, faults="flaky")
        )
        ok, payload = request.columns()
        assert not ok
        assert "error" in payload

    def test_columns_verb_under_chaos(self, backend):
        msm_id = create(backend)
        transport = Transport(backend, faults="hostile", page_size=7)
        ok, columns = AtlasResultsRequest(msm_id=msm_id, transport=transport).columns()
        assert ok
        expected = PingColumns.from_raw(
            Transport(backend, faults="hostile", page_size=7).results(msm_id)
        )
        assert_columns_equal(columns, expected.columns)

    def test_columns_unknown_measurement(self, backend):
        ok, payload = AtlasResultsRequest(msm_id=999_999, platform=backend).columns()
        assert not ok
        assert "error" in payload

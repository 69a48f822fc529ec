"""Tests for repro.atlas.platform — the simulated backend."""

import pytest

from repro.atlas.api.sources import AtlasSource
from repro.atlas.credits import CreditAccount
from repro.atlas.platform import DEFAULT_KEY, AtlasPlatform
from repro.errors import (
    AtlasAPIError,
    MeasurementNotFoundError,
    QuotaExceededError,
)

T0 = 1_567_296_000
DAY = 86_400


@pytest.fixture(scope="module")
def backend() -> AtlasPlatform:
    return AtlasPlatform(seed=5)


def make_ping_definition(backend, interval=10_800, packets=3, oneoff=False) -> dict:
    target = backend.hostname_for(backend.fleet[9])
    definition = {
        "target": target,
        "description": "test",
        "type": "ping",
        "af": 4,
        "is_oneoff": oneoff,
        "packets": packets,
        "size": 48,
    }
    if not oneoff:
        definition["interval"] = interval
    return definition


def create(backend, **kwargs) -> int:
    sources = kwargs.pop(
        "sources", [AtlasSource(type="country", value="DE", requested=10)]
    )
    return backend.create_measurement(
        make_ping_definition(backend, **kwargs.pop("definition_kwargs", {})),
        sources,
        kwargs.pop("start", T0),
        kwargs.pop("stop", T0 + 2 * DAY),
        key=kwargs.pop("key", DEFAULT_KEY),
    )


class TestTargets:
    def test_hostname_resolution(self, backend):
        vm = backend.fleet[0]
        assert backend.resolve_target(backend.hostname_for(vm)) is vm

    def test_address_resolution(self, backend):
        vm = backend.fleet[0]
        assert backend.resolve_target(vm.address) is vm

    def test_unknown_target(self, backend):
        with pytest.raises(AtlasAPIError):
            backend.resolve_target("example.com")


class TestMeasurementLifecycle:
    def test_create_and_metadata(self, backend):
        msm_id = create(backend)
        msm = backend.measurement(msm_id)
        assert msm.measurement_type == "ping"
        assert len(msm.probes) == 10
        payload = msm.as_api_dict()
        assert payload["id"] == msm_id
        assert payload["participant_count"] == 10

    def test_unknown_measurement(self, backend):
        with pytest.raises(MeasurementNotFoundError):
            backend.measurement(999_999)

    def test_stop(self, backend):
        msm_id = create(backend)
        backend.stop_measurement(msm_id)
        assert backend.measurement(msm_id).status == "Stopped"

    def test_stop_wrong_key(self, backend):
        msm_id = create(backend)
        with pytest.raises(AtlasAPIError):
            backend.stop_measurement(msm_id, key="SOMEONE-ELSE")

    def test_invalid_window(self, backend):
        with pytest.raises(AtlasAPIError):
            create(backend, start=T0, stop=T0)

    def test_invalid_key(self, backend):
        with pytest.raises(AtlasAPIError):
            create(backend, key="NOT-A-KEY")


class TestCharging:
    def test_periodic_charge_scales_with_duration(self):
        backend = AtlasPlatform(seed=6)
        account = backend.accounts[DEFAULT_KEY]
        before = account.balance
        create(backend)
        spent_two_days = before - account.balance
        before = account.balance
        create(backend, stop=T0 + 4 * DAY)
        spent_four_days = before - account.balance
        assert spent_four_days == pytest.approx(2 * spent_two_days, rel=0.05)

    def test_quota_enforced(self):
        backend = AtlasPlatform(seed=6)
        backend.register_account(CreditAccount(key="POOR", balance=10))
        with pytest.raises(QuotaExceededError):
            create(backend, key="POOR")

    def test_oneoff_charges_once(self):
        backend = AtlasPlatform(seed=6)
        account = backend.accounts[DEFAULT_KEY]
        before = account.balance
        backend.create_measurement(
            make_ping_definition(backend, oneoff=True),
            [AtlasSource(type="country", value="DE", requested=10)],
            T0,
            T0 + 60,
        )
        assert before - account.balance == 10 * 3  # probes x packets


class TestResults:
    def test_results_format(self, backend):
        msm_id = create(backend)
        results = backend.results(msm_id)
        assert results
        sample = results[0]
        assert sample["type"] == "ping"
        assert sample["msm_id"] == msm_id
        assert sample["sent"] == 3
        assert 0 <= sample["rcvd"] <= 3
        assert len(sample["result"]) == 3
        if sample["rcvd"] > 0:
            assert sample["min"] > 0

    def test_results_deterministic(self, backend):
        msm_id = create(backend)
        assert backend.results(msm_id) == backend.results(msm_id)

    def test_window_is_subset(self, backend):
        msm_id = create(backend)
        full = backend.results(msm_id)
        window = backend.results(msm_id, start=T0 + DAY, stop=T0 + 2 * DAY)
        full_keys = {(r["prb_id"], r["timestamp"]) for r in full}
        window_keys = {(r["prb_id"], r["timestamp"]) for r in window}
        assert window_keys <= full_keys
        assert all(T0 + DAY <= r["timestamp"] < T0 + 2 * DAY for r in window)

    def test_window_values_match_full_fetch(self, backend):
        """Windowing must not perturb the generated samples."""
        msm_id = create(backend)
        full = {
            (r["prb_id"], r["timestamp"]): r["min"]
            for r in backend.results(msm_id)
        }
        window = backend.results(msm_id, start=T0 + DAY)
        for r in window:
            assert full[(r["prb_id"], r["timestamp"])] == r["min"]

    def test_probe_filter(self, backend):
        msm_id = create(backend)
        msm = backend.measurement(msm_id)
        wanted = msm.probes[0].probe_id
        results = backend.results(msm_id, probe_ids=[wanted])
        assert results
        assert all(r["prb_id"] == wanted for r in results)

    def test_probes_spread_within_interval(self, backend):
        msm_id = create(backend)
        results = backend.results(msm_id)
        first_by_probe = {}
        for r in results:
            first_by_probe.setdefault(r["prb_id"], r["timestamp"])
        offsets = {t % 10_800 for t in first_by_probe.values()}
        assert len(offsets) > 1  # not all aligned to the interval boundary


class TestStopTruncation:
    def test_timed_stop_truncates_generation(self):
        backend = AtlasPlatform(seed=5)
        msm_id = create(backend)
        full = backend.results(msm_id)
        cutoff = T0 + DAY
        backend.stop_measurement(msm_id, at=cutoff)
        truncated = backend.results(msm_id)
        assert backend.measurement(msm_id).status == "Stopped"
        assert truncated
        assert all(r["timestamp"] < cutoff for r in truncated)
        # Everything generated before the stop is kept, byte for byte.
        assert truncated == [r for r in full if r["timestamp"] < cutoff]

    def test_expected_counts_shrink_with_stop(self):
        backend = AtlasPlatform(seed=5)
        msm_id = create(backend)
        msm = backend.measurement(msm_id)
        probe_id = msm.probes[0].probe_id
        before = backend.expected_result_count(msm_id, probe_id)
        backend.stop_measurement(msm_id, at=T0 + DAY)
        after = backend.expected_result_count(msm_id, probe_id)
        assert 0 < after < before
        assert backend.scheduled_tick_count(msm_id, probe_id) < before + after

    def test_tick_counts_equal_a_tick_walk(self):
        """One schedule pass counts what walking each probe's ticks does,
        for periodic, stopped and one-off measurements alike."""
        from dataclasses import replace

        from repro.atlas.probes import ProbeStatus

        base = AtlasPlatform(seed=5)
        probes = tuple(
            replace(probe, stability=0.6)
            for probe in base.filter_probes(country_code="DE")[:8]
        )
        backend = AtlasPlatform(seed=5, probes=probes, fleet=base.fleet)
        stopped = create(backend)
        backend.stop_measurement(stopped, at=T0 + DAY + 1_234)
        measurements = (
            create(backend), stopped, create(backend, definition_kwargs={"oneoff": True})
        )
        for msm_id in measurements:
            msm = backend.measurement(msm_id)
            # Source selection skips abandoned probes; put one on anyway.
            msm.probes += (replace(msm.probes[0], status=ProbeStatus.ABANDONED),)
            ids, scheduled, online = backend.tick_counts(msm_id)
            walk = [
                [probe.is_online(tick) for tick, _ in backend._tick_times(msm, probe)]
                for probe in msm.probes
            ]
            assert ids.tolist() == [probe.probe_id for probe in msm.probes]
            assert scheduled.tolist() == [len(ticks) for ticks in walk]
            assert online.tolist() == [sum(ticks) for ticks in walk]

    def test_untimed_stop_cancels_outright(self):
        backend = AtlasPlatform(seed=5)
        msm_id = create(backend)
        backend.stop_measurement(msm_id)
        assert backend.results(msm_id) == []
        assert backend.measurement(msm_id).effective_stop_time == T0

    def test_repeated_stops_only_move_earlier(self):
        backend = AtlasPlatform(seed=5)
        msm_id = create(backend)
        backend.stop_measurement(msm_id, at=T0 + DAY)
        backend.stop_measurement(msm_id, at=T0 + 2 * DAY)  # later: ignored
        assert backend.measurement(msm_id).effective_stop_time == T0 + DAY
        backend.stop_measurement(msm_id, at=T0 + DAY // 2)
        assert backend.measurement(msm_id).effective_stop_time == T0 + DAY // 2

    def test_stop_before_start_clamps_to_start(self):
        backend = AtlasPlatform(seed=5)
        msm_id = create(backend)
        backend.stop_measurement(msm_id, at=T0 - DAY)
        assert backend.measurement(msm_id).effective_stop_time == T0


class TestWindowIndependence:
    def test_split_windows_equal_full_fetch_with_flaky_probes(self):
        """Concatenated windows == one fetch, even for churn-heavy probes.

        Offline ticks must not consume RNG (they are skipped identically
        whatever the query window), so windowing never perturbs samples —
        the invariant resumable collection rests on.
        """
        from dataclasses import replace

        base = AtlasPlatform(seed=5)
        flaky_probes = tuple(
            replace(probe, stability=0.5)
            for probe in base.filter_probes(country_code="DE")[:8]
        )
        backend = AtlasPlatform(seed=5, probes=flaky_probes, fleet=base.fleet)
        msm_id = create(backend, stop=T0 + 4 * DAY)

        probe_ids = [p.probe_id for p in backend.measurement(msm_id).probes]
        churned = sum(
            backend.scheduled_tick_count(msm_id, pid)
            - backend.expected_result_count(msm_id, pid)
            for pid in probe_ids
        )
        assert churned > 0  # the property is exercised on offline ticks

        full = backend.results(msm_id)
        split = []
        edges = [T0, T0 + DAY, T0 + 2 * DAY + 5_000, T0 + 3 * DAY, T0 + 4 * DAY]
        for lo, hi in zip(edges, edges[1:]):
            split.extend(backend.results(msm_id, start=lo, stop=hi))
        key = lambda r: (r["prb_id"], r["timestamp"])
        assert sorted(split, key=key) == sorted(full, key=key)
        # Sample values, not just keys, are window-independent.
        assert {key(r): r["min"] for r in split} == {
            key(r): r["min"] for r in full
        }


class TestTraceroute:
    def test_traceroute_results(self, backend):
        target = backend.hostname_for(backend.fleet[9])
        definition = {
            "target": target,
            "type": "traceroute",
            "af": 4,
            "protocol": "ICMP",
            "interval": 21_600,
            "paris": 16,
        }
        msm_id = backend.create_measurement(
            definition,
            [AtlasSource(type="country", value="DE", requested=3)],
            T0,
            T0 + DAY,
        )
        results = backend.results(msm_id)
        assert results
        sample = results[0]
        assert sample["type"] == "traceroute"
        hops = sample["result"]
        assert hops[0]["hop"] == 1
        assert hops == sorted(hops, key=lambda h: h["hop"])

    def test_unsupported_type_rejected(self, backend):
        definition = {"target": backend.fleet[0].address, "type": "dns", "af": 4}
        with pytest.raises(AtlasAPIError):
            backend.create_measurement(
                definition,
                [AtlasSource(type="country", value="DE", requested=1)],
                T0,
                T0 + DAY,
            )


class TestProbeDirectory:
    def test_probe_lookup(self, backend):
        probe = backend.probes[0]
        assert backend.probe(probe.probe_id) is probe

    def test_unknown_probe(self, backend):
        with pytest.raises(AtlasAPIError):
            backend.probe(1)

    def test_filter_by_country_and_tags(self, backend):
        german_lte = backend.filter_probes(country_code="DE", tags=["lte"])
        assert german_lte
        for probe in german_lte:
            assert probe.country_code == "DE"
            assert "lte" in probe.tags

    def test_filter_anchors(self, backend):
        anchors = backend.filter_probes(is_anchor=True)
        assert anchors
        assert all(p.is_anchor for p in anchors)

"""Tests for repro.core.completeness and the platform accounting it uses."""

from collections import Counter

import numpy as np
import pytest

from repro.core.completeness import completeness_frame, fleet_summary
from repro.errors import AtlasAPIError, CampaignError


@pytest.fixture(scope="module")
def accounting(tiny_campaign, tiny_dataset):
    return completeness_frame(tiny_campaign, tiny_dataset)


class TestPlatformAccounting:
    def test_expected_never_exceeds_scheduled(self, tiny_campaign):
        platform = tiny_campaign.platform
        msm_id = tiny_campaign.measurement_ids[0]
        msm = platform.measurement(msm_id)
        for probe in msm.probes[:10]:
            expected = platform.expected_result_count(msm_id, probe.probe_id)
            scheduled = platform.scheduled_tick_count(msm_id, probe.probe_id)
            assert 0 <= expected <= scheduled

    def test_unknown_probe_rejected(self, tiny_campaign):
        platform = tiny_campaign.platform
        msm_id = tiny_campaign.measurement_ids[0]
        absent = next(
            p.probe_id
            for p in platform.probes
            if all(p.probe_id != q.probe_id
                   for q in platform.measurement(msm_id).probes)
        )
        with pytest.raises(AtlasAPIError):
            platform.expected_result_count(msm_id, absent)

    def test_list_measurements(self, tiny_campaign):
        platform = tiny_campaign.platform
        listed = platform.list_measurements(key=tiny_campaign.api_key)
        assert len(listed) == len(tiny_campaign.measurement_ids)
        assert platform.list_measurements(measurement_type="traceroute") == []


class TestCompletenessFrame:
    def test_counts_equal_a_tick_walk(self, accounting, tiny_campaign):
        """Scheduled and expected counts are the per-probe walk over
        every measurement's ticks and the probe's online rule."""
        platform = tiny_campaign.platform
        scheduled, expected = Counter(), Counter()
        for msm_id in tiny_campaign.measurement_ids:
            msm = platform.measurement(msm_id)
            for probe in msm.probes:
                for tick, _timestamp in platform._tick_times(msm, probe):
                    scheduled[probe.probe_id] += 1
                    expected[probe.probe_id] += probe.is_online(tick)
        probe_ids = sorted(scheduled)
        assert accounting["probe_id"].tolist() == probe_ids
        assert accounting["scheduled"].tolist() == [scheduled[p] for p in probe_ids]
        assert accounting["expected"].tolist() == [expected[p] for p in probe_ids]
        assert sum(expected.values()) < sum(scheduled.values())

    def test_delivery_matches_expectation_exactly(self, accounting):
        """The simulator's delivery is deterministic: every online tick
        produces a result, so completeness is exactly 1.0."""
        assert all(value == pytest.approx(1.0) for value in accounting["completeness"])

    def test_uptime_tracks_stability(self, accounting):
        uptimes = accounting["uptime"].astype(float)
        stabilities = accounting["stability"].astype(float)
        # Positively correlated: churn is driven by the stability field.
        # (At TINY scale each probe has only 8 scheduled ticks per
        # measurement, so uptime is quantized to eighths, capping the
        # achievable correlation.)
        correlation = np.corrcoef(uptimes, stabilities)[0, 1]
        assert correlation > 0.3

    def test_requires_run_campaign(self, tiny_dataset):
        from repro.core.campaign import Campaign, CampaignScale

        fresh = Campaign.from_paper(scale=CampaignScale.TINY, seed=55)
        with pytest.raises(CampaignError):
            completeness_frame(fresh, tiny_dataset)


class TestFleetSummary:
    def test_rates(self, accounting):
        summary = fleet_summary(accounting)
        assert summary["delivery_rate"] == pytest.approx(1.0)
        assert 0.85 <= summary["uptime_rate"] <= 1.0

    def test_wireless_probes_flakier(self, accounting):
        summary = fleet_summary(accounting)
        assert summary["wireless_uptime"] < summary["wired_uptime"]

    def test_collection_stats_folded_in(self, accounting, tiny_campaign):
        summary = fleet_summary(accounting, stats=tiny_campaign.collection_stats)
        assert summary["quarantined"] == 0.0
        assert summary["duplicates_dropped"] == 0.0
        assert summary["interruptions"] == 0.0
        assert summary["quarantine_share"] == 0.0


class TestCollectionHealth:
    def test_report_shape(self, tiny_campaign):
        from repro.core.completeness import collection_health

        health = collection_health(tiny_campaign)
        # Stats accumulate across collect() calls, so other tests sharing
        # the session fixture can only grow them past the initial run.
        assert health["samples_appended"] >= tiny_campaign.run_dataset.num_samples
        assert health["measurements_collected"] >= len(
            tiny_campaign.measurement_ids
        )
        assert health["quarantined"] == 0
        assert health["transport"]["profile"] == "none"
        assert health["transport"]["retries"] == 0


class TestHealthReport:
    def test_collection_always_present(self, tiny_campaign):
        from repro.core.completeness import collection_health, health_report

        report = health_report(tiny_campaign)
        assert set(report) == {"collection"}
        assert report["collection"] == collection_health(tiny_campaign)

    def test_fleet_embedded_when_dataset_given(self, tiny_campaign, tiny_dataset):
        from repro.core.completeness import health_report

        report = health_report(tiny_campaign, tiny_dataset)
        assert "fleet" in report
        assert report["fleet"]["delivery_rate"] == pytest.approx(1.0)
        # The session campaign is uninstrumented: no metrics section.
        assert "metrics" not in report

    def test_metrics_embedded_for_instrumented_campaign(self):
        from repro.core.campaign import Campaign, CampaignScale
        from repro.core.completeness import health_report
        from repro.obs import Obs

        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=7, obs=Obs())
        dataset = campaign.run()
        report = health_report(campaign, dataset)
        assert set(report) == {"collection", "fleet", "metrics"}
        counters = report["metrics"]["counters"]
        assert counters["dataset_samples_appended_total"] == len(dataset)

    def test_report_is_json_serializable(self, tiny_campaign, tiny_dataset):
        import json

        from repro.core.completeness import health_report

        text = json.dumps(
            health_report(tiny_campaign, tiny_dataset), sort_keys=True, default=float
        )
        assert json.loads(text)["collection"]["transport"]["profile"] == "none"

"""Tests for repro.core.campaign."""

import numpy as np
import pytest

from repro.atlas.api.retry import RetryPolicy
from repro.atlas.api.transport import Transport
from repro.atlas.credits import CreditAccount
from repro.atlas.platform import AtlasPlatform
from repro.constants import CAMPAIGN_START_TS
from repro.core.campaign import Campaign, CampaignScale, CollectionCheckpoint
from repro.errors import CampaignError, CollectionInterruptedError
from repro.net.pathmodel import LatencyModel


class TestScales:
    def test_full_matches_paper_methodology(self):
        full = CampaignScale.FULL
        assert full.interval_s == 3 * 3600
        assert full.duration_days == 273  # nine months
        assert full.probe_fraction == 1.0

    def test_vantage_count_floor(self):
        assert CampaignScale.TINY.vantage_count(1) == 1
        assert CampaignScale.TINY.vantage_count(420) == 1

    def test_vantage_count_proportional(self):
        assert CampaignScale.SMALL.vantage_count(420) == 52 or \
            CampaignScale.SMALL.vantage_count(420) == 53
        assert CampaignScale.FULL.vantage_count(420) == 420


class TestPlanning:
    def test_plan_covers_every_probe_country(self, tiny_campaign):
        plan = tiny_campaign.plan
        total = plan.total_vantage_points
        assert total == 166  # one per probed country at TINY

    def test_af_probes_target_eu(self, tiny_campaign):
        eu_vm = next(
            vm for vm in tiny_campaign.platform.fleet if vm.region.continent == "EU"
        )
        ids = tiny_campaign._vantage_ids_for_target(eu_vm)
        continents = {
            tiny_campaign.platform.probe(pid).continent for pid in ids
        }
        assert continents == {"EU", "AF"}

    def test_sa_probes_target_na(self, tiny_campaign):
        na_vm = next(
            vm for vm in tiny_campaign.platform.fleet if vm.region.continent == "NA"
        )
        ids = tiny_campaign._vantage_ids_for_target(na_vm)
        continents = {
            tiny_campaign.platform.probe(pid).continent for pid in ids
        }
        assert continents == {"NA", "SA"}

    def test_na_probes_stay_home(self, tiny_campaign):
        as_vm = next(
            vm for vm in tiny_campaign.platform.fleet if vm.region.continent == "AS"
        )
        ids = tiny_campaign._vantage_ids_for_target(as_vm)
        continents = {
            tiny_campaign.platform.probe(pid).continent for pid in ids
        }
        assert continents == {"AS"}


class TestExecution:
    def test_one_measurement_per_region(self, tiny_campaign):
        assert len(tiny_campaign.measurement_ids) == 101

    def test_double_create_idempotent(self, tiny_campaign):
        """Re-running create_measurements must not duplicate measurements."""
        ids_before = list(tiny_campaign.measurement_ids)
        ids_again = tiny_campaign.create_measurements()
        assert ids_again == ids_before
        assert len(tiny_campaign.platform.list_measurements(
            key=tiny_campaign.api_key)) == len(ids_before)

    def test_collect_before_create_rejected(self):
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=99)
        with pytest.raises(CampaignError):
            campaign.collect()

    def test_dataset_covers_fleet(self, tiny_dataset):
        assert len(np.unique(tiny_dataset.column("target_index"))) == 101

    def test_timestamps_in_window(self, tiny_dataset, tiny_campaign):
        timestamps = tiny_dataset.column("timestamp")
        assert timestamps.min() >= CAMPAIGN_START_TS
        assert timestamps.max() < tiny_campaign.stop_time

    def test_quota_was_raised(self, tiny_campaign):
        account = tiny_campaign.platform.accounts[tiny_campaign.api_key]
        assert account.spent_total > 0

    def test_windowed_collection_concatenates(self):
        """Two non-overlapping windows equal the full collection —
        the 'measurements are ongoing' incremental-analysis mode."""
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=61)
        campaign.create_measurements()
        midpoint = campaign.start_time + campaign.scale.duration_s // 2
        full = campaign.collect()

        from repro.core.dataset import CampaignDataset

        incremental = CampaignDataset(
            campaign.platform.probes, campaign.platform.fleet
        )
        campaign.collect_into(incremental, stop=midpoint)
        first_half = incremental._buffer.size
        campaign.collect_into(incremental, start=midpoint)
        incremental.freeze()

        assert 0 < first_half < len(incremental)
        assert incremental.num_samples == full.num_samples
        # Same multiset of samples (order differs: window-major).
        full_keys = sorted(
            zip(full.column("probe_id"), full.column("timestamp"),
                full.column("target_index"))
        )
        inc_keys = sorted(
            zip(incremental.column("probe_id"), incremental.column("timestamp"),
                incremental.column("target_index"))
        )
        assert full_keys == inc_keys

    def test_collect_window_bounds_respected(self, tiny_campaign):
        midpoint = (
            tiny_campaign.start_time + tiny_campaign.scale.duration_s // 2
        )
        window = tiny_campaign.collect(start=midpoint)
        assert window.column("timestamp").min() >= midpoint

    def test_midpoint_collection_composes_only_its_rows(
        self, tiny_campaign, tiny_dataset, monkeypatch
    ):
        """The pre-window prefix is drawn, never composed: a collection
        from the midpoint synthesizes exactly the rows it keeps, and they
        are the full collection's rows from the midpoint on, byte for
        byte."""
        composed = []
        original = LatencyModel.ping_batch

        def counting(self, *args, **kwargs):
            batch = original(self, *args, **kwargs)
            composed.append(len(batch.rtt_min))
            return batch

        monkeypatch.setattr(LatencyModel, "ping_batch", counting)
        midpoint = (
            tiny_campaign.start_time + tiny_campaign.scale.duration_s // 2
        )
        window = tiny_campaign.collect(start=midpoint)
        assert sum(composed) == len(window) > 0
        tail = tiny_dataset.column("timestamp") >= midpoint
        for name in ("probe_id", "target_index", "timestamp", "rtt_min",
                     "rtt_avg", "sent", "rcvd"):
            assert (
                window.column(name).tobytes()
                == tiny_dataset.column(name)[tail].tobytes()
            ), name

    def test_quota_interrupted_create_is_resumable(self):
        """A mid-loop QuotaExceededError leaves create_measurements
        retryable: top up the account and call again — already-created
        measurements are skipped, never duplicated."""
        platform = AtlasPlatform(seed=44)
        # TINY creation costs ~115k credits (~1.1k per measurement); 50k
        # runs dry partway through the fleet loop.
        platform.register_account(
            CreditAccount(key="TIGHT", balance=50_000, daily_limit=10_000_000)
        )
        campaign = Campaign(
            platform, scale=CampaignScale.TINY, api_key="TIGHT"
        )
        with pytest.raises(CampaignError, match="quota|balance|402"):
            campaign.create_measurements()
        partial = list(campaign.measurement_ids)
        assert 0 < len(partial) < len(platform.fleet)

        platform.accounts["TIGHT"].grant(200_000)
        ids = campaign.create_measurements()
        assert len(ids) == len(platform.fleet)
        assert len(set(ids)) == len(ids)
        assert ids[: len(partial)] == partial  # fleet order preserved
        assert len(platform.list_measurements(key="TIGHT")) == len(ids)

        # And the campaign is fully usable afterwards.
        dataset = campaign.collect(stop=campaign.start_time + 43_200)
        assert dataset.num_samples > 0

    def test_interrupted_collection_resumes_without_loss(self):
        """Checkpointed collection survives a transport giving out mid-run
        and resumes to the exact fault-free dataset."""
        baseline_campaign = Campaign.from_paper(
            scale=CampaignScale.TINY, seed=47
        )
        baseline_campaign.create_measurements()
        baseline = baseline_campaign.collect()

        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=47)
        campaign.create_measurements()
        # Swap in a chaos transport too starved to ride out the faults.
        campaign.transport = Transport(
            campaign.platform,
            faults="flaky",
            retry=RetryPolicy(max_attempts=2, retry_budget=4),
        )
        checkpoint = CollectionCheckpoint()
        with pytest.raises(CollectionInterruptedError) as excinfo:
            campaign.collect(checkpoint=checkpoint)
        interrupted = excinfo.value
        assert interrupted.checkpoint is checkpoint
        partial = interrupted.dataset
        done = len(checkpoint.high_water)
        assert 0 < done < len(campaign.measurement_ids)
        assert campaign.collection_stats.interruptions == 1
        # The error names the measurement whose fetch died — the first
        # uncollected one in fleet order, absent from the checkpoint.
        assert interrupted.msm_id == campaign.measurement_ids[done]
        assert interrupted.msm_id not in checkpoint.high_water

        # Resume through a healthy-policy transport, same chaos profile.
        campaign.transport = Transport(campaign.platform, faults="flaky")
        resumed = campaign.collect(checkpoint=checkpoint, dataset=partial)
        assert resumed.num_samples == baseline.num_samples
        for column in ("probe_id", "target_index", "timestamp"):
            assert np.array_equal(
                resumed.column(column), baseline.column(column)
            )
        assert np.array_equal(
            resumed.column("rtt_min"), baseline.column("rtt_min"),
            equal_nan=True,
        )

    def test_checkpoint_roundtrips_through_json(self, tmp_path):
        checkpoint = CollectionCheckpoint()
        checkpoint.mark(100_001, 1_600_000_000)
        checkpoint.mark(100_002, 1_600_100_000)
        checkpoint.mark(100_001, 1_500_000_000)  # older: ignored
        path = tmp_path / "checkpoint.json"
        checkpoint.save(path)
        loaded = CollectionCheckpoint.load(path)
        assert loaded.high_water == {
            100_001: 1_600_000_000,
            100_002: 1_600_100_000,
        }
        assert loaded.collected_through(100_003, default=7) == 7

    def test_checkpointed_recollection_is_noop(self):
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=47)
        campaign.create_measurements()
        checkpoint = CollectionCheckpoint()
        first = campaign.collect(checkpoint=checkpoint)
        again = campaign.collect(checkpoint=checkpoint)
        assert first.num_samples > 0
        assert again.num_samples == 0  # everything already covered

    def test_run_deterministic(self):
        a = Campaign.from_paper(scale=CampaignScale.TINY, seed=31).run()
        b = Campaign.from_paper(scale=CampaignScale.TINY, seed=31).run()
        assert np.array_equal(a.column("rtt_min"), b.column("rtt_min"),
                              equal_nan=True)
        assert np.array_equal(a.column("probe_id"), b.column("probe_id"))

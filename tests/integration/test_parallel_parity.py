"""Serial-vs-parallel determinism parity suite.

The tentpole guarantee of the parallel collection engine: fanning the
fetch out over workers changes *nothing* about the frozen dataset — not
one byte — under every fault profile, including an interruption mid-run.
Each test builds fresh campaigns through :class:`ParityHarness`
(``tests/integration/conftest.py``) and lets it compare datasets,
checkpoints, and fault/retry accounting.
"""

import os
import sys

import numpy as np
import pytest

from repro.atlas.api.retry import RetryPolicy
from repro.atlas.api.transport import Transport
from repro.core.campaign import (
    Campaign,
    CampaignScale,
    CollectionCheckpoint,
    plan_row_shards,
)
from repro.errors import CollectionInterruptedError

from .conftest import PARITY_WORKERS, ParityHarness, dataset_fingerprint

#: Matches tests/conftest.FIXTURE_SEED so session fixtures double as
#: serial baselines for the expensive SMALL comparisons.
FIXTURE_SEED = 7

ALL_PROFILES = ("none", "flaky", "outage", "hostile")


class TestTinyParity:
    """TINY campaigns: full serial-vs-parallel cross-check per profile."""

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_parallel_matches_serial(self, profile):
        harness = ParityHarness(FIXTURE_SEED, CampaignScale.TINY, profile)
        serial = harness.run()
        parallel = harness.run(workers=PARITY_WORKERS)
        harness.assert_parity(parallel, serial)

    def test_more_workers_than_measurements(self, monkeypatch):
        """Oversubscribed: the plan degrades to one single-window range
        per measurement, never an empty one, and the bytes stay serial.

        Run without ``os.fork`` (the fork-less platform path) so the
        window walks as one in-process range instead of forking one
        worker per window."""
        harness = ParityHarness(FIXTURE_SEED, CampaignScale.TINY, "flaky")
        serial = harness.run()
        windows = len(serial.campaign.measurement_ids)
        plan = plan_row_shards([1] * windows, 1000, 1)
        assert [shard.entries for shard in plan] == [
            (index, index + 1) for index in range(windows)
        ]
        monkeypatch.delattr(os, "fork")
        oversubscribed = harness.run(workers=1000)
        harness.assert_parity(oversubscribed, serial)
        assert len(oversubscribed.campaign.worker_process_stats) == 1

    def test_forkless_platform_without_resource_collects_serial_bytes(
        self, monkeypatch
    ):
        """A platform with neither ``os.fork`` nor the POSIX ``resource``
        module (Windows) walks the window in-process and still collects
        the serial bytes; only the range's peak RSS goes unreported."""
        harness = ParityHarness(FIXTURE_SEED, CampaignScale.TINY, "flaky")
        serial = harness.run()
        monkeypatch.delattr(os, "fork")
        monkeypatch.setitem(sys.modules, "resource", None)
        forkless = harness.run(workers=PARITY_WORKERS)
        harness.assert_parity(forkless, serial)
        (stats,) = forkless.campaign.worker_process_stats
        assert stats["max_rss_kb"] is None

    def test_worker_counts_agree_with_each_other(self):
        """2, 3, and 5 workers shard differently but fingerprint alike."""
        harness = ParityHarness(FIXTURE_SEED, CampaignScale.TINY, "outage")
        prints = {
            workers: dataset_fingerprint(harness.run(workers=workers).dataset)
            for workers in (2, 3, 5)
        }
        assert len(set(prints.values())) == 1


class TestSmallParity:
    """SMALL campaigns compare against the shared session baseline
    (built serially by ``tests/conftest.py``) to avoid a second ~20 s
    serial run per test."""

    def test_parallel_small_matches_serial_baseline(self, small_dataset):
        harness = ParityHarness(FIXTURE_SEED, CampaignScale.SMALL, "none")
        parallel = harness.run(workers=PARITY_WORKERS)
        harness.assert_datasets_byte_identical(parallel.dataset, small_dataset)

    def test_parallel_flaky_small_matches_serial_baseline(self, small_dataset):
        """Chaos + parallelism together still converge to the fault-free
        serial bytes (test_chaos proves serial flaky == baseline)."""
        harness = ParityHarness(FIXTURE_SEED, CampaignScale.SMALL, "flaky")
        parallel = harness.run(workers=PARITY_WORKERS)
        harness.assert_datasets_byte_identical(parallel.dataset, small_dataset)
        assert sum(parallel.transport_stats["faults"].values()) > 0


class TestInterruptionParity:
    """A terminal mid-shard failure must leave exactly the state a serial
    interruption leaves: same checkpoint, same partial bytes, same
    failing measurement — so a resume replays the serial byte stream."""

    SEED = 47

    def _starved_campaign(self):
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=self.SEED)
        campaign.create_measurements()
        # max_attempts=1 makes the first injected transient fault
        # terminal; the scoped fault schedule then fixes *which*
        # measurements die independent of collection order.
        campaign.transport = Transport(
            campaign.platform,
            faults="flaky",
            retry=RetryPolicy(max_attempts=1),
        )
        return campaign

    def _interrupt(self, campaign, workers=None):
        checkpoint = CollectionCheckpoint()
        with pytest.raises(CollectionInterruptedError) as excinfo:
            campaign.collect(checkpoint=checkpoint, workers=workers)
        return excinfo.value

    def test_parallel_interruption_is_prefix_consistent(self):
        serial_exc = self._interrupt(self._starved_campaign())
        parallel_exc = self._interrupt(
            self._starved_campaign(), workers=PARITY_WORKERS
        )

        # Same failing measurement, recorded on the error.
        assert serial_exc.msm_id is not None
        assert parallel_exc.msm_id == serial_exc.msm_id

        # Same canonical-prefix checkpoint: strictly the measurements
        # before the failure, in fleet order, nothing from later shards.
        assert parallel_exc.checkpoint.high_water == serial_exc.checkpoint.high_water
        done = len(serial_exc.checkpoint.high_water)
        campaign = self._starved_campaign()
        assert 0 < done < len(campaign.measurement_ids)
        assert set(serial_exc.checkpoint.high_water) == set(
            campaign.measurement_ids[:done]
        )
        assert campaign.measurement_ids[done] == serial_exc.msm_id

        # Same partial dataset, byte for byte.
        serial_exc.dataset.freeze()
        parallel_exc.dataset.freeze()
        assert dataset_fingerprint(parallel_exc.dataset) == dataset_fingerprint(
            serial_exc.dataset
        )

    def test_resume_after_parallel_interruption_matches_serial_bytes(self):
        baseline_campaign = Campaign.from_paper(
            scale=CampaignScale.TINY, seed=self.SEED
        )
        baseline_campaign.create_measurements()
        baseline = baseline_campaign.collect()

        campaign = self._starved_campaign()
        exc = self._interrupt(campaign, workers=PARITY_WORKERS)
        assert campaign.collection_stats.interruptions == 1

        # Resume in parallel through a healthy-policy chaos transport.
        campaign.transport = Transport(campaign.platform, faults="flaky")
        resumed = campaign.collect(
            checkpoint=exc.checkpoint,
            dataset=exc.dataset,
            workers=PARITY_WORKERS,
        )
        assert resumed.num_samples == baseline.num_samples
        assert dataset_fingerprint(resumed) == dataset_fingerprint(baseline)
        assert np.array_equal(
            resumed.column("rtt_min"), baseline.column("rtt_min"), equal_nan=True
        )

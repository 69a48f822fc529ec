"""Collector-vs-oracle parity suite: the columnar fetch against the dict path.

The collector builds every window from columns, chaos included: under a
fault injector the transport replays the page, fault and retry schedule
over row indices instead of mangling dicts.  The oracle
(:meth:`ParityHarness.oracle`) fetches the same windows as dicts through
``Transport.results()`` — truncated, duplicated and malformed exactly as
the client API delivers them — and cleans each with the documented
dict-path reference, ``PingColumns.from_raw``.  Collector and oracle must
agree byte for byte under every fault profile, serially and sharded:
datasets, checkpoints, cleaning counts and transport accounting.
"""

import numpy as np
import pytest

from repro.atlas.api.retry import RetryPolicy
from repro.atlas.api.transport import Transport
from repro.atlas.faults import FaultProfile
from repro.core.campaign import Campaign, CampaignScale, CollectionCheckpoint
from repro.errors import CollectionInterruptedError
from repro.store import CampaignCatalog

from .conftest import PARITY_WORKERS, ParityHarness, dataset_fingerprint

FIXTURE_SEED = 7

ALL_PROFILES = ("none", "flaky", "outage", "hostile")

#: Every page duplicates a slice and corrupts one delivered entry, so a
#: corrupted original often has a surviving duplicate later in its page.
FORCED_OVERLAP = FaultProfile(name="overlap", duplicate_page=1.0, malformed=1.0)

#: Small pages make those overlaps common on a TINY campaign.
OVERLAP_PAGE_SIZE = 7


@pytest.fixture(scope="module")
def oracle():
    """``oracle(profile)``: the TINY dict-path collection, built once."""
    outcomes = {}

    def get(profile):
        if profile not in outcomes:
            outcomes[profile] = ParityHarness(
                FIXTURE_SEED, CampaignScale.TINY, profile
            ).oracle()
        return outcomes[profile]

    return get


class TestTinyFastPathParity:
    """TINY campaigns: the collector against the oracle, per profile."""

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_fast_matches_scalar(self, profile, oracle):
        """The serial columnar collection and the dict path agree
        byte for byte — datasets, checkpoints and accounting alike."""
        harness = ParityHarness(FIXTURE_SEED, CampaignScale.TINY, profile)
        harness.assert_parity(harness.run(), oracle(profile))

    def test_fast_parallel_matches_scalar_serial(self, oracle):
        """Sharded columnar collection vs the serial dict path, under
        every profile: sharding and the columnar chaos replay compose
        without perturbing a byte."""
        for profile in ALL_PROFILES:
            harness = ParityHarness(FIXTURE_SEED, CampaignScale.TINY, profile)
            harness.assert_parity(
                harness.run(workers=PARITY_WORKERS), oracle(profile)
            )


class TestForcedOverlap:
    """A corrupted original with a surviving duplicate: the dict path
    keeps the duplicate, so the row lands after the rest of its page."""

    @pytest.mark.parametrize("workers", [None, PARITY_WORKERS])
    def test_corrupted_original_lands_at_its_duplicate(self, workers):
        harness = ParityHarness(
            FIXTURE_SEED,
            CampaignScale.TINY,
            FORCED_OVERLAP,
            page_size=OVERLAP_PAGE_SIZE,
        )
        expected = harness.oracle()
        harness.assert_parity(harness.run(workers=workers), expected)
        # The case under test really happened: within one flow, some row
        # arrives after a later timestamp of the same probe.
        dataset = expected.dataset
        same_flow = (
            np.diff(dataset.column("target_index")) == 0
        ) & (np.diff(dataset.column("probe_id")) == 0)
        assert np.any(same_flow & (np.diff(dataset.column("timestamp")) < 0))
        assert expected.collector_stats["quarantined"] > 0
        assert expected.collector_stats["duplicates_dropped"] > 0


class TestStoreBackedChaos:
    """Store-backed, supervised and sharded under transport chaos."""

    def test_store_backed_crashy_matches_oracle(self, oracle, tmp_path):
        harness = ParityHarness(FIXTURE_SEED, CampaignScale.TINY, "hostile")
        expected = oracle("hostile")
        campaign = harness.build_campaign()
        catalog = CampaignCatalog(tmp_path / "catalog")
        dataset = campaign.collect(
            store=catalog, workers=PARITY_WORKERS, worker_faults="crashy"
        )
        assert campaign.supervision.crashes > 0
        assert not campaign.supervision.degraded
        harness.assert_datasets_byte_identical(dataset, expected.dataset)
        assert campaign.collection_stats.as_dict() == expected.collector_stats
        harness.assert_transport_stats_equivalent(
            campaign.transport_stats(), expected.transport_stats
        )
        # The committed store serves the oracle's bytes on a cache hit.
        reopened = harness.build_campaign().collect(store=catalog)
        harness.assert_datasets_byte_identical(reopened, expected.dataset)


class TestSmallFastPathParity:
    """SMALL compares the dict path once against the shared session
    baseline (collected by ``tests/conftest.py``), so the expensive
    oracle side runs exactly once."""

    def test_scalar_small_matches_fast_baseline(self, small_dataset):
        scalar = ParityHarness(FIXTURE_SEED, CampaignScale.SMALL, "none").oracle()
        ParityHarness.assert_datasets_byte_identical(
            scalar.dataset, small_dataset
        )
        assert np.array_equal(
            scalar.dataset.column("rtt_min"),
            small_dataset.column("rtt_min"),
            equal_nan=True,
        )


class TestFastPathResume:
    """Resume after interruption: the prefix collected under chaos and
    the remainder collected after recovery, both columnar and sharded,
    must merge into the oracle's serial byte stream."""

    SEED = 47

    def test_resume_through_fast_path_matches_scalar_bytes(self):
        baseline = ParityHarness(self.SEED, CampaignScale.TINY, "none").oracle()

        # Interrupt mid-run: flaky faults with a one-attempt budget make
        # the first transient fault terminal.
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=self.SEED)
        campaign.create_measurements()
        campaign.transport = Transport(
            campaign.platform, faults="flaky", retry=RetryPolicy(max_attempts=1)
        )
        checkpoint = CollectionCheckpoint()
        with pytest.raises(CollectionInterruptedError) as excinfo:
            campaign.collect(checkpoint=checkpoint, workers=PARITY_WORKERS)
        exc = excinfo.value
        assert 0 < len(exc.checkpoint.high_water) < len(campaign.measurement_ids)

        # Recover onto a clean transport and finish, in parallel.
        campaign.transport = Transport(campaign.platform)
        resumed = campaign.collect(
            checkpoint=exc.checkpoint,
            dataset=exc.dataset,
            workers=PARITY_WORKERS,
        )
        assert resumed.num_samples == baseline.dataset.num_samples
        assert dataset_fingerprint(resumed) == dataset_fingerprint(
            baseline.dataset
        )

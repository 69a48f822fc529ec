"""Shared harness for the parallel-collection parity suite.

The determinism contract under test (DESIGN.md): collecting a campaign
with ``workers=N`` must produce a frozen dataset **byte-identical** to a
serial run of the same campaign — same seed, same scale, same fault
profile — together with an equal checkpoint and equivalent collector and
transport accounting.  :class:`ParityHarness` packages that comparison so
every parity test states only *which* campaign it runs, not *how* parity
is checked.  :meth:`ParityHarness.oracle` is the other side of the
collector's own correctness check: the same campaign fetched as dicts
and cleaned by the documented dict-path reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

import pytest

from repro.atlas.api.transport import Transport
from repro.atlas.results.ping import PingColumns
from repro.core.campaign import (
    Campaign,
    CampaignScale,
    CollectionCheckpoint,
    CollectionStats,
)
from repro.core.dataset import CampaignDataset

#: Worker count the parity suite fans out to; CI pins it via the
#: environment so the matrix exercises exactly what the job advertises.
PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "4"))

#: Every frozen sample column, in schema order.  Byte-identity means
#: *all* of them, serialized, match — values and row order both.
SAMPLE_COLUMNS = (
    "probe_id", "target_index", "timestamp",
    "rtt_min", "rtt_avg", "sent", "rcvd",
)


def dataset_fingerprint(dataset: CampaignDataset) -> bytes:
    """The frozen dataset as one order-sensitive byte string."""
    return b"".join(dataset.column(name).tobytes() for name in SAMPLE_COLUMNS)


@dataclass
class CollectionOutcome:
    """Everything one collection run produced that parity compares."""

    dataset: CampaignDataset
    checkpoint: CollectionCheckpoint
    collector_stats: Dict[str, int]
    transport_stats: Dict[str, object]
    campaign: Campaign


class ParityHarness:
    """Reusable serial-vs-parallel determinism checker.

    Build one per (seed, scale, profile) configuration, call :meth:`run`
    once serially and once with workers, then :meth:`assert_parity`.
    Each run gets a *fresh* campaign so no platform or transport state
    leaks between the two sides of the comparison.
    """

    def __init__(
        self,
        seed: int,
        scale: CampaignScale,
        profile="none",
        page_size: Optional[int] = None,
    ):
        self.seed = seed
        self.scale = scale
        self.profile = profile
        self.page_size = page_size

    def build_campaign(self) -> Campaign:
        faults = None if self.profile == "none" else self.profile
        campaign = Campaign.from_paper(
            scale=self.scale, seed=self.seed, faults=faults
        )
        if self.page_size is not None:
            campaign.transport = Transport(
                campaign.platform, faults=faults, page_size=self.page_size
            )
        campaign.create_measurements()
        return campaign

    def oracle(self) -> CollectionOutcome:
        """The dict-path reference collection of the same campaign.

        Fetches every window in fleet order with
        :meth:`~repro.atlas.api.transport.Transport.results` — the client
        API's dicts, mangled under chaos — and cleans each with
        :meth:`~repro.atlas.results.ping.PingColumns.from_raw`.  It shares
        no code with the collector past the transport and the dataset
        buffer, which is what makes it an oracle for the columnar fetch.
        """
        campaign = self.build_campaign()
        checkpoint = CollectionCheckpoint()
        stats = CollectionStats()
        dataset = CampaignDataset(campaign.platform.probes, campaign.platform.fleet)
        for msm_id, vm in zip(campaign.measurement_ids, campaign.platform.fleet):
            raws = campaign.transport.results(
                msm_id, start=campaign.start_time, stop=campaign.stop_time
            )
            columns, quarantined, duplicates = PingColumns.from_raw(raws)
            stats.samples_appended += dataset.extend_samples(
                vm.key,
                columns.probe_ids,
                columns.timestamps,
                columns.rtt_min,
                columns.rtt_avg,
                columns.sent,
                columns.rcvd,
            )
            stats.quarantined += quarantined
            stats.duplicates_dropped += duplicates
            stats.measurements_collected += 1
            checkpoint.mark(msm_id, campaign.stop_time)
        dataset.freeze()
        return CollectionOutcome(
            dataset=dataset,
            checkpoint=checkpoint,
            collector_stats=stats.as_dict(),
            transport_stats=campaign.transport_stats(),
            campaign=campaign,
        )

    def run(self, workers: Optional[int] = None) -> CollectionOutcome:
        """Collect a fresh campaign; ``workers=None`` means serial."""
        campaign = self.build_campaign()
        checkpoint = CollectionCheckpoint()
        dataset = campaign.collect(checkpoint=checkpoint, workers=workers)
        return CollectionOutcome(
            dataset=dataset,
            checkpoint=checkpoint,
            collector_stats=campaign.collection_stats.as_dict(),
            transport_stats=campaign.transport_stats(),
            campaign=campaign,
        )

    # -- assertions -----------------------------------------------------------

    @staticmethod
    def assert_datasets_byte_identical(
        actual: CampaignDataset, expected: CampaignDataset
    ) -> None:
        assert actual.num_samples == expected.num_samples
        assert dataset_fingerprint(actual) == dataset_fingerprint(expected)

    @staticmethod
    def assert_checkpoints_equal(
        actual: CollectionCheckpoint, expected: CollectionCheckpoint
    ) -> None:
        assert actual.high_water == expected.high_water

    @staticmethod
    def assert_transport_stats_equivalent(
        actual: Dict[str, object], expected: Dict[str, object]
    ) -> None:
        """Fault/retry accounting must agree up to documented caveats.

        ``budget_left`` is excluded: every parallel worker carries its
        own full retry budget, so the summed remainder is larger than a
        single serial engine's by construction.  ``simulated_sleep_s``
        gets a millisecond-scale tolerance because each engine rounds
        its own total before they are summed.
        """
        assert set(actual) == set(expected)
        for key in set(actual) - {"simulated_sleep_s", "budget_left"}:
            assert actual[key] == expected[key], f"transport stat {key!r}"
        assert actual["simulated_sleep_s"] == pytest.approx(
            expected["simulated_sleep_s"], abs=0.01
        )

    def assert_parity(
        self, parallel: CollectionOutcome, serial: CollectionOutcome
    ) -> None:
        self.assert_datasets_byte_identical(parallel.dataset, serial.dataset)
        self.assert_checkpoints_equal(parallel.checkpoint, serial.checkpoint)
        assert parallel.collector_stats == serial.collector_stats
        self.assert_transport_stats_equivalent(
            parallel.transport_stats, serial.transport_stats
        )


@pytest.fixture
def parity_harness():
    """Factory fixture: ``parity_harness(seed, scale, profile)``."""
    return ParityHarness

"""Tests for repro.core.lastmile (Figure 7)."""

import math

import numpy as np
import pytest

from repro.constants import SAMPLE_SCHEMA
from repro.core.dataset import CampaignDataset
from repro.core.filtering import cohort_masks
from repro.core.lastmile import (
    WEEK_S,
    added_wireless_latency_ms,
    cohort_timeseries,
    wireless_penalty,
)
from repro.core.nearest import nearest_target_mask
from repro.errors import CampaignError
from repro.frame import Frame


def reference_cohort_timeseries(dataset: CampaignDataset, bucket_s: int) -> Frame:
    """The reference series: each cohort's own nearest-target mask, then
    one full-length timestamp mask per bucket."""
    masks = cohort_masks(dataset)
    timestamps = dataset.column("timestamp")
    rtts = dataset.column("rtt_min")
    nearest = {cohort: nearest_target_mask(dataset, mask) for cohort, mask in masks.items()}
    records = []
    start = int(timestamps.min())
    for bucket_start in range(start, int(timestamps.max()) + 1, bucket_s):
        bucket_mask = (timestamps >= bucket_start) & (timestamps < bucket_start + bucket_s)
        row = {"bucket_start": bucket_start}
        for cohort in ("wired", "wireless"):
            values = rtts[nearest[cohort] & bucket_mask]
            row[f"{cohort}_median"] = float(np.median(values)) if len(values) else float("nan")
            row[f"{cohort}_samples"] = int(len(values))
        records.append(row)
    return Frame.from_records(
        records,
        columns=["bucket_start", "wired_median", "wired_samples",
                 "wireless_median", "wireless_samples"],
    )


def same_frame(left: Frame, right: Frame) -> bool:
    """Same columns in the same order, dtypes and values (NaN equal)."""
    return left.columns == right.columns and all(
        left[name].dtype == right[name].dtype
        and np.array_equal(left[name], right[name], equal_nan=True)
        for name in left.columns
    )


def without_cohort(dataset: CampaignDataset, cohort: str) -> CampaignDataset:
    """``dataset`` minus every sample of the ``cohort``'s probes."""
    keep = ~dataset.probe_codes("cohort").flags(cohort)[dataset.probe_positions()]
    return CampaignDataset.from_columns(
        dataset.probes,
        dataset.targets,
        {name: dataset.column(name)[keep] for name, _ in SAMPLE_SCHEMA},
    )


class TestTimeseries:
    def test_frame_shape(self, tiny_dataset):
        frame = cohort_timeseries(tiny_dataset, bucket_s=2 * 86_400)
        assert "wired_median" in frame
        assert "wireless_median" in frame
        assert len(frame) >= 2

    def test_buckets_cover_campaign(self, tiny_dataset):
        frame = cohort_timeseries(tiny_dataset, bucket_s=86_400)
        starts = list(frame["bucket_start"])
        assert starts == sorted(starts)
        deltas = {b - a for a, b in zip(starts, starts[1:])}
        assert deltas == {86_400}

    def test_wireless_above_wired_in_every_bucket(self, tiny_dataset):
        frame = cohort_timeseries(tiny_dataset, bucket_s=2 * 86_400)
        for row in frame.iter_rows():
            if math.isnan(row["wired_median"]) or math.isnan(row["wireless_median"]):
                continue
            assert row["wireless_median"] > row["wired_median"]

    def test_bad_bucket_rejected(self, tiny_dataset):
        with pytest.raises(CampaignError):
            cohort_timeseries(tiny_dataset, bucket_s=0)

    @pytest.mark.parametrize("bucket_s", [3_600, 86_400, 2 * 86_400, WEEK_S, 10**9])
    def test_equals_a_mask_per_bucket(self, tiny_dataset, bucket_s):
        assert same_frame(
            cohort_timeseries(tiny_dataset, bucket_s=bucket_s),
            reference_cohort_timeseries(tiny_dataset, bucket_s),
        )


@pytest.mark.parametrize("cohort", ["wired", "wireless"])
@pytest.mark.parametrize(
    "product", [cohort_timeseries, wireless_penalty, added_wireless_latency_ms]
)
def test_empty_cohort_raises(tiny_dataset, cohort, product):
    with pytest.raises(CampaignError, match=f"no samples in cohort '{cohort}'"):
        product(without_cohort(tiny_dataset, cohort))


class TestPenalty:
    def test_penalty_in_paper_band(self, tiny_dataset):
        """The paper reports ~2.5x; we accept a generous band at TINY scale."""
        penalty = wireless_penalty(tiny_dataset)
        assert 1.5 <= penalty <= 4.0

    def test_added_latency_positive(self, tiny_dataset):
        """Prior studies cite 10-40 ms added wireless latency; at TINY
        scale (tiny, globally-spread cohorts) we only pin the sign and a
        loose ceiling — the calibration suite checks the band at SMALL."""
        added = added_wireless_latency_ms(tiny_dataset)
        assert 5.0 <= added <= 90.0

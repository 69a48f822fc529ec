"""Wired vs wireless last mile (paper §4.3, Figure 7).

Figure 7 tracks the RTT of tag-selected wired and wireless probe cohorts
over the measurement period; the paper finds wireless probes take ~2.5x
longer to reach the nearest cloud region, consistent with the 10-40 ms
added wireless latency reported by prior studies.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.dataset import CampaignDataset, group_medians
from repro.core.filtering import COHORTS, cohort_masks, unprivileged_mask
from repro.core.nearest import nearest_target_mask
from repro.errors import CampaignError
from repro.frame import Frame

#: Seconds per time-series bucket in :func:`cohort_timeseries` (one week).
WEEK_S = 7 * 86_400


def _nearest_cohort_masks(dataset: CampaignDataset) -> Dict[str, np.ndarray]:
    """Each cohort's samples towards its probes' *nearest* region.

    Figure 7 measures access "to the nearest cloud region"; we identify
    each probe's nearest region as the one with the smallest median RTT,
    then keep only samples towards it.  A cohort keeps whole probes of
    the unprivileged mask, and a probe's nearest region depends on its
    own samples alone, so each cohort's mask is the unprivileged nearest
    mask restricted to the cohort: the one nearest-target pass the other
    figures take serves both cohorts.
    """
    masks = cohort_masks(dataset)
    for cohort, mask in masks.items():
        if not mask.any():
            raise CampaignError(f"no samples in cohort {cohort!r}")
    nearest = nearest_target_mask(dataset, unprivileged_mask(dataset))
    return {cohort: mask & nearest for cohort, mask in masks.items()}


def cohort_timeseries(dataset: CampaignDataset, bucket_s: int = WEEK_S) -> Frame:
    """Figure 7's series: median nearest-region RTT per cohort per week."""
    if bucket_s <= 0:
        raise CampaignError(f"bucket size must be positive: {bucket_s}")
    nearest = _nearest_cohort_masks(dataset)
    timestamps = dataset.column("timestamp")
    rtts = dataset.column("rtt_min")
    start = int(timestamps.min())
    buckets = (int(timestamps.max()) - start) // bucket_s + 1
    columns = {"bucket_start": start + bucket_s * np.arange(buckets, dtype=np.int64)}
    for cohort in COHORTS:
        # Each row's bucket, numbered from the first; one grouping pass.
        bucket = (timestamps[nearest[cohort]] - start) // bucket_s
        present, medians = group_medians(bucket, rtts[nearest[cohort]], buckets)
        columns[f"{cohort}_median"] = np.full(buckets, np.nan)
        columns[f"{cohort}_median"][present] = medians
        columns[f"{cohort}_samples"] = np.bincount(bucket, minlength=buckets)
    return Frame(columns)


def _cohort_medians(dataset: CampaignDataset) -> Dict[str, float]:
    """Each cohort's median nearest-region RTT."""
    rtts = dataset.column("rtt_min")
    return {
        cohort: float(np.median(rtts[keep]))
        for cohort, keep in _nearest_cohort_masks(dataset).items()
    }


def wireless_penalty(dataset: CampaignDataset) -> float:
    """The headline multiplier: wireless median / wired median (~2.5x)."""
    medians = _cohort_medians(dataset)
    if medians["wired"] <= 0:
        raise CampaignError("wired cohort median is non-positive")
    return medians["wireless"] / medians["wired"]


def added_wireless_latency_ms(dataset: CampaignDataset) -> float:
    """Absolute added latency of the wireless cohort (paper cites 10-40 ms)."""
    medians = _cohort_medians(dataset)
    return medians["wireless"] - medians["wired"]

"""Probe filtering and cohort construction (paper §4.1, §4.3).

Two filters from the methodology:

* **privileged-location exclusion** — probes whose tags reveal a
  datacenter/cloud installation are dropped from all analyses ("We filter
  out all the probes that are clearly installed in privileged locations");
* **last-mile cohorts** — Figure 7 compares probes tagged wired
  (``ethernet``/``broadband``/...) against probes tagged wireless
  (``lte``/``wifi``/``wlan``/...), additionally requiring each cohort
  member's baseline latency to be in line with its country's average
  (dropping mis-tagged probes).

Both are memoized on the frozen dataset (see
:meth:`CampaignDataset._memoized`), so the report's repeated calls pay
for one computation.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.dataset import CampaignDataset
from repro.errors import CampaignError

#: Figure 7 sanity filter: a probe whose baseline (median) latency is more
#: than this factor away from its country median is considered mis-tagged.
BASELINE_TOLERANCE = 6.0

#: The Figure 7 cohorts, in report order.
COHORTS = ("wired", "wireless")


def unprivileged_mask(dataset: CampaignDataset) -> np.ndarray:
    """Sample mask excluding privileged probes and failed pings."""
    return dataset._memoized(
        "unprivileged",
        lambda: ~dataset.probe_privileged() & dataset.succeeded_mask(),
    )


def _group_medians(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending distinct ``keys`` and ``np.median`` of each key's values.

    A stable argsort keeps each group's values in row order, so every
    median sees exactly the slice a per-key boolean mask would select.
    """
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    bounds = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    medians = [np.median(group) for group in np.split(values, bounds)]
    return keys[np.concatenate(([0], bounds))], np.asarray(medians, dtype=np.float64)


def _cohort_masks(dataset: CampaignDataset) -> Dict[str, np.ndarray]:
    base = unprivileged_mask(dataset)
    rows = np.flatnonzero(base)
    if not len(rows):
        return {cohort: np.zeros(len(base), dtype=bool) for cohort in COHORTS}
    probe_ids = dataset.column("probe_id")[rows]
    rtt = dataset.column("rtt_min")[rows]

    # Each probe's baseline (median) latency over its valid samples.
    ids, baseline = _group_medians(probe_ids, rtt)

    # Country medians over all valid samples (the "country average"
    # yardstick the paper verifies against), grouped by a dense country
    # index looked up per probe id (ids are dense and small).  Every
    # country has a probe in ``ids``, so the groups are 0..len-1.
    _, country_of_id = np.unique(
        [dataset.probe(int(pid)).country_code for pid in ids], return_inverse=True
    )
    country_table = np.zeros(int(ids[-1]) + 1, dtype=np.intp)
    country_table[ids] = country_of_id
    _, country_median = _group_medians(country_table[probe_ids], rtt)
    reference = country_median[country_of_id]

    # Strict ``>``: a baseline exactly at the tolerance stays; a
    # non-positive (or NaN) country median drops nobody.
    dropped = (reference > 0) & (baseline > reference * BASELINE_TOLERANCE)
    keep = base.copy()
    keep[rows[np.isin(probe_ids, ids[dropped])]] = False
    cohorts = dataset.probe_cohorts()
    return {cohort: keep & (cohorts == cohort) for cohort in COHORTS}


def cohort_masks(dataset: CampaignDataset) -> Dict[str, np.ndarray]:
    """Sample masks for the wired and wireless cohorts (Figure 7).

    Applies, in order: privileged exclusion, tag-based cohort selection,
    and the per-probe baseline sanity check against the country median.
    """
    return dataset._memoized("cohort_masks", lambda: _cohort_masks(dataset))


def cohort_sizes(dataset: CampaignDataset) -> Tuple[int, int]:
    """(wired probes, wireless probes) after all Figure 7 filtering."""
    masks = cohort_masks(dataset)
    probe_ids = dataset.column("probe_id")
    wired = len(np.unique(probe_ids[masks["wired"]]))
    wireless = len(np.unique(probe_ids[masks["wireless"]]))
    if wired == 0 or wireless == 0:
        raise CampaignError(
            "cohort construction produced an empty cohort; "
            "campaign too small for Figure 7"
        )
    return wired, wireless

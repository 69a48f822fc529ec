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

from repro.core.dataset import CampaignDataset, group_medians
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
        lambda: ~dataset.probe_table("privileged")[dataset.probe_positions()]
        & dataset.succeeded_mask(),
    )


def _cohort_masks(dataset: CampaignDataset) -> Dict[str, np.ndarray]:
    base = unprivileged_mask(dataset)
    if not base.any():
        return {cohort: np.zeros(len(base), dtype=bool) for cohort in COHORTS}
    positions = dataset.probe_positions()
    rtt = dataset.column("rtt_min")[base]
    probe_of_row = positions[base]

    # Each probe's baseline (median) latency over its valid samples.
    probes, baseline = group_medians(probe_of_row, rtt, len(dataset.probes))

    # Country medians over all valid samples (the "country average"
    # yardstick the paper verifies against).  Every probe in ``probes``
    # has rows, so its country has a median.
    country = dataset.probe_codes("country")
    countries, medians = group_medians(
        country.codes[probe_of_row], rtt, len(country.names)
    )
    country_median = np.empty(len(country.names))
    country_median[countries] = medians
    reference = country_median[country.codes[probes]]

    # Strict ``>``: a baseline exactly at the tolerance stays; a
    # non-positive (or NaN) country median drops nobody.
    dropped = probes[(reference > 0) & (baseline > reference * BASELINE_TOLERANCE)]
    cohort = dataset.probe_codes("cohort")
    masks = {}
    for name in COHORTS:
        member = cohort.flags(name)
        member[dropped] = False
        masks[name] = base & member[positions]
    return masks


def cohort_masks(dataset: CampaignDataset) -> Dict[str, np.ndarray]:
    """Sample masks for the wired and wireless cohorts (Figure 7).

    Applies, in order: privileged exclusion, tag-based cohort selection,
    and the per-probe baseline sanity check against the country median.
    """
    return dataset._memoized("cohort_masks", lambda: _cohort_masks(dataset))


def cohort_sizes(dataset: CampaignDataset) -> Tuple[int, int]:
    """(wired probes, wireless probes) after all Figure 7 filtering."""
    masks = cohort_masks(dataset)
    wired, wireless = (dataset.probes_seen(masks[cohort]) for cohort in COHORTS)
    if wired == 0 or wireless == 0:
        raise CampaignError(
            "cohort construction produced an empty cohort; "
            "campaign too small for Figure 7"
        )
    return wired, wireless

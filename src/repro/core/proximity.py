"""Proximity to the cloud (paper §4.2: Figures 4 and 5).

Figure 4: for every country, the minimum RTT its *best* probe ever
observed to *any* datacenter, bucketed for the choropleth map.

Figure 5: per-continent CDFs of every probe's minimum RTT to its nearest
datacenter — "optimistic" numbers by construction, as the paper notes.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.constants import FIG4_BUCKET_LABELS, FIG4_BUCKETS_MS, PL_MS
from repro.core.dataset import CampaignDataset
from repro.core.filtering import unprivileged_mask
from repro.errors import CampaignError
from repro.frame import ECDF, Frame, ecdf
from repro.geo.countries import get_country

#: Human-readable labels of the Figure 4 buckets (re-exported from
#: constants so viz modules can use them without importing this package).
BUCKET_LABELS: Tuple[str, ...] = FIG4_BUCKET_LABELS


def per_probe_min(dataset: CampaignDataset) -> Dict[int, float]:
    """Minimum observed RTT per probe, over all targets and samples.

    Privileged probes and failed pings are excluded, per the methodology.
    Memoized on the frozen dataset; each call returns a fresh dict.
    """
    return dataset._memoized("per_probe_min", lambda: _per_probe_min(dataset))


def _per_probe_min(dataset: CampaignDataset) -> Dict[int, float]:
    mask = unprivileged_mask(dataset)
    probe_ids = dataset.column("probe_id")[mask]
    rtts = dataset.column("rtt_min")[mask]
    if len(probe_ids) == 0:
        raise CampaignError("no valid samples to compute per-probe minima")
    order = np.argsort(probe_ids, kind="stable")
    probe_ids = probe_ids[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(probe_ids)) + 1))
    # np.minimum propagates NaN exactly as np.min does.
    minima = np.minimum.reduceat(rtts[order], starts)
    return dict(zip(probe_ids[starts].tolist(), minima.tolist()))


def country_min_latency(dataset: CampaignDataset) -> Frame:
    """Figure 4's underlying table: best-probe minimum RTT per country."""
    minima = per_probe_min(dataset)
    best: Dict[str, float] = {}
    for probe_id, value in minima.items():
        country = dataset.probe(probe_id).country_code
        if country not in best or value < best[country]:
            best[country] = value
    records = [
        {
            "country": country,
            "continent": get_country(country).continent,
            "min_rtt": round(value, 3),
            "bucket": bucket_label(value),
        }
        for country, value in sorted(best.items())
    ]
    return Frame.from_records(
        records, columns=["country", "continent", "min_rtt", "bucket"]
    )


def bucket_label(rtt_ms: float) -> str:
    """Figure 4 map-legend bucket of an RTT."""
    for edge, label in zip(FIG4_BUCKETS_MS, BUCKET_LABELS):
        if rtt_ms <= edge:
            return label
    return BUCKET_LABELS[-1]  # pragma: no cover (inf edge catches all)


def bucket_counts(country_frame: Frame) -> Dict[str, int]:
    """Countries per Figure 4 bucket, in legend order."""
    counts = {label: 0 for label in BUCKET_LABELS}
    for bucket in country_frame["bucket"]:
        counts[str(bucket)] += 1
    return counts


def countries_beyond_pl(country_frame: Frame) -> Tuple[str, ...]:
    """Countries whose best probe cannot reach any cloud within PL.

    The paper finds 16, "mostly in Africa".
    """
    mask = country_frame.col("min_rtt").values > PL_MS
    return tuple(country_frame.filter(mask)["country"])


def min_rtt_cdf_by_continent(dataset: CampaignDataset) -> Dict[str, ECDF]:
    """Figure 5: CDF of per-probe minimum RTT, grouped by continent."""
    minima = per_probe_min(dataset)
    by_continent: Dict[str, list] = {}
    for probe_id, value in minima.items():
        continent = dataset.probe(probe_id).continent
        by_continent.setdefault(continent, []).append(value)
    return {continent: ecdf(values) for continent, values in by_continent.items()}


def population_within(dataset: CampaignDataset, threshold_ms: float) -> float:
    """Share of covered population whose country's best-case RTT meets a bound.

    Backs the abstract's claim that the cloud is "close enough for the
    majority of the world's population".
    """
    frame = country_min_latency(dataset)
    total = 0.0
    within = 0.0
    for row in frame.iter_rows():
        country = get_country(str(row["country"]))
        total += country.population_m
        if float(row["min_rtt"]) <= threshold_ms:
            within += country.population_m
    if total == 0:
        raise CampaignError("no countries in dataset")
    return within / total

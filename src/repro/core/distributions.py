"""Full latency distributions (paper §4.3, Figure 6).

Where Figures 4/5 take minima, Figure 6 plots the CDF of *every* ping
sample grouped by the probe's continent, exposing the reality of diurnal
congestion, wireless probes and under-provisioned regions: North America,
Europe and Oceania keep >75 % of samples below the PL threshold while
Latin America, Asia and Africa do not.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.constants import MTP_MS, PL_MS
from repro.core.dataset import CampaignDataset, split_by_code
from repro.core.filtering import unprivileged_mask
from repro.core.nearest import nearest_target_mask
from repro.errors import CampaignError
from repro.frame import ECDF, Frame, ecdf


def samples_by_continent(
    dataset: CampaignDataset, nearest_only: bool = True
) -> Dict[str, np.ndarray]:
    """Valid sample RTTs per probe continent.

    ``nearest_only`` keeps only pings towards each probe's closest
    datacenter — Figure 6's definition ("all ping measurements from all
    probes *to their closest datacenter*").  Pass ``False`` for the raw
    all-targets distribution.
    """
    mask = unprivileged_mask(dataset)
    if nearest_only:
        mask = nearest_target_mask(dataset, mask)
    rtts = dataset.column("rtt_min")[mask]
    if len(rtts) == 0:
        raise CampaignError("no valid samples")
    continent = dataset.probe_codes("continent")
    present, groups = split_by_code(
        continent.codes[dataset.probe_positions()[mask]], rtts, len(continent.names)
    )
    return {continent.names[code]: values for code, values in zip(present, groups)}


def all_samples_cdf_by_continent(dataset: CampaignDataset) -> Dict[str, ECDF]:
    """Figure 6: CDF of all measurements, grouped by continent."""
    return {
        continent: ecdf(values)
        for continent, values in samples_by_continent(dataset).items()
    }


def threshold_table(dataset: CampaignDataset) -> Frame:
    """Per-continent shares of samples under MTP and PL, plus quartiles.

    The rows back the §4.3 claims: ">75 % of NA/EU/OC probes below PL",
    "the top 25 % probes in NA and EU can even support MTP".
    """
    records = []
    for continent, values in sorted(samples_by_continent(dataset).items()):
        records.append(
            {
                "continent": continent,
                "samples": int(len(values)),
                "under_mtp": float(np.mean(values <= MTP_MS)),
                "under_pl": float(np.mean(values <= PL_MS)),
                "p25": float(np.percentile(values, 25)),
                "median": float(np.median(values)),
                "p75": float(np.percentile(values, 75)),
                "p95": float(np.percentile(values, 95)),
            }
        )
    return Frame.from_records(
        records,
        columns=[
            "continent", "samples", "under_mtp", "under_pl",
            "p25", "median", "p75", "p95",
        ],
    )


def eu_tail_analysis(dataset: CampaignDataset) -> Dict[str, float]:
    """The paper's note on Figure 6: the EU tail comes from eastern
    Europe / countries without nearby datacenters, and NA lacks it.

    Returns p95 RTTs for EU overall, the EU tail contributors, and NA.
    """
    mask = nearest_target_mask(dataset, unprivileged_mask(dataset))
    positions = dataset.probe_positions()[mask]
    continent = dataset.probe_codes("continent")
    rtts = dataset.column("rtt_min")[mask]

    eu_mask = continent.flags("EU")[positions]
    eu = rtts[eu_mask]
    na = rtts[continent.flags("NA")[positions]]
    if len(eu) == 0 or len(na) == 0:
        raise CampaignError("need EU and NA samples for the tail analysis")

    # Eastern-EU tail contributors (per the paper's description); the
    # cohort definition lives in repro.geo.regions.
    from repro.geo.regions import countries_in_subregion

    eastern = dataset.probe_codes("country").flags(
        *countries_in_subregion("eastern-europe")
    )[positions]
    tail = rtts[eu_mask & eastern]
    return {
        "eu_p95": float(np.percentile(eu, 95)),
        "na_p95": float(np.percentile(na, 95)),
        "eu_eastern_median": float(np.median(tail)) if len(tail) else float("nan"),
        "eu_western_median": float(np.median(rtts[eu_mask & ~eastern])),
    }


def provider_comparison(dataset: CampaignDataset) -> Frame:
    """Median RTT per provider (private vs public backbone).

    Not a paper figure, but backs the §4.1 note that providers differ in
    network infrastructure; ablated in the benchmark suite.
    """
    mask = unprivileged_mask(dataset)
    provider = dataset.target_codes("provider")
    rtts = dataset.column("rtt_min")[mask]
    present, groups = split_by_code(
        provider.codes[dataset.column("target_index")[mask]], rtts, len(provider.names)
    )
    records = []
    for code, values in zip(present, groups):
        records.append(
            {
                "provider": provider.names[code],
                "samples": int(len(values)),
                "median": float(np.median(values)),
                "p90": float(np.percentile(values, 90)),
            }
        )
    return Frame.from_records(records, columns=["provider", "samples", "median", "p90"])

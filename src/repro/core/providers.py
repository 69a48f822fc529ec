"""Multi-cloud provider comparison (the CloudCmp angle).

The paper motivates its own measurements by noting that "the most recent
multi-cloud measurement is a decade old" (CloudCmp, [40]).  This module
is the multi-cloud slice of the reproduction: per-provider reachability
by continent, provider rankings, and footprint-vs-performance framing —
the table a 2020 CloudCmp would have printed.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cloud.providers import get_provider
from repro.core.dataset import CampaignDataset
from repro.core.filtering import unprivileged_mask
from repro.errors import CampaignError
from repro.frame import Frame


def provider_continent_medians(dataset: CampaignDataset) -> Frame:
    """Long table: (provider, probe continent) -> median RTT and samples."""
    mask = unprivileged_mask(dataset)
    provider = dataset.target_codes("provider")
    continent = dataset.probe_codes("continent")
    providers = provider.codes[dataset.column("target_index")[mask]]
    continents = continent.codes[dataset.probe_positions()[mask]]
    rtts = dataset.column("rtt_min")[mask]
    records: List[dict] = []
    for source in np.unique(providers):
        provider_mask = providers == source
        for code in np.unique(continents[provider_mask]):
            values = rtts[provider_mask & (continents == code)]
            records.append(
                {
                    "provider": provider.names[source],
                    "continent": continent.names[code],
                    "median_ms": round(float(np.median(values)), 2),
                    "samples": int(len(values)),
                }
            )
    if not records:
        raise CampaignError("no samples for the provider comparison")
    return Frame.from_records(
        records, columns=["provider", "continent", "median_ms", "samples"]
    )


def provider_matrix(dataset: CampaignDataset) -> Frame:
    """Wide table: one row per provider, one column per continent."""
    long_table = provider_continent_medians(dataset)
    return long_table.select(["provider", "continent", "median_ms"]).pivot(
        index="provider", columns="continent", values="median_ms"
    )


def provider_rankings(dataset: CampaignDataset) -> Frame:
    """Providers ranked by median RTT within their shared footprint.

    Only probes' samples towards continents *every* provider serves are
    compared, removing the footprint confound (small providers have no
    Africa/Latin-America presence).
    """
    mask = unprivileged_mask(dataset)
    provider = dataset.target_codes("provider")
    target_continent = dataset.target_codes("continent")
    target_index = dataset.column("target_index")[mask]
    providers = provider.codes[target_index]
    target_continents = target_continent.codes[target_index]
    rtts = dataset.column("rtt_min")[mask]

    present = np.unique(providers)
    shared = None
    for source in present:
        served = set(np.unique(target_continents[providers == source]).tolist())
        shared = served if shared is None else shared & served
    if not shared:
        raise CampaignError("providers share no continent footprint")

    in_shared = np.isin(target_continents, list(shared))
    records = []
    for source in present:
        values = rtts[in_shared & (providers == source)]
        meta = get_provider(provider.names[source])
        records.append(
            {
                "provider": provider.names[source],
                "backbone": meta.backbone.value,
                "median_ms": round(float(np.median(values)), 2),
                "p90_ms": round(float(np.percentile(values, 90)), 2),
                "samples": int(len(values)),
            }
        )
    records.sort(key=lambda record: record["median_ms"])
    for rank, record in enumerate(records, start=1):
        record["rank"] = rank
    return Frame.from_records(
        records,
        columns=["rank", "provider", "backbone", "median_ms", "p90_ms", "samples"],
    )


def footprint_summary(dataset: CampaignDataset) -> Dict[str, Dict[str, float]]:
    """Per-provider footprint vs performance snapshot."""
    rankings = provider_rankings(dataset)
    out: Dict[str, Dict[str, float]] = {}
    for row in rankings.iter_rows():
        provider = str(row["provider"])
        regions = sum(
            1 for vm in dataset.targets if vm.region.provider_slug == provider
        )
        out[provider] = {
            "regions": regions,
            "rank": int(row["rank"]),
            "median_ms": float(row["median_ms"]),
        }
    return out

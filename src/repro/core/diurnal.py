"""Diurnal latency patterns.

The bufferbloat literature the paper leans on (Jiang et al.) shows
latency tracking the local traffic day: evening peaks, nighttime floors.
The campaign's timestamps plus probe longitudes let us reconstruct that
pattern from the synthetic dataset — a sanity check that the congestion
model behaves like the networks the paper measured, and an analysis the
published dataset supports directly.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.dataset import CampaignDataset
from repro.core.filtering import unprivileged_mask
from repro.errors import CampaignError
from repro.frame import Frame
from repro.net.congestion import local_hour


def _local_hours(dataset: CampaignDataset, mask: np.ndarray) -> np.ndarray:
    timestamps = dataset.column("timestamp")[mask]
    longitudes = dataset.probe_table("longitude")[dataset.probe_positions()[mask]]
    # Vectorized local_hour.
    utc_hours = (timestamps % 86_400) / 3_600.0
    return (utc_hours + longitudes / 15.0) % 24.0


def hourly_profile(dataset: CampaignDataset, continent: str = None) -> Frame:
    """Median RTT per local hour-of-day (optionally one continent)."""
    mask = unprivileged_mask(dataset)
    if continent is not None:
        mask = mask & dataset.probe_codes("continent").flags(continent)[
            dataset.probe_positions()
        ]
    if not np.any(mask):
        raise CampaignError(f"no samples for continent {continent!r}")
    hours = _local_hours(dataset, mask)
    rtts = dataset.column("rtt_min")[mask]
    records = []
    for hour in range(24):
        bucket = rtts[(hours >= hour) & (hours < hour + 1)]
        records.append(
            {
                "hour": hour,
                "samples": int(len(bucket)),
                "median": float(np.median(bucket)) if len(bucket) else float("nan"),
                "p90": float(np.percentile(bucket, 90)) if len(bucket) else float("nan"),
            }
        )
    return Frame.from_records(records, columns=["hour", "samples", "median", "p90"])


def peak_to_trough(dataset: CampaignDataset, continent: str = None) -> float:
    """Evening-peak / nighttime-trough ratio of hourly median RTT."""
    profile = hourly_profile(dataset, continent)
    medians = np.asarray(
        [m for m in profile["median"] if not np.isnan(m)], dtype=np.float64
    )
    if len(medians) < 12:
        raise CampaignError("not enough populated hours for a diurnal profile")
    return float(np.max(medians) / np.min(medians))


def peak_hour(dataset: CampaignDataset, continent: str = None) -> int:
    """Local hour with the worst median RTT."""
    profile = hourly_profile(dataset, continent)
    best_hour = None
    best_value = None
    for row in profile.iter_rows():
        value = row["median"]
        if np.isnan(value):
            continue
        if best_value is None or value > best_value:
            best_value = value
            best_hour = int(row["hour"])
    if best_hour is None:
        raise CampaignError("no populated hours")
    return best_hour


def continent_matrix(dataset: CampaignDataset) -> Dict[str, Dict[str, float]]:
    """Median RTT by (probe continent, target continent).

    Summarizes the §4.1 measurement design: within-continent cells plus
    the AF->EU and SA->NA fallbacks are populated; the rest are NaN.
    """
    mask = unprivileged_mask(dataset)
    probe_continent = dataset.probe_codes("continent")
    target_continent = dataset.target_codes("continent")
    probe_conts = probe_continent.codes[dataset.probe_positions()[mask]]
    target_conts = target_continent.codes[dataset.column("target_index")[mask]]
    rtts = dataset.column("rtt_min")[mask]
    matrix: Dict[str, Dict[str, float]] = {}
    for source in np.unique(probe_conts):
        row: Dict[str, float] = {}
        source_mask = probe_conts == source
        for target in np.unique(target_conts):
            values = rtts[source_mask & (target_conts == target)]
            row[target_continent.names[target]] = (
                float(np.median(values)) if len(values) else float("nan")
            )
        matrix[probe_continent.names[source]] = row
    return matrix

"""Headline statistics — the paper's in-text quantitative claims ("T1").

Collects every number the paper states in prose into one dataclass, so the
benchmark harness (and EXPERIMENTS.md) can print paper-vs-measured rows:

* 32 countries reach the cloud under 10 ms, another 21 within 10-20 ms;
* all but 16 countries meet the PL threshold (best case);
* ~80 % of EU/NA probes reach a datacenter within MTP (Fig 5);
* >75 % of NA/EU/OC *samples* below PL (Fig 6);
* wireless probes ~2.5x slower than wired (Fig 7);
* the Facebook checkpoint: most users reach cloud services within 40 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.constants import (
    MTP_MS,
    PAPER_COUNTRIES_10_TO_20MS,
    PAPER_COUNTRIES_OVER_PL,
    PAPER_COUNTRIES_UNDER_10MS,
    PAPER_FACEBOOK_MS,
    PAPER_WIRELESS_PENALTY,
    PL_MS,
)
from repro.core.dataset import CampaignDataset
from repro.core.distributions import samples_by_continent
from repro.core.lastmile import wireless_penalty
from repro.core.proximity import (
    bucket_counts,
    country_min_latency,
    countries_beyond_pl,
    min_rtt_cdf_by_continent,
    population_within,
)
from repro.errors import CampaignError


@dataclass(frozen=True)
class HeadlineReport:
    """Every in-text claim, measured on a campaign dataset."""

    samples: int
    probes: int
    countries: int
    targets: int
    countries_under_10ms: int
    countries_10_to_20ms: int
    countries_over_pl: int
    probe_share_under_mtp: Dict[str, float]
    sample_share_under_pl: Dict[str, float]
    wireless_penalty: float
    facebook_share_under_40ms: float
    population_share_under_pl: float

    # -- paper comparison ------------------------------------------------------

    def paper_comparison(self) -> Dict[str, Dict[str, float]]:
        """{claim: {paper: x, measured: y}} for every headline number."""
        return {
            "countries < 10 ms": {
                "paper": PAPER_COUNTRIES_UNDER_10MS,
                "measured": self.countries_under_10ms,
            },
            "countries 10-20 ms": {
                "paper": PAPER_COUNTRIES_10_TO_20MS,
                "measured": self.countries_10_to_20ms,
            },
            "countries > PL": {
                "paper": PAPER_COUNTRIES_OVER_PL,
                "measured": self.countries_over_pl,
            },
            "EU probes < MTP (share)": {
                "paper": 0.80,
                "measured": self.probe_share_under_mtp.get("EU", float("nan")),
            },
            "NA probes < MTP (share)": {
                "paper": 0.80,
                "measured": self.probe_share_under_mtp.get("NA", float("nan")),
            },
            "wireless penalty (x)": {
                "paper": PAPER_WIRELESS_PENALTY,
                "measured": self.wireless_penalty,
            },
            "samples < 40 ms, NA+EU (share)": {
                "paper": 0.75,  # "most users ... within 40 ms" (Facebook [60])
                "measured": self.facebook_share_under_40ms,
            },
        }

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"samples={self.samples:,}  probes={self.probes}  "
            f"countries={self.countries}  targets={self.targets}",
            f"countries <10ms: {self.countries_under_10ms}   "
            f"10-20ms: {self.countries_10_to_20ms}   "
            f">PL: {self.countries_over_pl}",
            "probe share under MTP: "
            + "  ".join(
                f"{c}={v:.0%}" for c, v in sorted(self.probe_share_under_mtp.items())
            ),
            "sample share under PL: "
            + "  ".join(
                f"{c}={v:.0%}" for c, v in sorted(self.sample_share_under_pl.items())
            ),
            f"wireless penalty: {self.wireless_penalty:.2f}x   "
            f"under-40ms share (NA+EU): {self.facebook_share_under_40ms:.0%}",
            f"population within PL (best case): {self.population_share_under_pl:.0%}",
        ]
        return "\n".join(lines)


def headline_report(dataset: CampaignDataset) -> HeadlineReport:
    """Compute every headline number from a campaign dataset."""
    country_frame = country_min_latency(dataset)
    buckets = bucket_counts(country_frame)
    cdfs = min_rtt_cdf_by_continent(dataset)
    probe_share_under_mtp = {
        continent: cdf.fraction_below(MTP_MS) for continent, cdf in cdfs.items()
    }
    by_continent = samples_by_continent(dataset)
    sample_share_under_pl = {
        continent: float(np.mean(values <= PL_MS))
        for continent, values in by_continent.items()
    }
    well_connected = [
        values for c, values in by_continent.items() if c in ("NA", "EU")
    ]
    if not well_connected:
        raise CampaignError("no NA/EU samples for the Facebook checkpoint")
    joined = np.concatenate(well_connected)
    return HeadlineReport(
        samples=dataset.num_samples,
        probes=dataset.probes_seen(),
        countries=len(country_frame),
        targets=len(dataset.targets),
        countries_under_10ms=buckets["<10 ms"],
        countries_10_to_20ms=buckets["10-20 ms"],
        countries_over_pl=len(countries_beyond_pl(country_frame)),
        probe_share_under_mtp=probe_share_under_mtp,
        sample_share_under_pl=sample_share_under_pl,
        wireless_penalty=wireless_penalty(dataset),
        facebook_share_under_40ms=float(np.mean(joined <= PAPER_FACEBOOK_MS)),
        population_share_under_pl=population_within(dataset, PL_MS),
    )

"""Dataset completeness: probe churn accounting.

Nine months of measurements never arrive complete — probes go offline,
reboot, or vanish.  The paper notes its results "include probes without a
stable Internet connection".  This analysis reconciles the dataset
against the platform's schedule: per probe, how many results were
expected (online ticks), how many arrived, and which cohorts flake.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.campaign import Campaign
from repro.core.dataset import CampaignDataset
from repro.errors import CampaignError
from repro.frame import Frame


def completeness_frame(campaign: Campaign, dataset: CampaignDataset) -> Frame:
    """Per-probe delivery accounting over the whole campaign."""
    if not campaign.measurement_ids:
        raise CampaignError("campaign has no measurements")
    platform = campaign.platform

    got_ids, got_counts = np.unique(dataset.column("probe_id"), return_counts=True)
    delivered = dict(zip(got_ids.tolist(), got_counts.tolist()))
    # One schedule pass per measurement window, summed per probe.
    ids, scheduled, expected = (
        np.concatenate(column)
        for column in zip(
            *(platform.tick_counts(msm_id) for msm_id in campaign.measurement_ids)
        )
    )
    probe_ids, inverse = np.unique(ids, return_inverse=True)
    scheduled = np.bincount(inverse, weights=scheduled).astype(np.int64).tolist()
    expected = np.bincount(inverse, weights=expected).astype(np.int64).tolist()

    records = []
    for probe_id, sched, exp in zip(probe_ids.tolist(), scheduled, expected):
        probe = platform.probe(probe_id)
        got = delivered.get(probe_id, 0)
        records.append(
            {
                "probe_id": probe_id,
                "country": probe.country_code,
                "wireless": probe.access.is_wireless,
                "stability": round(probe.stability, 4),
                "scheduled": sched,
                "expected": exp,
                "delivered": got,
                "completeness": round(got / exp, 4) if exp else 0.0,
                "uptime": round(exp / sched, 4) if sched else 0.0,
            }
        )
    return Frame.from_records(
        records,
        columns=[
            "probe_id", "country", "wireless", "stability",
            "scheduled", "expected", "delivered", "completeness", "uptime",
        ],
    )


def fleet_summary(frame: Frame, stats=None) -> Dict[str, float]:
    """Aggregate completeness statistics.

    Pass a campaign's :class:`~repro.core.campaign.CollectionStats` to
    fold in what the *collector* had to absorb — quarantined malformed
    blobs and dropped duplicate results are missing-data causes on the
    client side of the API, exactly like probe churn is on the probe
    side, so this report is where they surface.
    """
    delivered = float(np.sum(frame["delivered"]))
    expected = float(np.sum(frame["expected"]))
    scheduled = float(np.sum(frame["scheduled"]))
    wireless_mask = frame["wireless"].astype(bool)
    uptimes = frame["uptime"].astype(float)
    summary = {
        "probes": len(frame),
        "delivery_rate": delivered / expected if expected else 0.0,
        "uptime_rate": expected / scheduled if scheduled else 0.0,
        "wired_uptime": float(np.mean(uptimes[~wireless_mask])),
        "wireless_uptime": float(np.mean(uptimes[wireless_mask]))
        if np.any(wireless_mask)
        else float("nan"),
    }
    if stats is not None:
        summary["quarantined"] = float(stats.quarantined)
        summary["duplicates_dropped"] = float(stats.duplicates_dropped)
        summary["interruptions"] = float(stats.interruptions)
        summary["quarantine_share"] = (
            stats.quarantined / (delivered + stats.quarantined)
            if delivered + stats.quarantined
            else 0.0
        )
    return summary


def collection_health(campaign) -> Dict[str, object]:
    """One-stop health report: collector stats + transport fault/retry
    accounting, for chaos benchmarks and the CLI.  Uses the campaign's
    aggregated view so parallel-collection worker transports are folded
    in alongside the main transport."""
    return {
        **campaign.collection_stats.as_dict(),
        "transport": campaign.transport_stats(),
    }


def health_report(
    campaign: Campaign, dataset: CampaignDataset = None
) -> Dict[str, object]:
    """The full campaign health picture, JSON-serializable.

    Combines :func:`collection_health` (collector + transport
    accounting), a :func:`fleet_summary` over the delivered dataset when
    one is given, and — for an instrumented campaign — the metrics
    snapshot of its observability context.  Backs ``repro report
    --health`` and ``repro obs report``.
    """
    report: Dict[str, object] = {"collection": collection_health(campaign)}
    # A dataset served from the persistent store (cache hit or
    # --from-store) arrives without live measurements to reconcile
    # against, so per-probe delivery accounting is undefined for it.
    if dataset is not None and campaign.measurement_ids:
        report["fleet"] = fleet_summary(
            completeness_frame(campaign, dataset), stats=campaign.collection_stats
        )
    supervision = getattr(campaign, "supervision", None)
    if supervision is not None:
        # A supervised collection's casualty report: crashes, hangs,
        # respawns, and any quarantined windows (degraded coverage).
        report["supervision"] = supervision.as_dict()
    if campaign.obs.enabled:
        report["metrics"] = campaign.obs.registry.snapshot()
    return report

"""Nearest-datacenter sample selection.

Figures 6 and 7 are defined over pings "to the closest datacenter": for
each probe, the target region with the lowest typical RTT.  This module
identifies that region per probe (by median RTT over the given samples)
and returns the mask of samples towards it — fully vectorized, since the
inner loop would otherwise dominate analysis time on million-sample
datasets.  A report asks for the same few masks (unprivileged, wired,
wireless) many times, so each mask's answer is memoized on the frozen
dataset under a digest of the mask's bytes.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

from repro.core.dataset import CampaignDataset
from repro.errors import CampaignError


def nearest_target_by_probe(
    dataset: CampaignDataset, mask: np.ndarray
) -> Dict[int, int]:
    """Per-probe nearest target index (lowest median RTT), over ``mask``."""
    mask = np.asarray(mask)
    digest = hashlib.sha256(mask.tobytes()).hexdigest()
    key = f"nearest_target:{mask.dtype.str}:{mask.shape}:{digest}"
    return dataset._memoized(key, lambda: _nearest_targets(dataset, mask))


def _nearest_targets(
    dataset: CampaignDataset, mask: np.ndarray
) -> Dict[int, int]:
    probe_ids = dataset.column("probe_id")[mask]
    targets = dataset.column("target_index")[mask]
    rtts = dataset.column("rtt_min")[mask]
    if len(probe_ids) == 0:
        raise CampaignError("no samples selected for nearest-target analysis")

    num_targets = len(dataset.targets)
    pair_key = probe_ids.astype(np.int64) * num_targets + targets
    # Order rows by (probe, target, RTT) with one integer sort: rank the
    # RTTs (NaN last; tied values are interchangeable), then sort
    # pair_key * rows + rank.
    rows = len(rtts)
    by_rtt = np.argsort(rtts)
    rank = np.empty(rows, dtype=np.int64)
    rank[by_rtt] = np.arange(rows)
    ordered = np.sort(pair_key * rows + rank)
    sorted_key = ordered // rows
    sorted_rtt = rtts[by_rtt][ordered % rows]

    boundaries = np.flatnonzero(np.diff(sorted_key)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_key)]))
    # Lower median of each (probe, target) group.
    medians = sorted_rtt[(starts + ends - 1) // 2]
    group_probe = (sorted_key[starts] // num_targets).astype(np.int64)
    group_target = (sorted_key[starts] % num_targets).astype(np.int64)

    # Per probe (groups are probe-major, targets ascending), the first
    # target with the lowest median: lexsort is stable and sorts NaN
    # last.  A probe whose first median is NaN keeps its first target,
    # since no median compares below NaN.
    firsts = np.concatenate(([0], np.flatnonzero(np.diff(group_probe)) + 1))
    lowest = np.lexsort((medians, group_probe))[firsts]
    chosen = np.where(np.isnan(medians[firsts]), firsts, lowest)
    return dict(zip(group_probe[firsts].tolist(), group_target[chosen].tolist()))


def nearest_target_mask(dataset: CampaignDataset, mask: np.ndarray) -> np.ndarray:
    """Restrict ``mask`` to each probe's nearest-region samples."""
    best = nearest_target_by_probe(dataset, mask)
    probe_ids = dataset.column("probe_id")
    targets = dataset.column("target_index")
    # Lookup table over the probe-id range (ids are dense and small).
    max_id = int(probe_ids.max())
    table = np.full(max_id + 2, -1, dtype=np.int64)
    table[list(best)] = list(best.values())
    return mask & (table[probe_ids] == targets)

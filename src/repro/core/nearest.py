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


def _mask_key(kind: str, mask: np.ndarray) -> str:
    """A memo key naming ``mask`` by its bytes."""
    digest = hashlib.sha256(mask.tobytes()).hexdigest()
    return f"{kind}:{mask.dtype.str}:{mask.shape}:{digest}"


def nearest_target_by_probe(
    dataset: CampaignDataset, mask: np.ndarray
) -> Dict[int, int]:
    """Per-probe nearest target index (lowest median RTT), over ``mask``."""
    mask = np.asarray(mask)
    return dataset._memoized(
        _mask_key("nearest_target", mask), lambda: _nearest_targets(dataset, mask)
    )


def _ranked(values: np.ndarray):
    """``values`` in ascending order (NaN last) and each value's rank, as
    int64.  Tied values are interchangeable, so any order among them
    will do.  The argsort permutation dies on return, so the caller
    holds 16 B a value from then on."""
    order = np.argsort(values)
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.arange(len(values))
    return values[order], ranks


def _nearest_targets(
    dataset: CampaignDataset, mask: np.ndarray
) -> Dict[int, int]:
    ascending, key = _ranked(dataset.column("rtt_min")[mask])
    rows = len(key)
    if rows == 0:
        raise CampaignError("no samples selected for nearest-target analysis")

    # Lower median of each (target, probe) flow: number each row's flow
    # target index * probes + probe position, sort flow * rows + rank in
    # place and read the rank at each flow's lower-median position.
    # np.bincount counts each flow's rows in key order, so the rows may
    # come in any order.
    probes = len(dataset.probes)
    flows = dataset.column("target_index")[mask].astype(np.int64)
    flows *= probes
    flows += dataset.probe_positions()[mask]
    counts = np.bincount(flows, minlength=len(dataset.targets) * probes)
    flows *= rows
    key += flows
    key.sort()
    present = np.flatnonzero(counts)
    counts = counts[present]
    lower_median = np.cumsum(counts) - counts + (counts - 1) // 2
    medians = ascending[key[lower_median] - present * rows]
    flow_target, flow_probe = np.divmod(present, probes)

    # Per probe, the first target with the lowest median: ordering the
    # flows by (probe id, target), lexsort is stable and sorts NaN last.
    # A probe whose first median is NaN keeps its first target, since no
    # median compares below NaN.
    flow_probe = dataset.probe_table("probe_id")[flow_probe]
    order = np.lexsort((flow_target, flow_probe))
    group_probe, group_target = flow_probe[order], flow_target[order]
    medians = medians[order]
    firsts = np.concatenate(([0], np.flatnonzero(np.diff(group_probe)) + 1))
    lowest = np.lexsort((medians, group_probe))[firsts]
    chosen = np.where(np.isnan(medians[firsts]), firsts, lowest)
    return dict(zip(group_probe[firsts].tolist(), group_target[chosen].tolist()))


def nearest_target_mask(dataset: CampaignDataset, mask: np.ndarray) -> np.ndarray:
    """Restrict ``mask`` to each probe's nearest-region samples
    (memoized per mask, read-only)."""
    mask = np.asarray(mask)
    return dataset._memoized(
        _mask_key("nearest_mask", mask), lambda: _nearest_mask(dataset, mask)
    )


def _nearest_mask(dataset: CampaignDataset, mask: np.ndarray) -> np.ndarray:
    best = nearest_target_by_probe(dataset, mask)
    # Each probe position's nearest target index, -1 where it has none.
    table = np.asarray(
        [best.get(pid, -1) for pid in dataset.probe_table("probe_id").tolist()],
        dtype=np.int32,
    )
    return mask & (table[dataset.probe_positions()] == dataset.column("target_index"))

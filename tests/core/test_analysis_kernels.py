"""Properties of the position-keyed analysis kernels.

The kernels look probe attributes up through each sample's probe
position, group by small-int codes and take nearest-target medians over
flows numbered by target and probe position; Figure 7 restricts the
unprivileged nearest mask to each cohort and buckets its rows once.
Over small hand-built datasets (gapped probe ids, probe tables in any
order, NaN RTTs, one-row flows, tied medians) they must equal the
spelled-out oracles, which look each row's probe up by id, and give the
same answers whether the rows come in the canonical (target, probe,
time) order or shuffled.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas.population import generate_population
from repro.atlas.tags import classify_lastmile, is_privileged
from repro.cloud.vm import deploy_fleet
from repro.core.dataset import CampaignDataset
from repro.core.distributions import samples_by_continent
from repro.core.filtering import cohort_masks, unprivileged_mask
from repro.core.lastmile import cohort_timeseries, wireless_penalty
from repro.core.nearest import nearest_target_by_probe, nearest_target_mask
from repro.core.paper_report import generate_report
from repro.core.proximity import per_probe_min
from repro.errors import CampaignError
from tests.core.test_filtering import (
    probe_attribute,
    reference_cohort_masks,
    reference_unprivileged_mask,
)
from tests.core.test_lastmile import reference_cohort_timeseries, same_frame
from tests.core.test_nearest import reference_nearest

#: One probe per (last-mile cohort, privileged) pair: their tags decide
#: the cohort and the privileged filter; the country is drawn apart.
TEMPLATES = tuple(
    {
        (classify_lastmile(probe.tags), is_privileged(probe.tags)): probe
        for probe in reversed(generate_population(seed=2))
    }.values()
)
COUNTRIES = ("DE", "FR", "US", "BR")
#: Few distinct values, so medians tie; 40 ms is over 6x the others, so
#: some baselines fail the country check.
RTTS = (1.0, 2.0, 3.0, 40.0, math.nan)
FLEET = deploy_fleet()[:3]
COLUMNS = ("probe_id", "target_index", "timestamp", "rtt_min", "rtt_avg", "sent", "rcvd")


@st.composite
def campaigns(draw):
    """A probe table in any order over gapped ids, and its samples in the
    canonical order: target-major, then probe table order, then time."""
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))
    probes = [
        dataclasses.replace(
            draw(st.sampled_from(TEMPLATES)),
            probe_id=pid,
            country_code=draw(st.sampled_from(COUNTRIES)),
        )
        for pid in ids
    ]
    targets = FLEET[: draw(st.integers(1, len(FLEET)))]
    rows = []
    for target in range(len(targets)):
        for probe in probes:
            for tick in range(draw(st.integers(0, 4))):
                rows.append((probe.probe_id, target, tick, draw(st.sampled_from(RTTS))))
    if not rows:
        rows.append((probes[0].probe_id, 0, 0, 1.0))
    pid, target, tick, rtt = (np.asarray(column) for column in zip(*rows))
    columns = {
        "probe_id": pid,
        "target_index": target,
        "timestamp": tick,
        "rtt_min": rtt,
        "rtt_avg": rtt,
        "sent": np.full(len(rows), 3),
        "rcvd": np.where(np.isnan(rtt), 0, 3),
    }
    shuffle = np.asarray(draw(st.permutations(range(len(rows)))), dtype=np.intp)
    return probes, targets, columns, shuffle


def build(probes, targets, columns, rows=slice(None)) -> CampaignDataset:
    return CampaignDataset.from_columns(
        probes, targets, {name: columns[name][rows] for name in COLUMNS}
    )


def report_masks(dataset: CampaignDataset) -> Dict[str, np.ndarray]:
    """Every mask the report takes nearest targets over, plus all rows
    (failed pings, so NaN medians)."""
    return {
        "all": np.ones(len(dataset), dtype=bool),
        "unprivileged": unprivileged_mask(dataset),
        **cohort_masks(dataset),
    }


def reference_samples_by_continent(
    dataset: CampaignDataset, nearest_only: bool
) -> Dict[str, np.ndarray]:
    """Valid RTTs per probe continent from per-sample strings, with the
    nearest-target mask spelled out from :func:`reference_nearest`."""
    mask = reference_unprivileged_mask(dataset)
    if nearest_only:
        best = reference_nearest(dataset, mask)
        nearest = [
            best.get(int(pid), -1) == target
            for pid, target in zip(
                dataset.column("probe_id"), dataset.column("target_index")
            )
        ]
        mask = mask & np.asarray(nearest, dtype=bool)
    continents = probe_attribute(dataset, lambda probe: probe.continent)[mask]
    rtts = dataset.column("rtt_min")[mask]
    return {str(c): rtts[continents == c] for c in np.unique(continents)}


def reference_minima(dataset: CampaignDataset) -> Dict[int, float]:
    mask = reference_unprivileged_mask(dataset)
    probe_ids = dataset.column("probe_id")
    rtts = dataset.column("rtt_min")
    return {
        int(pid): float(np.min(rtts[mask & (probe_ids == pid)]))
        for pid in np.unique(probe_ids[mask])
    }


def same_values(left: Dict, right: Dict) -> bool:
    """Equal keys and equal values, NaN equal to NaN."""
    return left.keys() == right.keys() and all(
        np.array_equal(left[key], right[key], equal_nan=True) for key in left
    )


@settings(max_examples=80, deadline=None)
@given(campaigns())
def test_kernels_match_the_oracles_in_any_row_order(campaign):
    probes, targets, columns, shuffle = campaign
    canonical = build(probes, targets, columns)
    shuffled = build(probes, targets, columns, shuffle)

    for dataset in (canonical, shuffled):
        assert np.array_equal(
            unprivileged_mask(dataset), reference_unprivileged_mask(dataset)
        )
        cohorts, expected = cohort_masks(dataset), reference_cohort_masks(dataset)
        assert same_values(cohorts, expected)
        for mask in report_masks(dataset).values():
            if mask.any():
                assert nearest_target_by_probe(dataset, mask) == reference_nearest(
                    dataset, mask
                )
        # A cohort keeps whole probes of the unprivileged mask, so its
        # nearest mask is the unprivileged one's restricted to it.
        for mask in cohorts.values():
            if mask.any():
                assert np.array_equal(
                    nearest_target_mask(dataset, mask),
                    mask & nearest_target_mask(dataset, unprivileged_mask(dataset)),
                )
        if all(mask.any() for mask in cohorts.values()):
            assert same_frame(
                cohort_timeseries(dataset, bucket_s=2),
                reference_cohort_timeseries(dataset, 2),
            )
        else:
            for product in (cohort_timeseries, wireless_penalty):
                with pytest.raises(CampaignError, match="no samples in cohort"):
                    product(dataset)
        if unprivileged_mask(dataset).any():
            assert same_values(per_probe_min(dataset), reference_minima(dataset))
            for nearest_only in (True, False):
                assert same_values(
                    samples_by_continent(dataset, nearest_only),
                    reference_samples_by_continent(dataset, nearest_only),
                )
        else:
            with pytest.raises(CampaignError):
                per_probe_min(dataset)

    # The same rows give the same answers in either order.
    for name, mask in report_masks(canonical).items():
        moved = report_masks(shuffled)[name]
        assert np.array_equal(moved, mask[shuffle])
        if mask.any():
            assert nearest_target_by_probe(shuffled, moved) == nearest_target_by_probe(
                canonical, mask
            )
            assert np.array_equal(
                nearest_target_mask(shuffled, moved),
                nearest_target_mask(canonical, mask)[shuffle],
            )
    if unprivileged_mask(canonical).any():
        assert same_values(per_probe_min(shuffled), per_probe_min(canonical))
        for nearest_only in (True, False):
            assert same_values(
                {k: np.sort(v) for k, v in samples_by_continent(shuffled, nearest_only).items()},
                {k: np.sort(v) for k, v in samples_by_continent(canonical, nearest_only).items()},
            )


def _arrays(value):
    """The numpy arrays a memoized product holds, at any depth."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for member in value.values():
            yield from _arrays(member)
    elif isinstance(value, (tuple, list)):
        for member in value:
            yield from _arrays(member)


def test_report_memoizes_no_per_sample_strings(tiny_dataset):
    """The report's derived products are codes, positions, masks and
    per-probe tables: none is an array of strings or objects."""
    dataset = CampaignDataset.from_columns(
        tiny_dataset.probes,
        tiny_dataset.targets,
        {name: tiny_dataset.column(name) for name in COLUMNS},
    )
    generate_report(dataset, seed=7)
    assert dataset._derived
    kinds = {
        key: array.dtype.kind
        for key, value in dataset._derived.items()
        for array in _arrays(value)
    }
    assert not {key: kind for key, kind in kinds.items() if kind in "USO"}

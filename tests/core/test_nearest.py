"""Tests for repro.core.nearest."""

import dataclasses
from typing import Dict

import numpy as np
import pytest

from repro.atlas.population import generate_population
from repro.cloud.vm import deploy_fleet
from repro.core.dataset import CampaignDataset
from repro.core.filtering import cohort_masks, unprivileged_mask
from repro.core.nearest import nearest_target_by_probe, nearest_target_mask
from repro.errors import CampaignError


def reference_nearest(dataset: CampaignDataset, mask: np.ndarray) -> Dict[int, int]:
    """Lower median per (probe, target) by lexsort, then a scan over the
    groups keeping the first strictly lower median (the oracle)."""
    probe_ids = dataset.column("probe_id")[mask]
    targets = dataset.column("target_index")[mask]
    rtts = dataset.column("rtt_min")[mask]
    num_targets = len(dataset.targets)
    pair_key = probe_ids.astype(np.int64) * num_targets + targets
    order = np.lexsort((rtts, pair_key))
    sorted_key, sorted_rtt = pair_key[order], rtts[order]
    boundaries = np.flatnonzero(np.diff(sorted_key)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_key)]))
    medians = sorted_rtt[(starts + ends - 1) // 2]
    best: Dict[int, int] = {}
    best_median: Dict[int, float] = {}
    for key, median in zip(sorted_key[starts], medians):
        probe, target = divmod(int(key), num_targets)
        if probe not in best or median < best_median[probe]:
            best[probe] = target
            best_median[probe] = float(median)
    return best


class TestNearestTargetByProbe:
    def test_every_probe_gets_a_target(self, tiny_dataset):
        mask = unprivileged_mask(tiny_dataset)
        best = nearest_target_by_probe(tiny_dataset, mask)
        probes_in_mask = set(np.unique(tiny_dataset.column("probe_id")[mask]))
        assert set(best) == {int(p) for p in probes_in_mask}

    def test_chosen_target_has_lowest_median(self, tiny_dataset):
        mask = unprivileged_mask(tiny_dataset)
        best = nearest_target_by_probe(tiny_dataset, mask)
        probe_ids = tiny_dataset.column("probe_id")
        targets = tiny_dataset.column("target_index")
        rtts = tiny_dataset.column("rtt_min")
        # Spot-check a handful of probes against a brute-force search.
        for probe_id in list(best)[:5]:
            probe_mask = mask & (probe_ids == probe_id)
            medians = {}
            for target in np.unique(targets[probe_mask]):
                values = np.sort(rtts[probe_mask & (targets == target)])
                # Lower-median convention, matching the implementation.
                medians[int(target)] = float(values[(len(values) - 1) // 2])
            brute = min(medians, key=medians.get)
            assert medians[best[probe_id]] <= medians[brute] + 1e-9

    def test_empty_mask_rejected(self, tiny_dataset):
        empty = np.zeros(len(tiny_dataset), dtype=bool)
        with pytest.raises(CampaignError):
            nearest_target_by_probe(tiny_dataset, empty)


class TestNearestTargetMask:
    def test_subset_of_input(self, tiny_dataset):
        mask = unprivileged_mask(tiny_dataset)
        nearest = nearest_target_mask(tiny_dataset, mask)
        assert not np.any(nearest & ~mask)

    def test_single_target_per_probe(self, tiny_dataset):
        mask = unprivileged_mask(tiny_dataset)
        nearest = nearest_target_mask(tiny_dataset, mask)
        probe_ids = tiny_dataset.column("probe_id")[nearest]
        targets = tiny_dataset.column("target_index")[nearest]
        for probe_id in np.unique(probe_ids)[:20]:
            assert len(np.unique(targets[probe_ids == probe_id])) == 1

    def test_lowers_median(self, tiny_dataset):
        """Nearest-only samples are faster than all-targets samples."""
        mask = unprivileged_mask(tiny_dataset)
        nearest = nearest_target_mask(tiny_dataset, mask)
        rtts = tiny_dataset.column("rtt_min")
        assert np.median(rtts[nearest]) < np.median(rtts[mask])

    def test_memoized_per_mask_and_read_only(self, tiny_dataset, monkeypatch):
        import repro.core.nearest as nearest_module

        masks = [unprivileged_mask(tiny_dataset), *cohort_masks(tiny_dataset).values()]
        first = [nearest_target_mask(tiny_dataset, mask) for mask in masks]
        for mask, nearest in zip(masks, first):
            best = reference_nearest(tiny_dataset, mask)
            probe_ids = tiny_dataset.column("probe_id")
            targets = tiny_dataset.column("target_index")
            expected = mask & np.array(
                [best.get(int(p), -1) == t for p, t in zip(probe_ids, targets)]
            )
            assert np.array_equal(nearest, expected)
            assert not nearest.flags.writeable

        def uncached(*args):
            raise AssertionError("an equal mask was computed again")

        monkeypatch.setattr(nearest_module, "_nearest_mask", uncached)
        again = [nearest_target_mask(tiny_dataset, mask.copy()) for mask in masks]
        assert all(a is b for a, b in zip(again, first))


class TestNearestOracle:
    def test_matches_reference_on_every_report_mask(self, tiny_dataset):
        masks = [
            unprivileged_mask(tiny_dataset),
            np.ones(len(tiny_dataset), dtype=bool),  # failed pings: NaN RTTs
            *cohort_masks(tiny_dataset).values(),
        ]
        for mask in masks:
            assert nearest_target_by_probe(tiny_dataset, mask) == reference_nearest(
                tiny_dataset, mask
            )

    def test_ties_and_nan_medians(self):
        """Ties go to the lower target index; a NaN median never wins
        against an earlier number, and an earlier NaN is never beaten."""
        template = generate_population(seed=2)[0]
        probes = [dataclasses.replace(template, probe_id=pid) for pid in (1, 2, 3)]
        nan = float("nan")
        samples = [
            (1, 0, nan), (1, 0, nan), (1, 1, 5.0),  # first median NaN
            (2, 0, 7.0), (2, 1, 7.0), (2, 2, 8.0),  # tie at 7.0
            (3, 0, 9.0), (3, 1, nan), (3, 2, 3.0), (3, 2, 4.0),
        ]
        probe_ids, targets, rtts = (np.asarray(col) for col in zip(*samples))
        count = len(rtts)
        dataset = CampaignDataset.from_columns(
            probes,
            deploy_fleet()[:3],
            {
                "probe_id": probe_ids,
                "target_index": targets,
                "timestamp": np.arange(count),
                "rtt_min": rtts,
                "rtt_avg": rtts,
                "sent": np.full(count, 3),
                "rcvd": np.where(np.isnan(rtts), 0, 3),
            },
        )
        mask = np.ones(count, dtype=bool)
        expected = {1: 0, 2: 0, 3: 2}
        assert reference_nearest(dataset, mask) == expected
        assert nearest_target_by_probe(dataset, mask) == expected

"""Tests for repro.core.filtering."""

import dataclasses
from typing import Dict

import numpy as np

from repro.atlas.population import generate_population
from repro.cloud.vm import deploy_fleet
from repro.core.dataset import CampaignDataset
from repro.core.filtering import (
    BASELINE_TOLERANCE,
    cohort_masks,
    cohort_sizes,
    unprivileged_mask,
)


def reference_cohort_masks(dataset: CampaignDataset) -> Dict[str, np.ndarray]:
    """The cohort filter spelled out probe by probe: one full-length
    mask per country and per probe (the oracle for the grouped one)."""
    base = unprivileged_mask(dataset)
    cohorts = dataset.probe_cohorts()
    rtt = dataset.column("rtt_min")
    countries = dataset.probe_countries()
    probe_ids = dataset.column("probe_id")

    country_median: Dict[str, float] = {}
    for country in np.unique(countries[base]):
        values = rtt[base & (countries == country)]
        if len(values):
            country_median[str(country)] = float(np.median(values))

    masks: Dict[str, np.ndarray] = {}
    for cohort in ("wired", "wireless"):
        mask = base & (cohorts == cohort)
        keep = mask.copy()
        for probe_id in np.unique(probe_ids[mask]):
            probe_mask = mask & (probe_ids == probe_id)
            values = rtt[probe_mask]
            if not len(values):
                continue
            country = str(countries[probe_mask][0])
            reference = country_median.get(country)
            if reference is None or reference <= 0:
                continue
            baseline = float(np.median(values))
            if baseline > reference * BASELINE_TOLERANCE:
                keep &= ~probe_mask
        masks[cohort] = keep
    return masks


def assert_matches_reference(dataset: CampaignDataset) -> None:
    masks = cohort_masks(dataset)
    expected = reference_cohort_masks(dataset)
    assert set(masks) == set(expected) == {"wired", "wireless"}
    for cohort, mask in masks.items():
        assert np.array_equal(mask, expected[cohort]), cohort


class TestUnprivilegedMask:
    def test_excludes_failed_pings(self, tiny_dataset):
        mask = unprivileged_mask(tiny_dataset)
        rcvd = tiny_dataset.column("rcvd")
        assert not np.any(rcvd[mask] == 0)

    def test_excludes_tagged_privileged(self, tiny_dataset):
        mask = unprivileged_mask(tiny_dataset)
        privileged = tiny_dataset.probe_privileged()
        assert not np.any(privileged[mask])

    def test_untagged_privileged_slip_through(self, tiny_dataset):
        """The filter sees tags, not ground truth: some datacenter probes
        hide (the real study had the same blind spot)."""
        mask = unprivileged_mask(tiny_dataset)
        probe_ids = set(np.unique(tiny_dataset.column("probe_id")[mask]))
        hidden = [
            p for p in tiny_dataset.probes
            if p.environment.is_privileged
            and "datacentre" not in p.user_tags
            and "cloud" not in p.user_tags
            and p.probe_id in probe_ids
        ]
        # With ~300 privileged probes and 80% tagging, some hide.
        assert hidden


class TestCohorts:
    def test_masks_disjoint(self, tiny_dataset):
        masks = cohort_masks(tiny_dataset)
        assert not np.any(masks["wired"] & masks["wireless"])

    def test_cohorts_exclude_privileged(self, tiny_dataset):
        masks = cohort_masks(tiny_dataset)
        privileged = tiny_dataset.probe_privileged()
        for mask in masks.values():
            assert not np.any(privileged[mask])

    def test_cohort_membership_matches_tags(self, tiny_dataset):
        masks = cohort_masks(tiny_dataset)
        cohorts = tiny_dataset.probe_cohorts()
        assert set(np.unique(cohorts[masks["wired"]])) <= {"wired"}
        assert set(np.unique(cohorts[masks["wireless"]])) <= {"wireless"}

    def test_sizes_positive(self, tiny_dataset):
        wired, wireless = cohort_sizes(tiny_dataset)
        assert wired > wireless > 0


class TestCohortOracle:
    """The grouped cohort filter equals the probe-by-probe oracle."""

    def test_tiny_dataset(self, tiny_dataset):
        assert_matches_reference(tiny_dataset)

    def test_store_reopened_dataset(self, tiny_dataset, tmp_path):
        tiny_dataset.save(tmp_path / "store", provenance={"seed": 7})
        reopened = CampaignDataset.open(
            tmp_path / "store",
            probes=tiny_dataset.probes,
            targets=tiny_dataset.targets,
        )
        assert_matches_reference(reopened)
        for cohort, mask in cohort_masks(reopened).items():
            assert np.array_equal(mask, cohort_masks(tiny_dataset)[cohort])

    def test_baseline_tolerance_is_strict(self):
        """A wired probe whose baseline sits exactly at 6x its country
        median stays; one past it is dropped; medians are per country."""
        template = generate_population(seed=2)[0]

        def probe(probe_id, country, tag):
            return dataclasses.replace(
                template, probe_id=probe_id, country_code=country, user_tags=(tag,)
            )

        probes = [probe(pid, "DE", "ethernet") for pid in (1, 2, 3, 4)]
        probes += [
            probe(5, "DE", "ethernet"),  # baseline exactly at tolerance
            probe(6, "DE", "ethernet"),  # baseline past tolerance
            probe(7, "DE", "lte"),
            probe(8, "FR", "ethernet"),  # alone in its country
            probe(9, "DE", "datacentre"),  # privileged: never a yardstick
        ]
        rows = [(pid, 10.0, 10) for pid in (1, 2, 3, 4)]
        rows += [(5, 10.0 * BASELINE_TOLERANCE, 5), (6, 60.5, 5), (7, 20.0, 10)]
        rows += [(8, 100.0, 4), (9, 1.0, 80)]
        probe_ids = np.concatenate([np.full(n, pid) for pid, _, n in rows])
        rtt = np.concatenate([np.full(n, value) for _, value, n in rows])
        count = len(rtt)
        rcvd = np.full(count, 3)
        rcvd[0] = 0  # one failed ping: excluded from every median
        rtt[0] = np.nan
        dataset = CampaignDataset.from_columns(
            probes,
            deploy_fleet()[:1],
            {
                "probe_id": probe_ids,
                "target_index": np.zeros(count),
                "timestamp": np.arange(count),
                "rtt_min": rtt,
                "rtt_avg": rtt,
                "sent": np.full(count, 3),
                "rcvd": rcvd,
            },
        )
        masks = cohort_masks(dataset)
        kept = {
            cohort: set(np.unique(probe_ids[mask]).tolist())
            for cohort, mask in masks.items()
        }
        assert kept == {"wired": {1, 2, 3, 4, 5, 8}, "wireless": {7}}
        assert not masks["wired"][0]
        assert masks["wired"].sum() == 9 + 3 * 10 + 5 + 4
        assert_matches_reference(dataset)

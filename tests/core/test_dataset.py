"""Tests for repro.core.dataset."""

import math

import numpy as np
import pytest

from repro.atlas.population import generate_population
from repro.cloud.vm import deploy_fleet
from repro.core.dataset import CampaignDataset, _SampleBuffer
from repro.core.filtering import cohort_masks, unprivileged_mask
from repro.core.nearest import nearest_target_by_probe
from repro.core.proximity import per_probe_min
from repro.errors import CampaignError


@pytest.fixture
def dataset() -> CampaignDataset:
    probes = generate_population(seed=2)[:5]
    targets = deploy_fleet()[:3]
    ds = CampaignDataset(probes, targets)
    for k, probe in enumerate(probes):
        failed = k == 4
        ds.append(
            probe_id=probe.probe_id,
            target_key=targets[k % 3].key,
            timestamp=1_567_296_000 + k * 100,
            rtt_min=math.nan if failed else 10.0 + k,
            rtt_avg=math.nan if failed else 12.0 + k,
            sent=3,
            rcvd=0 if failed else 3,
        )
    return ds


class TestConstruction:
    def test_requires_probes_and_targets(self):
        with pytest.raises(CampaignError):
            CampaignDataset([], deploy_fleet()[:1])
        with pytest.raises(CampaignError):
            CampaignDataset(generate_population(seed=2)[:1], [])

    def test_unknown_target_key(self, dataset):
        with pytest.raises(CampaignError):
            dataset.target_index_of("aws:mars-1")

    def test_unknown_probe(self, dataset):
        with pytest.raises(CampaignError):
            dataset.probe(1)


class TestFreeze:
    def test_length(self, dataset):
        assert len(dataset) == 5

    def test_append_after_freeze_rejected(self, dataset):
        dataset.freeze()
        with pytest.raises(CampaignError):
            dataset.append(dataset.probes[0].probe_id, dataset.targets[0].key,
                           0, 1.0, 1.0, 3, 3)

    def test_freeze_idempotent(self, dataset):
        dataset.freeze()
        dataset.freeze()
        assert len(dataset) == 5

    def test_column_dtypes(self, dataset):
        assert dataset.column("probe_id").dtype == np.int32
        assert dataset.column("rtt_min").dtype == np.float64
        assert dataset.column("sent").dtype == np.int16

    def test_unknown_column(self, dataset):
        with pytest.raises(CampaignError):
            dataset.column("nope")


class TestDerivedVectors:
    def test_probe_lookup_alignment(self, dataset):
        countries = dataset.probe_countries()
        for i in range(len(dataset)):
            probe_id = int(dataset.column("probe_id")[i])
            assert countries[i] == dataset.probe(probe_id).country_code

    def test_target_vectors(self, dataset):
        providers = dataset.target_providers()
        continents = dataset.target_continents()
        for i in range(len(dataset)):
            vm = dataset.targets[int(dataset.column("target_index")[i])]
            assert providers[i] == vm.region.provider_slug
            assert continents[i] == vm.region.continent

    def test_succeeded_mask(self, dataset):
        mask = dataset.succeeded_mask()
        assert list(mask) == [True, True, True, True, False]


class TestFrameView:
    def test_to_frame_columns(self, dataset):
        frame = dataset.to_frame()
        assert set(frame.columns) >= {
            "probe_id", "country", "continent", "cohort", "privileged",
            "target", "provider", "timestamp", "rtt_min",
        }
        assert len(frame) == 5

    def test_to_frame_with_mask(self, dataset):
        frame = dataset.to_frame(dataset.succeeded_mask())
        assert len(frame) == 4


class TestIntegrity:
    def test_report(self, dataset):
        report = dataset.integrity_report()
        assert report["samples"] == 5
        assert report["failed_share"] == pytest.approx(0.2)
        assert report["probes_seen"] == 5
        assert report["targets_seen"] == 3


class TestDedupGuard:
    def test_duplicate_appends_dropped_and_counted(self):
        probes = generate_population(seed=2)[:2]
        targets = deploy_fleet()[:1]
        ds = CampaignDataset(probes, targets, dedup=True)
        for _ in range(3):
            ds.append(probes[0].probe_id, targets[0].key,
                      1_567_296_000, 10.0, 12.0, 3, 3)
        ds.append(probes[1].probe_id, targets[0].key,
                  1_567_296_000, 11.0, 13.0, 3, 3)
        assert len(ds) == 2
        assert ds.duplicates_dropped == 2

    def test_disabled_by_default(self, dataset):
        probe = dataset.probes[0]
        dataset.append(probe.probe_id, dataset.targets[0].key,
                       1_567_296_000, 10.0, 12.0, 3, 3)
        dataset.append(probe.probe_id, dataset.targets[0].key,
                       1_567_296_000, 10.0, 12.0, 3, 3)
        assert len(dataset) == 7
        assert dataset.duplicates_dropped == 0


class TestFromFrame:
    def test_round_trip(self, dataset):
        rebuilt = CampaignDataset.from_frame(
            dataset.to_frame(), dataset.probes, dataset.targets
        )
        assert rebuilt.num_samples == dataset.num_samples
        for column in ("probe_id", "target_index", "timestamp", "sent", "rcvd"):
            assert list(rebuilt.column(column)) == list(dataset.column(column))
        assert np.array_equal(
            rebuilt.column("rtt_min"), dataset.column("rtt_min"), equal_nan=True
        )

    def test_rebuilt_dataset_accepts_appends(self, dataset):
        """from_frame exists to resume collection: the rebuilt dataset
        must be unfrozen and honor its dedup guard."""
        rebuilt = CampaignDataset.from_frame(
            dataset.to_frame(), dataset.probes, dataset.targets, dedup=True
        )
        probe = dataset.probes[0]
        before = rebuilt._buffer.size
        # Re-appending an existing sample is swallowed by the guard...
        rebuilt.append(probe.probe_id, dataset.targets[0].key,
                       int(dataset.column("timestamp")[0]), 10.0, 12.0, 3, 3)
        assert rebuilt._buffer.size == before
        assert rebuilt.duplicates_dropped == 1
        # ...while a genuinely new sample still lands.
        rebuilt.append(probe.probe_id, dataset.targets[0].key,
                       2_000_000_000, 10.0, 12.0, 3, 3)
        assert rebuilt.num_samples == dataset.num_samples + 1


class TestSampleBuffer:
    """The numpy-backed append buffer behind the dataset."""

    def test_geometric_growth(self):
        buffer = _SampleBuffer()
        assert buffer._capacity == 0
        buffer.append_row(1, 0, 100, 1.0, 2.0, 3, 3)
        assert buffer._capacity == _SampleBuffer._INITIAL_CAPACITY
        buffer.reserve(3 * _SampleBuffer._INITIAL_CAPACITY)
        assert buffer._capacity == 4 * _SampleBuffer._INITIAL_CAPACITY

    def test_growth_preserves_prefix(self):
        buffer = _SampleBuffer()
        for k in range(10):
            buffer.append_row(k, k, 100 + k, float(k), float(k), 3, 3)
        buffer.reserve(10_000)
        final = buffer.finalize()
        assert list(final["probe_id"]) == list(range(10))
        assert list(final["timestamp"]) == list(range(100, 110))

    def test_extend_is_bulk_slice_assignment(self):
        buffer = _SampleBuffer()
        n = 5_000  # spans several doublings
        ids = np.arange(n, dtype=np.int32)
        buffer.extend(ids, ids, np.arange(n, dtype=np.int64),
                      np.ones(n), np.ones(n),
                      np.full(n, 3, dtype=np.int16), np.full(n, 3, dtype=np.int16))
        assert buffer.size == n
        final = buffer.finalize()
        assert np.array_equal(final["probe_id"], ids)
        assert final["probe_id"].dtype == np.int32
        assert final["sent"].dtype == np.int16

    def test_finalize_is_right_sized_copy(self):
        buffer = _SampleBuffer()
        buffer.append_row(1, 0, 100, 1.0, 2.0, 3, 3)
        final = buffer.finalize()
        assert len(final["probe_id"]) == 1
        # Mutating the finalized columns must not leak back into the buffer.
        final["probe_id"][0] = 99
        assert buffer.finalize()["probe_id"][0] == 1

    def test_dedup_extend_fancy_index_path(self):
        """A partially-duplicated bulk extend keeps only the fresh rows,
        in order, through the fancy-index fallback."""
        probes = generate_population(seed=2)[:3]
        targets = deploy_fleet()[:1]
        ds = CampaignDataset(probes, targets, dedup=True)
        ids = [probes[0].probe_id, probes[1].probe_id, probes[2].probe_id]
        ds.extend_samples(targets[0].key, ids, [100, 200, 300],
                          [1.0, 2.0, 3.0], [1.5, 2.5, 3.5], [3, 3, 3], [3, 3, 3])
        appended = ds.extend_samples(
            targets[0].key,
            [probes[0].probe_id, probes[1].probe_id, probes[2].probe_id],
            [100, 250, 300],  # first and last collide with existing rows
            [9.0, 9.0, 9.0], [9.0, 9.0, 9.0], [3, 3, 3], [3, 3, 3],
        )
        assert appended == 1
        assert ds.duplicates_dropped == 2
        assert len(ds) == 4
        assert list(ds.column("timestamp")) == [100, 200, 300, 250]


class TestMemoizedDerived:
    """Derived sample-aligned vectors are computed once per dataset."""

    def test_probe_lookup_cached(self, dataset):
        first = dataset.probe_countries()
        assert dataset.probe_countries() is first

    def test_target_vectors_cached(self, dataset):
        assert dataset.target_providers() is dataset.target_providers()
        assert dataset.target_continents() is dataset.target_continents()

    def test_succeeded_mask_cached(self, dataset):
        first = dataset.succeeded_mask()
        assert dataset.succeeded_mask() is first
        assert list(first) == [True, True, True, True, False]

    def test_freeze_transition_invalidates(self, dataset):
        """A vector computed before an explicit freeze (which itself
        forces the freeze) stays valid; the freeze clears any cache so
        nothing computed against a stale buffer can survive."""
        dataset.freeze()
        cached = dataset.succeeded_mask()
        assert dataset._derived  # populated
        dataset.freeze()  # idempotent freeze keeps the frozen columns
        assert dataset.succeeded_mask() is cached


class TestDerivedAreReadOnly:
    """Memoized products are shared by every analysis of a dataset, so
    they are handed out read-only: arrays non-writeable, dicts copied."""

    def test_memoized_vectors_are_not_writeable(self, dataset):
        for vector in (
            dataset.probe_countries(),
            dataset.probe_cohorts(),
            dataset.target_providers(),
            dataset.succeeded_mask(),
            unprivileged_mask(dataset),
            *cohort_masks(dataset).values(),
        ):
            assert not vector.flags.writeable

    def test_in_place_and_on_a_returned_mask_raises(self, dataset):
        mask = unprivileged_mask(dataset)
        expected = mask.copy()
        with pytest.raises(ValueError):
            mask &= dataset.column("rtt_min") < 11.0
        wired = cohort_masks(dataset)["wired"]
        with pytest.raises(ValueError):
            wired &= False
        assert np.array_equal(unprivileged_mask(dataset), expected)

    def test_dict_products_are_fresh_copies(self, dataset):
        mask = unprivileged_mask(dataset)
        nearest = nearest_target_by_probe(dataset, mask)
        nearest.clear()
        assert nearest_target_by_probe(dataset, mask)
        minima = per_probe_min(dataset)
        probe_id = next(iter(minima))
        minima[probe_id] = -1.0
        assert per_probe_min(dataset)[probe_id] != -1.0
        masks = cohort_masks(dataset)
        masks.pop("wired")
        assert set(cohort_masks(dataset)) == {"wired", "wireless"}


class TestExport:
    def test_csv_round_trip(self, dataset, tmp_path):
        path = tmp_path / "dataset.csv"
        dataset.export_csv(path)
        loaded = CampaignDataset.load_csv(path)
        assert len(loaded) == 5
        assert list(loaded["probe_id"]) == list(dataset.column("probe_id"))
        # NaN RTTs survive as the failed sample's marker.
        assert math.isnan(loaded["rtt_min"][4]) or loaded["rtt_min"][4] == "nan"

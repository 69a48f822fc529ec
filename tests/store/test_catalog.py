"""Catalog semantics: fingerprint stability, cache hit/miss, gc."""

from __future__ import annotations

import pytest

from repro.core.campaign import Campaign, CampaignScale
from repro.errors import CampaignError
from repro.obs import Obs
from repro.store import SAMPLE_COLUMNS, CampaignCatalog
from repro.store.catalog import campaign_fingerprint, campaign_provenance


class TestFingerprint:
    def test_stable_across_processes(self):
        # Pinned value: any change here is a cache-invalidating format
        # break and must bump FORMAT_VERSION.
        provenance = {
            "seed": 7,
            "fault_profile": "none",
            "scale": "tiny",
            "interval_s": 10800,
            "start_time": 1500000000,
            "stop_time": 1500086400,
            "packets": 3,
        }
        assert campaign_fingerprint(provenance) == campaign_fingerprint(
            dict(reversed(list(provenance.items())))
        )
        assert len(campaign_fingerprint(provenance)) == 64

    def test_same_campaign_same_fingerprint(self):
        a = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
        b = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
        assert campaign_fingerprint(
            campaign_provenance(a)
        ) == campaign_fingerprint(campaign_provenance(b))

    def test_seed_changes_fingerprint(self):
        a = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
        b = Campaign.from_paper(scale=CampaignScale.TINY, seed=8)
        assert campaign_fingerprint(
            campaign_provenance(a)
        ) != campaign_fingerprint(campaign_provenance(b))

    def test_fault_profile_changes_fingerprint(self):
        a = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
        b = Campaign.from_paper(
            scale=CampaignScale.TINY, seed=7, faults="flaky"
        )
        assert campaign_fingerprint(
            campaign_provenance(a)
        ) != campaign_fingerprint(campaign_provenance(b))

    def test_provenance_excludes_worker_count(self):
        # Workers are byte-transparent; they must not fragment the cache.
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
        provenance = campaign_provenance(campaign)
        assert "workers" not in provenance
        assert "fast_path" not in provenance


class TestCollectOnceAnalyzeMany:
    def test_miss_then_hit(self, tmp_path):
        catalog = CampaignCatalog(tmp_path / "catalog")
        first = Campaign.from_paper(scale=CampaignScale.TINY, seed=7, obs=Obs())
        assert catalog.lookup(first) is None
        collected = first.run(store=catalog)
        assert catalog.lookup(first) is not None
        assert first.obs.registry.counter("store_cache_misses_total").value == 1

        again = Campaign.from_paper(scale=CampaignScale.TINY, seed=7, obs=Obs())
        reopened = again.run(store=catalog)
        assert again.obs.registry.counter("store_cache_hits_total").value == 1
        for name in SAMPLE_COLUMNS:
            assert (
                reopened.column(name).tobytes()
                == collected.column(name).tobytes()
            )

    def test_hit_skips_measurement_creation(self, tmp_path):
        catalog = CampaignCatalog(tmp_path / "catalog")
        Campaign.from_paper(scale=CampaignScale.TINY, seed=7).run(store=catalog)
        hit = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
        hit.run(store=catalog)
        # A cache hit never schedules measurements.
        assert not hit._msm_id_by_target

    def test_hit_dataset_is_frozen_and_analyzable(self, tmp_path):
        catalog = CampaignCatalog(tmp_path / "catalog")
        Campaign.from_paper(scale=CampaignScale.TINY, seed=7).run(store=catalog)
        dataset = Campaign.from_paper(scale=CampaignScale.TINY, seed=7).run(
            store=catalog
        )
        with pytest.raises(CampaignError, match="frozen"):
            dataset.append(
                dataset.probes[0].probe_id, dataset.targets[0].key,
                2_000_000_000, 1.0, 1.0, 3, 3,
            )
        report = dataset.integrity_report()
        assert report["samples"] == dataset.num_samples

    def test_distinct_campaigns_do_not_collide(self, tmp_path):
        catalog = CampaignCatalog(tmp_path / "catalog")
        Campaign.from_paper(scale=CampaignScale.TINY, seed=7).run(store=catalog)
        other = Campaign.from_paper(
            scale=CampaignScale.TINY, seed=7, faults="flaky"
        )
        assert catalog.lookup(other) is None
        other.run(store=catalog)
        assert len(catalog.entries()) == 2

    def test_store_accepts_plain_path(self, tmp_path):
        # Campaign.collect(store=...) takes a path or a catalog.
        dataset = Campaign.from_paper(scale=CampaignScale.TINY, seed=7).run(
            store=tmp_path / "catalog"
        )
        assert dataset.num_samples > 0
        assert CampaignCatalog(tmp_path / "catalog").entries()


class TestCatalogGC:
    def test_gc_removes_mismatched_entry(self, tmp_path):
        catalog = CampaignCatalog(tmp_path / "catalog")
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
        campaign.run(store=catalog)
        (entry,) = catalog.entries()
        moved = catalog.root / ("f" * 64)
        (catalog.root / entry).rename(moved)
        removed = catalog.gc()
        assert "f" * 64 in removed
        assert catalog.entries() == []

    def test_gc_keeps_healthy_entries(self, tmp_path):
        catalog = CampaignCatalog(tmp_path / "catalog")
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
        campaign.run(store=catalog)
        before = catalog.entries()
        assert catalog.gc() == []
        assert catalog.entries() == before

    def test_gc_sweeps_stray_tmp_files(self, tmp_path):
        catalog = CampaignCatalog(tmp_path / "catalog")
        catalog.root.mkdir(parents=True)
        (catalog.root / "x.123.456.tmp").write_bytes(b"junk")
        assert catalog.gc() == ["x.123.456.tmp"]

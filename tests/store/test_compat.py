"""Stores written before format v4 stay first-class.

A version-1 or -2 store holds raw chunks only; a version-3 store holds
every encoding but ``mean``.  Under this build each must open with
identical columns, prune exactly as its current twin does, scrub intact
and repair to its own bytes.  The legacy stores here are genuine:
:func:`~repro.store.writer.legacy_copy` writes each chunk in an encoding
its version knows, else raw, their checksums and the old version field,
as the older builds did.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.errors import StoreIntegrityError
from repro.obs import Obs
from repro.store import (
    CampaignCatalog,
    StoreReader,
    campaign_fingerprint,
    campaign_provenance,
    backfill_zone_maps,
    scan_store,
    scrub,
    scrub_catalog,
)
from repro.store.codec import RAW
from repro.store.format import FORMAT_VERSION, MANIFEST_NAME, Manifest
from repro.store.scrub import repair
from repro.store.writer import legacy_copy

from tests.store.conftest import columns_equal


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """A TINY campaign's current store and its genuine v3, v2 and v1
    copies."""
    from repro.core.campaign import Campaign, CampaignScale

    root = tmp_path_factory.mktemp("compat")
    campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
    catalog = CampaignCatalog(root / "catalog", rows_per_shard=4096)
    campaign.run(store=catalog)
    current = catalog.path_for(campaign_fingerprint(campaign_provenance(campaign)))
    legacy_copy(current, root / "v3", version=3)
    legacy_copy(current, root / "v2", version=2)
    legacy_copy(current, root / "v1", version=1)
    return {"current": current, "v3": root / "v3", "v2": root / "v2", "v1": root / "v1"}


def _bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def _pruned(path, scan):
    obs = Obs()
    rows = scan(scan_store(path, obs=obs))
    pruned = sum(value for name, _, value in obs.registry.export()["counters"]
                 if name == "scan_rows_pruned_total")
    return rows, pruned


class TestLegacyStores:
    def test_copies_are_genuine(self, stores):
        current = Manifest.load(stores["current"])
        # Every chunk of the current store is encoded, rtt_avg's as mean.
        assert RAW not in {m.encoding for s in current.shards for m in s.chunks.values()}
        assert {s.chunks["rtt_avg"].encoding for s in current.shards} == {"mean"}
        for version in (1, 2):
            path = stores[f"v{version}"]
            payload = json.loads((path / MANIFEST_NAME).read_text())
            assert payload["version"] == version
            chunks = [c for s in payload["shards"] for c in s["chunks"].values()]
            assert all("encoding" not in chunk for chunk in chunks)
            assert all(("zone" in chunk) == (version == 2) for chunk in chunks)
            StoreReader(path, verify="full")

    def test_v3_copy_rewrites_only_mean_chunks_raw(self, stores):
        payload = json.loads((stores["v3"] / MANIFEST_NAME).read_text())
        assert payload["version"] == 3
        current = Manifest.load(stores["current"])
        for shard, legacy in zip(current.shards, payload["shards"]):
            for column, meta in shard.chunks.items():
                chunk = legacy["chunks"][column]
                assert chunk["zone"] == meta.zone.as_dict()
                if meta.encoding == "mean":
                    assert chunk["encoding"] == RAW
                    assert chunk["bytes"] == 8 * shard.rows
                else:
                    assert chunk == meta.as_dict()
                    assert (stores["v3"] / meta.file).read_bytes() == (
                        stores["current"] / meta.file
                    ).read_bytes()
        StoreReader(stores["v3"], verify="full")

    def test_a_v3_manifest_cannot_name_mean(self, stores, tmp_path):
        store = tmp_path / "v3"
        shutil.copytree(stores["current"], store)
        payload = json.loads((store / MANIFEST_NAME).read_text())
        payload["version"] = 3
        (store / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(StoreIntegrityError, match="mean"):
            StoreReader(store, verify="off")
        assert [d.kind for d in scrub(store).damage] == ["manifest_unreadable"]

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_columns_identical(self, stores, version):
        legacy = StoreReader(stores[f"v{version}"]).columns()
        assert columns_equal(legacy, StoreReader(stores["current"]).columns())
        assert all(isinstance(column, np.ndarray) for column in legacy.values())

    def test_v2_prunes_the_same(self, stores):
        def targeted(scan):
            window = scan.filter("target_index", ">=", 45).filter("target_index", "<", 55)
            return window.count(), window.filter("rtt_min", ">=", 0.0).summarize("rtt_min")

        (count, summary), pruned = _pruned(stores["current"], targeted)
        assert pruned > 0
        for version in (2, 3):
            (legacy_count, legacy_summary), legacy_pruned = _pruned(
                stores[f"v{version}"], targeted
            )
            assert (legacy_count, legacy_pruned) == (count, pruned)
            assert legacy_summary.as_dict() == summary.as_dict()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_scrubs_intact(self, stores, version):
        report = scrub(stores[f"v{version}"])
        assert report.ok and report.chunks_checked > 0

    def test_v2_catalog_entry_is_a_miss_but_not_debris(self, stores, tmp_path):
        """The format version is part of the fingerprint: an entry a v2
        build committed is not this build's cache hit, yet it is no
        dangling entry either, and it still opens by path."""
        provenance = Manifest.load(stores["v2"]).provenance
        legacy_name = campaign_fingerprint(provenance, 2)
        assert legacy_name != campaign_fingerprint(provenance)
        root = tmp_path / "catalog"
        shutil.copytree(stores["v2"], root / legacy_name)
        assert CampaignCatalog(root).open(campaign_fingerprint(provenance)) is None
        reports, catalog_damage = scrub_catalog(root)
        assert catalog_damage == [] and [r.ok for r in reports] == [True]
        assert StoreReader(root / legacy_name).rows == Manifest.load(stores["v2"]).rows

    def test_older_entries_survive_catalog_gc(self, stores, tmp_path):
        """gc keeps every entry named under a format version this build
        reads: a v3 and a v2 commit, and a v1 commit whose manifest a
        backfill has since rewritten at the current version.  A name no
        version gives is still swept."""
        provenance = Manifest.load(stores["v2"]).provenance
        root = tmp_path / "catalog"
        v3_entry = root / campaign_fingerprint(provenance, 3)
        v2_entry = root / campaign_fingerprint(provenance, 2)
        v1_entry = root / campaign_fingerprint(provenance, 1)
        stray = root / ("0" * 64)
        shutil.copytree(stores["v3"], v3_entry)
        shutil.copytree(stores["v2"], v2_entry)
        shutil.copytree(stores["v1"], v1_entry)
        shutil.copytree(stores["v2"], stray)
        backfill_zone_maps(v1_entry)
        assert Manifest.load(v1_entry).version == FORMAT_VERSION
        kept = (v1_entry, v2_entry, v3_entry)
        before = {entry: _bytes(entry) for entry in kept}

        assert CampaignCatalog(root).gc() == [stray.name]

        assert CampaignCatalog(root).entries() == sorted(entry.name for entry in kept)
        assert {entry: _bytes(entry) for entry in before} == before
        assert scrub_catalog(root)[1] == []
        assert CampaignCatalog(root).open(campaign_fingerprint(provenance)) is None
        assert StoreReader(v3_entry).rows == Manifest.load(stores["v3"]).rows

    def test_repair_rebuilds_mean_chunks_to_their_checksums(self, stores, tmp_path):
        store = tmp_path / "damaged"
        shutil.copytree(stores["current"], store)
        manifest = Manifest.load(store)
        damaged = [shard.chunks["rtt_avg"].file for shard in manifest.shards[:2]]
        data = bytearray((store / damaged[0]).read_bytes())
        data[len(data) // 2] ^= 0x10
        (store / damaged[0]).write_bytes(bytes(data))
        (store / damaged[1]).unlink()

        report = repair(store)

        assert report.verified and sorted(report.repaired_chunks) == sorted(damaged)
        assert _bytes(store) == _bytes(stores["current"])

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_repairs_to_its_raw_bytes(self, stores, version, tmp_path):
        pristine = stores[f"v{version}"]
        store = tmp_path / "damaged"
        shutil.copytree(pristine, store)
        manifest = Manifest.load(store)
        flipped = manifest.shards[1].chunks["timestamp"].file
        data = bytearray((store / flipped).read_bytes())
        data[9] ^= 0x01
        (store / flipped).write_bytes(bytes(data))
        (store / manifest.shards[-1].chunks["rtt_min"].file).unlink()
        (store / manifest.shards[0].chunks["rtt_avg"].file).unlink()

        report = repair(store)

        assert report.verified
        assert len(report.repaired_chunks) == 3
        assert _bytes(store) == _bytes(pristine)
        assert json.loads((store / MANIFEST_NAME).read_text())["version"] == version

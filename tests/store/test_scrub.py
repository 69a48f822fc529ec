"""Scrub classification and surgical repair.

Scrub must return the *complete* casualty list (a verifying reader
stops at the first problem), classify each kind correctly, and separate
integrity damage from sweepable debris.  Repair must quarantine the
damaged originals, re-synthesize only the affected windows from
provenance, and converge to a byte-identical store — or refuse with a
typed error when the manifest (the source of truth) is itself gone.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.errors import StoreRepairError
from repro.store import (
    CampaignCatalog,
    FaultyFS,
    StoreWriter,
    campaign_fingerprint,
    campaign_provenance,
    scrub,
    scrub_catalog,
)
from repro.store.format import MANIFEST_NAME
from repro.store.fsim import FsFaultProfile
from repro.store.scrub import QUARANTINE_DIR, repair

from tests.store.conftest import synthetic_columns


@pytest.fixture
def committed_store(tmp_path):
    path = tmp_path / "store"
    writer = StoreWriter(path, provenance={"seed": 3}, rows_per_shard=16)
    writer.append_columns(synthetic_columns(40, seed=8))
    writer.finalize()
    return path


def _chunks(path):
    return sorted(path.glob("shard-*.bin"))


class TestScrubClassification:
    def test_intact_store_scrubs_clean(self, committed_store):
        report = scrub(committed_store)
        assert report.ok and report.intact
        assert report.rows == 40
        assert report.shards == 3
        assert report.chunks_checked == 21  # 3 shards x 7 columns

    def test_missing_chunk(self, committed_store):
        _chunks(committed_store)[0].unlink()
        report = scrub(committed_store)
        assert [d.kind for d in report.damage] == ["missing_chunk"]
        assert report.damage[0].repairable
        assert report.damage[0].shard == 0
        assert not report.intact

    def test_truncated_chunk(self, committed_store):
        chunk = _chunks(committed_store)[3]
        chunk.write_bytes(chunk.read_bytes()[:-4])
        report = scrub(committed_store)
        assert [d.kind for d in report.damage] == ["truncated_chunk"]
        assert "bytes on disk" in report.damage[0].detail

    def test_checksum_mismatch(self, committed_store):
        chunk = _chunks(committed_store)[5]
        raw = bytearray(chunk.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        chunk.write_bytes(bytes(raw))
        report = scrub(committed_store)
        assert [d.kind for d in report.damage] == ["checksum_mismatch"]
        assert "sha256" in report.damage[0].detail

    def test_debris_is_not_integrity_damage(self, committed_store):
        (committed_store / "leftover.tmp").write_bytes(b"torn")
        (committed_store / "shard-0009-000000.sent.bin").write_bytes(b"old")
        report = scrub(committed_store)
        assert not report.ok  # something to sweep
        assert report.intact  # but the store still reads
        kinds = sorted(d.kind for d in report.damage)
        assert kinds == ["orphan_chunk", "orphan_tmp"]

    def test_scrub_reports_every_problem_not_just_the_first(
        self, committed_store
    ):
        chunks = _chunks(committed_store)
        chunks[0].unlink()
        chunks[8].write_bytes(chunks[8].read_bytes()[:-2])
        (committed_store / "junk.tmp").write_bytes(b"x")
        report = scrub(committed_store)
        assert len(report.damage) == 3
        assert len(report.damaged_shards) == 2

    def test_manifest_missing(self, committed_store):
        (committed_store / MANIFEST_NAME).unlink()
        report = scrub(committed_store)
        assert [d.kind for d in report.damage] == ["manifest_missing"]
        assert not report.damage[0].repairable

    def test_manifest_unreadable(self, committed_store):
        manifest = committed_store / MANIFEST_NAME
        manifest.write_text(manifest.read_text()[: 40])
        report = scrub(committed_store)
        assert [d.kind for d in report.damage] == ["manifest_unreadable"]

    def test_report_round_trips_to_json(self, committed_store):
        _chunks(committed_store)[0].unlink()
        payload = json.dumps(scrub(committed_store).as_dict())
        decoded = json.loads(payload)
        assert decoded["intact"] is False
        assert decoded["damage"][0]["kind"] == "missing_chunk"


class TestScrubCatalog:
    def test_uncommitted_and_dangling_entries(self, tmp_path):
        from repro.core.campaign import Campaign, CampaignScale

        catalog = CampaignCatalog(tmp_path / "catalog")
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=11)
        campaign.run(store=catalog)
        fingerprint = campaign_fingerprint(campaign_provenance(campaign))

        # An interrupted write: chunks, no manifest.
        half_done = tmp_path / "catalog" / ("e" * 64)
        half_done.mkdir()
        (half_done / "shard-0000-000000.sent.bin").write_bytes(b"x")
        # A store filed under the wrong fingerprint.
        shutil.copytree(
            tmp_path / "catalog" / fingerprint, tmp_path / "catalog" / ("f" * 64)
        )
        (tmp_path / "catalog" / "upload.tmp").write_bytes(b"x")

        reports, catalog_damage = scrub_catalog(tmp_path / "catalog")
        assert len(reports) == 2  # the genuine entry + the mis-filed copy
        assert all(r.intact for r in reports)
        kinds = sorted(d.kind for d in catalog_damage)
        assert kinds == ["dangling_entry", "orphan_tmp", "uncommitted_entry"]

    def test_empty_root_is_clean(self, tmp_path):
        reports, damage = scrub_catalog(tmp_path / "nothing-here")
        assert reports == [] and damage == []


@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory):
    """A committed TINY campaign store plus a pristine byte snapshot."""
    from repro.core.campaign import Campaign, CampaignScale

    root = tmp_path_factory.mktemp("repairable")
    campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=7)
    catalog = CampaignCatalog(root / "catalog", rows_per_shard=4096)
    campaign.run(store=catalog)
    fingerprint = campaign_fingerprint(campaign_provenance(campaign))
    entry = catalog.path_for(fingerprint)
    pristine = root / "pristine"
    shutil.copytree(entry, pristine)
    return entry, pristine


def _store_bytes(path):
    return {
        p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()
    }


@pytest.fixture
def damaged_copy(campaign_store, tmp_path):
    entry, pristine = campaign_store
    copy = tmp_path / "damaged"
    shutil.copytree(pristine, copy)
    return copy, pristine


class TestRepair:
    def test_repair_restores_exact_bytes(self, damaged_copy):
        store, pristine = damaged_copy
        chunks = _chunks(store)
        flipped = chunks[0]
        raw = bytearray(flipped.read_bytes())
        raw[7] ^= 0x01
        flipped.write_bytes(bytes(raw))
        chunks[-1].unlink()

        report = repair(store)

        assert report.verified
        assert sorted(report.repaired_chunks) == sorted(
            [flipped.name, chunks[-1].name]
        )
        assert report.resynthesized_windows > 0
        # Quarantine holds the damaged original (the deleted chunk had
        # nothing left to quarantine), and nothing was destroyed.
        assert report.quarantined == [flipped.name]
        assert (store / QUARANTINE_DIR / flipped.name).read_bytes() == bytes(raw)
        # Byte-for-byte identical to the pre-damage snapshot.
        assert _store_bytes(store) == _store_bytes(pristine)

    def test_repair_is_surgical_not_full_recollection(self, damaged_copy):
        store, _ = damaged_copy
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        total_windows = len(manifest["windows"])
        _chunks(store)[0].unlink()
        report = repair(store)
        assert 0 < report.resynthesized_windows < total_windows

    def test_repair_sweeps_debris_on_an_intact_store(self, damaged_copy):
        store, pristine = damaged_copy
        (store / "upload.tmp").write_bytes(b"torn")
        report = repair(store)
        assert report.swept == ["upload.tmp"]
        assert report.repaired_chunks == []
        assert _store_bytes(store) == _store_bytes(pristine)

    def test_repair_refuses_without_manifest(self, damaged_copy):
        store, _ = damaged_copy
        (store / MANIFEST_NAME).unlink()
        with pytest.raises(StoreRepairError, match="re-collect"):
            repair(store)

    def test_repair_refuses_without_provenance(self, tmp_path):
        path = tmp_path / "anonymous"
        writer = StoreWriter(path, rows_per_shard=16)
        writer.append_columns(synthetic_columns(40, seed=8))
        writer.finalize()
        _chunks(path)[0].unlink()
        with pytest.raises(StoreRepairError, match="provenance"):
            repair(path)

    def test_repair_refuses_without_window_index(self, damaged_copy):
        store, _ = damaged_copy
        manifest = store / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        del payload["windows"]
        manifest.write_text(json.dumps(payload))
        _chunks(store)[0].unlink()
        with pytest.raises(StoreRepairError, match="window index"):
            repair(store)

    def test_repair_detects_lying_provenance(self, damaged_copy):
        store, _ = damaged_copy
        manifest = store / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        payload["provenance"]["seed"] = 8  # not the campaign that wrote this
        manifest.write_text(json.dumps(payload))
        _chunks(store)[0].unlink()
        with pytest.raises(StoreRepairError, match="does not reproduce"):
            repair(store)


@pytest.fixture(scope="module")
def hostile_store(tmp_path_factory):
    """A committed TINY store collected under the ``hostile`` profile."""
    from repro.core.campaign import Campaign, CampaignScale

    root = tmp_path_factory.mktemp("hostile")
    campaign = Campaign.from_paper(
        scale=CampaignScale.TINY, seed=7, faults="hostile"
    )
    catalog = CampaignCatalog(root / "catalog", rows_per_shard=4096)
    campaign.run(store=catalog)
    assert campaign.collection_stats.quarantined > 0
    entry = catalog.path_for(campaign_fingerprint(campaign_provenance(campaign)))
    pristine = root / "pristine"
    shutil.copytree(entry, pristine)
    return pristine


class TestChaosRepair:
    def test_repair_refetches_through_the_chaos_profile(
        self, hostile_store, campaign_store, tmp_path
    ):
        """Repair re-fetches the damaged windows under the provenance's
        fault profile: quarantined rows stay out, so the rebuilt chunk
        is byte-identical only if the chaos fetch replays exactly."""
        manifest = json.loads((hostile_store / MANIFEST_NAME).read_text())
        assert manifest["provenance"]["fault_profile"] == "hostile"
        _, clean = campaign_store
        clean_windows = json.loads((clean / MANIFEST_NAME).read_text())["windows"]
        # Damage the shard holding the first window quarantine shortened.
        row = 0
        for (_, rows), (_, clean_rows) in zip(manifest["windows"], clean_windows):
            if rows != clean_rows:
                break
            row += rows
        else:
            pytest.fail("no window lost rows to quarantine")
        shard = manifest["shards"][row // manifest["rows_per_shard"]]
        damaged = shard["chunks"]["rtt_min"]["file"]
        store = tmp_path / "damaged"
        shutil.copytree(hostile_store, store)
        raw = bytearray((store / damaged).read_bytes())
        raw[11] ^= 0x01
        (store / damaged).write_bytes(bytes(raw))

        report = repair(store)

        assert report.verified
        assert report.repaired_chunks == [damaged]
        assert 0 < report.resynthesized_windows < len(manifest["windows"])
        assert _store_bytes(store) == _store_bytes(hostile_store)


class TestPowerLossEndToEnd:
    def test_lost_syncs_keep_the_commit_point_honest(self, tmp_path):
        """With every fsync lost, a power cut rolls back the manifest:
        the directory is visibly not-a-store, never a torn one."""
        fs = FaultyFS(profile=FsFaultProfile(name="amnesia", lost_fsync=1.0))
        writer = StoreWriter(
            tmp_path / "volatile", rows_per_shard=16, fs=fs, durable=True
        )
        writer.append_columns(synthetic_columns(40, seed=8))
        writer.finalize()
        assert scrub(tmp_path / "volatile").ok  # fine until the power cut
        fs.power_loss()
        report = scrub(tmp_path / "volatile")
        assert [d.kind for d in report.damage if d.kind.startswith("manifest")] == [
            "manifest_missing"
        ]

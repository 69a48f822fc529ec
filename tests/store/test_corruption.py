"""Corruption is always a typed error, never silently-wrong data.

Every tampering mode — bit-flipped chunk, truncated chunk, truncated or
mangled manifest, missing file, checksum mismatch — must surface as
:class:`~repro.errors.StoreIntegrityError` at open/verify time.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import StoreError, StoreIntegrityError
from repro.store import StoreReader, StoreWriter, open_dataset
from repro.store.format import MANIFEST_NAME

from tests.store.conftest import synthetic_columns


@pytest.fixture
def committed_store(tmp_path):
    path = tmp_path / "store"
    writer = StoreWriter(path, provenance={"seed": 3}, rows_per_shard=16)
    writer.append_columns(synthetic_columns(40, seed=8))
    writer.finalize()
    return path


def _a_chunk(path):
    return next(sorted(path.glob("shard-*.bin")).__iter__())


class TestChunkCorruption:
    def test_bit_flip_detected(self, committed_store):
        chunk = _a_chunk(committed_store)
        raw = bytearray(chunk.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        chunk.write_bytes(bytes(raw))
        with pytest.raises(StoreIntegrityError):
            StoreReader(committed_store, verify="full")

    def test_truncation_detected_even_sampled(self, committed_store):
        # Size checks cover every chunk in every verify mode, so a
        # truncated chunk cannot hide behind sampling.
        chunk = _a_chunk(committed_store)
        chunk.write_bytes(chunk.read_bytes()[:-8])
        with pytest.raises(StoreIntegrityError):
            StoreReader(committed_store, verify="sampled")

    def test_missing_chunk_detected(self, committed_store):
        _a_chunk(committed_store).unlink()
        with pytest.raises(StoreIntegrityError):
            StoreReader(committed_store, verify="full")

    def test_same_length_tamper_passes_off_mode_but_not_full(
        self, committed_store
    ):
        # verify="off" is an explicit opt-out — documents the trade.
        chunk = _a_chunk(committed_store)
        raw = bytearray(chunk.read_bytes())
        raw[0] ^= 0xFF
        chunk.write_bytes(bytes(raw))
        StoreReader(committed_store, verify="off")  # trusts the disk
        with pytest.raises(StoreIntegrityError):
            StoreReader(committed_store, verify="full")

    def test_open_dataset_never_returns_corrupt_data(self, committed_store):
        chunk = _a_chunk(committed_store)
        raw = bytearray(chunk.read_bytes())
        raw[3] ^= 0x10
        chunk.write_bytes(bytes(raw))
        with pytest.raises(StoreIntegrityError):
            open_dataset(committed_store)


class TestManifestCorruption:
    def test_truncated_manifest(self, committed_store):
        manifest = committed_store / MANIFEST_NAME
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 3])
        with pytest.raises(StoreIntegrityError):
            StoreReader(committed_store)

    def test_checksum_mismatch_in_manifest(self, committed_store):
        manifest = committed_store / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        chunk = payload["shards"][0]["chunks"]["rtt_avg"]
        chunk["sha256"] = "0" * 64
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StoreIntegrityError):
            StoreReader(committed_store, verify="full")

    def test_row_count_mismatch_in_manifest(self, committed_store):
        manifest = committed_store / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        payload["rows"] += 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StoreIntegrityError):
            StoreReader(committed_store, verify="off")  # shape check still runs

    def test_byte_length_contradiction_in_manifest(self, committed_store):
        manifest = committed_store / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        payload["shards"][0]["chunks"]["sent"]["bytes"] += 4
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StoreIntegrityError):
            StoreReader(committed_store, verify="off")

    def test_missing_manifest_is_not_a_store(self, committed_store):
        (committed_store / MANIFEST_NAME).unlink()
        with pytest.raises(StoreError):
            StoreReader(committed_store)

    def test_future_version_is_store_error_not_integrity(self, committed_store):
        manifest = committed_store / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        payload["version"] += 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StoreError) as excinfo:
            StoreReader(committed_store)
        assert not isinstance(excinfo.value, StoreIntegrityError)


class TestCatalogCorruption:
    def test_damaged_committed_entry_raises_not_miss(self, tmp_path):
        """Corruption in a cache entry must never silently re-collect."""
        from repro.core.campaign import Campaign, CampaignScale
        from repro.store.catalog import (
            CampaignCatalog,
            campaign_fingerprint,
            campaign_provenance,
        )

        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=11)
        catalog = CampaignCatalog(tmp_path / "catalog")
        campaign.run(store=catalog)
        fingerprint = campaign_fingerprint(campaign_provenance(campaign))
        entry = catalog.path_for(fingerprint)
        chunk = _a_chunk(entry)
        raw = bytearray(chunk.read_bytes())
        raw[0] ^= 0x01
        chunk.write_bytes(bytes(raw))

        fresh = Campaign.from_paper(scale=CampaignScale.TINY, seed=11)
        with pytest.raises(StoreIntegrityError):
            fresh.run(store=catalog)

    def test_uncommitted_entry_is_miss_and_gc_sweeps_it(self, tmp_path):
        from repro.core.campaign import Campaign, CampaignScale
        from repro.store.catalog import (
            CampaignCatalog,
            campaign_fingerprint,
            campaign_provenance,
        )

        catalog = CampaignCatalog(tmp_path / "catalog")
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=11)
        # Simulate an interrupted write: chunks, no manifest.
        fingerprint = campaign_fingerprint(campaign_provenance(campaign))
        writer = StoreWriter(catalog.path_for(fingerprint), rows_per_shard=4)
        writer.append_columns(synthetic_columns(8, seed=1))  # two shards cut
        assert list(catalog.path_for(fingerprint).glob("shard-*"))
        assert catalog.lookup(campaign) is None
        removed = catalog.gc()
        assert removed  # the uncommitted dir went away
        assert catalog.entries() == []

"""Manifest/layout unit tests: versioning, atomicity, schema lockstep."""

import json

import pytest

from repro.errors import StoreError, StoreIntegrityError
from repro.store.format import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    SAMPLE_COLUMNS,
    SAMPLE_SCHEMA,
    ChunkMeta,
    Manifest,
    ShardMeta,
    atomic_write_bytes,
    is_store_dir,
    shard_name,
)


def _manifest() -> Manifest:
    chunk = ChunkMeta(file="shard-0000-000000.probe_id.bin", bytes=8, sha256="ab" * 32)
    shard = ShardMeta(
        name="shard-0000-000000",
        rows=2,
        chunks={name: chunk for name, _ in SAMPLE_SCHEMA},
    )
    return Manifest(rows=2, provenance={"seed": 7}, shards=[shard])


class TestSchemaLockstep:
    def test_store_schema_matches_dataset_dtypes(self):
        """A frozen dataset's columns carry exactly the schema's
        little-endian dtypes, so the store writes them without a cast."""
        import numpy as np

        from repro.atlas.population import generate_population
        from repro.cloud.vm import deploy_fleet
        from repro.core.dataset import CampaignDataset

        probes, targets = generate_population(seed=2)[:1], deploy_fleet()[:1]
        dataset = CampaignDataset(probes, targets)
        dataset.append(probes[0].probe_id, targets[0].key, 100, 1.0, 1.5, 3, 3)
        dataset.freeze()
        assert tuple(dataset._frozen) == SAMPLE_COLUMNS
        for name, dtype in SAMPLE_SCHEMA:
            assert np.dtype(dtype).str[0] == "<"
            assert dataset.column(name).dtype == np.dtype(dtype)


class TestManifestRoundTrip:
    def test_json_round_trip(self):
        manifest = _manifest()
        rebuilt = Manifest.from_json(manifest.to_json())
        assert rebuilt.rows == 2
        assert rebuilt.schema == SAMPLE_SCHEMA
        assert rebuilt.provenance == {"seed": 7}
        assert rebuilt.shards[0].chunks["probe_id"].sha256 == "ab" * 32
        assert rebuilt.to_json() == manifest.to_json()

    def test_save_load_disk(self, tmp_path):
        manifest = _manifest()
        manifest.save(tmp_path)
        assert is_store_dir(tmp_path)
        assert Manifest.load(tmp_path).to_json() == manifest.to_json()

    def test_reload_parses_only_changed_bytes(self, tmp_path):
        """Reopening an unchanged store shares one parsed manifest; a
        commit that changes the file is read afresh."""
        _manifest().save(tmp_path)
        first = Manifest.load(tmp_path)
        assert Manifest.load(tmp_path) is first
        Manifest(rows=0, generation=1, provenance={"seed": 8}).save(tmp_path)
        changed = Manifest.load(tmp_path)
        assert (changed.rows, changed.generation, changed.provenance) == (0, 1, {"seed": 8})
        (tmp_path / MANIFEST_NAME).write_text("{")
        with pytest.raises(StoreIntegrityError):
            Manifest.load(tmp_path)

    def test_save_is_atomic(self, tmp_path):
        _manifest().save(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]

    def test_no_wall_clock_in_manifest(self):
        # Determinism: two saves of the same data must be byte-identical,
        # so nothing time-derived may enter the manifest.
        assert _manifest().to_json() == _manifest().to_json()


class TestManifestRejection:
    def test_truncated_json_is_integrity_error(self):
        text = _manifest().to_json()
        with pytest.raises(StoreIntegrityError):
            Manifest.from_json(text[: len(text) // 2])

    def test_wrong_format_marker_rejected(self):
        payload = json.loads(_manifest().to_json())
        payload["format"] = "parquet"
        with pytest.raises(StoreIntegrityError):
            Manifest.from_json(json.dumps(payload))

    def test_future_version_rejected_as_store_error(self):
        payload = json.loads(_manifest().to_json())
        payload["version"] = FORMAT_VERSION + 1
        with pytest.raises(StoreError):
            Manifest.from_json(json.dumps(payload))

    def test_missing_fields_are_integrity_error(self):
        payload = json.loads(_manifest().to_json())
        del payload["shards"]
        with pytest.raises(StoreIntegrityError):
            Manifest.from_json(json.dumps(payload))

    def test_non_store_dir_is_store_error(self, tmp_path):
        with pytest.raises(StoreError):
            Manifest.load(tmp_path)


class TestAtomicWrite:
    def test_leaves_only_target(self, tmp_path):
        atomic_write_bytes(tmp_path / "x.bin", b"abc")
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
        assert (tmp_path / "x.bin").read_bytes() == b"abc"

    def test_replaces_existing(self, tmp_path):
        (tmp_path / "x.bin").write_bytes(b"old")
        atomic_write_bytes(tmp_path / "x.bin", b"new")
        assert (tmp_path / "x.bin").read_bytes() == b"new"


def test_shard_names_sort_in_generation_then_index_order():
    names = [shard_name(g, i) for g in (0, 1) for i in (0, 1, 2)]
    assert names == sorted(names)


class TestShapeCheckedOncePerParse:
    def test_reopening_an_unchanged_store_skips_the_check(self, tmp_path, monkeypatch):
        import repro.store.format as format_module
        from repro.store import StoreReader, StoreWriter

        from tests.store.conftest import synthetic_columns

        writer = StoreWriter(tmp_path / "s", rows_per_shard=64)
        writer.append_columns(synthetic_columns(200, seed=1))
        writer.finalize()
        calls = []
        fits = format_module.codec.fits
        monkeypatch.setattr(
            format_module.codec, "fits", lambda *args: calls.append(args) or fits(*args)
        )
        format_module._parsed.cache_clear()
        StoreReader(tmp_path / "s", verify="off")
        assert len(calls) == 4 * 7  # every chunk of 4 shards, once
        for _ in range(3):
            StoreReader(tmp_path / "s", verify="off")
        assert len(calls) == 4 * 7

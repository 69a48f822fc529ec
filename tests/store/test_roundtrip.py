"""Round-trip properties: any batching, any shard size, same bytes back.

The store's core guarantee is that its on-disk layout is a pure function
of the row stream and ``rows_per_shard`` — never of how the rows arrived.
Hypothesis drives random batch splits and shard sizes against bit-exact
reconstruction; compaction must be deterministic and idempotent.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas.results.ping import PingColumns
from repro.errors import StoreError
from repro.store import (
    SAMPLE_COLUMNS,
    Manifest,
    RealFS,
    StoreReader,
    StoreWriter,
    compact,
    gc_store,
    write_dataset,
)
from repro.store.format import shard_name

from tests.store.conftest import columns_equal, synthetic_columns


def _store_bytes(path) -> bytes:
    """Every file in the store, name-prefixed, concatenated in sorted order."""
    return b"".join(
        entry.name.encode() + b"\0" + entry.read_bytes()
        for entry in sorted(path.iterdir())
    )


def _write_in_batches(path, columns, splits, rows_per_shard):
    writer = StoreWriter(path, rows_per_shard=rows_per_shard)
    start = 0
    for end in list(splits) + [len(columns["probe_id"])]:
        if end <= start:
            continue
        writer.append_columns(
            {name: values[start:end] for name, values in columns.items()}
        )
        start = end
    return writer.finalize()


class TestBatchingInvariance:
    @given(
        rows=st.integers(0, 400),
        rows_per_shard=st.integers(1, 97),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_layout_independent_of_batch_splits(
        self, tmp_path_factory, rows, rows_per_shard, data
    ):
        columns = synthetic_columns(rows, seed=rows)
        splits = sorted(
            data.draw(
                st.lists(st.integers(0, rows), max_size=6, unique=True)
            )
        )
        base = tmp_path_factory.mktemp("rt")
        _write_in_batches(base / "one-shot", columns, [], rows_per_shard)
        _write_in_batches(base / "split", columns, splits, rows_per_shard)
        assert _store_bytes(base / "one-shot") == _store_bytes(base / "split")
        assert columns_equal(
            StoreReader(base / "split").columns(), columns
        )

    def test_single_row_batches_equal_bulk(self, tmp_path):
        columns = synthetic_columns(17, seed=3)
        _write_in_batches(tmp_path / "bulk", columns, [], rows_per_shard=5)
        _write_in_batches(
            tmp_path / "drip", columns, list(range(1, 17)), rows_per_shard=5
        )
        assert _store_bytes(tmp_path / "bulk") == _store_bytes(tmp_path / "drip")


class TestRoundTrip:
    @given(rows=st.integers(0, 300), rows_per_shard=st.integers(1, 120))
    @settings(max_examples=40, deadline=None)
    def test_columns_come_back_bit_exact(
        self, tmp_path_factory, rows, rows_per_shard
    ):
        columns = synthetic_columns(rows, seed=rows * 7 + rows_per_shard)
        path = tmp_path_factory.mktemp("rt") / "store"
        writer = StoreWriter(path, rows_per_shard=rows_per_shard)
        writer.append_columns(columns)
        manifest = writer.finalize()
        assert manifest.rows == rows
        reader = StoreReader(path)
        assert columns_equal(reader.columns(), columns)

    def test_empty_store_round_trips(self, store_path):
        writer = StoreWriter(store_path, provenance={"seed": 1})
        manifest = writer.finalize()
        assert manifest.rows == 0 and manifest.shards == []
        reader = StoreReader(store_path)
        assert reader.rows == 0
        for name in SAMPLE_COLUMNS:
            assert len(reader.column(name)) == 0

    def test_single_row_shards(self, store_path):
        columns = synthetic_columns(9, seed=5)
        writer = StoreWriter(store_path, rows_per_shard=1)
        writer.append_columns(columns)
        manifest = writer.finalize()
        assert len(manifest.shards) == 9
        assert all(shard.rows == 1 for shard in manifest.shards)
        assert columns_equal(StoreReader(store_path).columns(), columns)

    def test_single_shard_reads_are_memmaps(self, store_path):
        columns = synthetic_columns(50, seed=2)
        writer = StoreWriter(store_path, rows_per_shard=1000)
        writer.append_columns(columns)
        writer.finalize()
        column = StoreReader(store_path).column("rtt_avg")
        assert isinstance(column, np.memmap)
        assert not column.flags.writeable

    def test_multi_shard_reads_are_read_only(self, store_path):
        columns = synthetic_columns(50, seed=2)
        writer = StoreWriter(store_path, rows_per_shard=20)
        writer.append_columns(columns)
        writer.finalize()
        column = StoreReader(store_path).column("rtt_avg")
        assert not column.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            column[0] = 0.0


class TestCompaction:
    @given(rows=st.integers(0, 250), small=st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_compact_equals_direct_write(self, tmp_path_factory, rows, small):
        columns = synthetic_columns(rows, seed=rows + small)
        base = tmp_path_factory.mktemp("cp")
        _write_in_batches(base / "frag", columns, [], rows_per_shard=small)
        compact(base / "frag", rows_per_shard=100)
        # Chunk *contents* must match a store written canonically in one
        # pass; names differ only in generation.
        direct = _write_in_batches(base / "direct", columns, [], 100)
        compacted = Manifest.load(base / "frag")
        assert compacted.rows == direct.rows
        assert [s.rows for s in compacted.shards] == [
            s.rows for s in direct.shards
        ]
        for left, right in zip(compacted.shards, direct.shards):
            for column in SAMPLE_COLUMNS:
                assert left.chunks[column].sha256 == right.chunks[column].sha256
        assert columns_equal(StoreReader(base / "frag").columns(), columns)

    def test_compact_is_idempotent(self, store_path):
        columns = synthetic_columns(75, seed=11)
        writer = StoreWriter(store_path, rows_per_shard=10)
        writer.append_columns(columns)
        writer.finalize()
        first = compact(store_path, rows_per_shard=40)
        before = _store_bytes(store_path)
        second = compact(store_path, rows_per_shard=40)
        assert second.to_json() == first.to_json()
        assert _store_bytes(store_path) == before

    def test_compact_removes_old_generation_chunks(self, store_path):
        columns = synthetic_columns(30, seed=4)
        writer = StoreWriter(store_path, rows_per_shard=7)
        writer.append_columns(columns)
        old_files = set(writer.finalize().chunk_files())
        compact(store_path, rows_per_shard=30)
        remaining = {entry.name for entry in store_path.iterdir()}
        assert not (old_files & remaining)

    def test_gc_sweeps_orphans_and_tmp(self, store_path):
        columns = synthetic_columns(12, seed=9)
        writer = StoreWriter(store_path, rows_per_shard=100)
        writer.append_columns(columns)
        writer.finalize()
        (store_path / "shard-9999-000000.rtt_avg.bin").write_bytes(b"orphan")
        (store_path / "manifest.json.123.456.tmp").write_bytes(b"junk")
        removed = gc_store(store_path)
        assert sorted(removed) == [
            "manifest.json.123.456.tmp",
            "shard-9999-000000.rtt_avg.bin",
        ]
        StoreReader(store_path).verify("full")


class TestWriterContract:
    def test_refuses_overwrite(self, store_path):
        StoreWriter(store_path).finalize()
        with pytest.raises(StoreError):
            StoreWriter(store_path)

    def test_refuses_append_after_finalize(self, store_path):
        writer = StoreWriter(store_path)
        writer.finalize()
        with pytest.raises(StoreError):
            writer.append_columns(synthetic_columns(1))

    def test_refuses_ragged_batch(self, store_path):
        writer = StoreWriter(store_path)
        columns = synthetic_columns(4)
        columns["rcvd"] = columns["rcvd"][:2]
        with pytest.raises(StoreError):
            writer.append_columns(columns)

    def test_refuses_missing_column(self, store_path):
        writer = StoreWriter(store_path)
        columns = synthetic_columns(4)
        del columns["sent"]
        with pytest.raises(StoreError):
            writer.append_columns(columns)

    def test_abort_leaves_no_store(self, store_path):
        writer = StoreWriter(store_path, rows_per_shard=2)
        writer.append_columns(synthetic_columns(10))
        writer.abort()
        assert not store_path.exists()

    def test_append_batch_broadcasts_scalar_target(self, store_path):
        columns = synthetic_columns(6, seed=1)
        writer = StoreWriter(store_path)
        writer.append_batch(42, PingColumns(
            columns["probe_id"],
            columns["timestamp"],
            columns["rtt_min"],
            columns["rtt_avg"],
            columns["sent"],
            columns["rcvd"],
        ))
        writer.finalize()
        target = StoreReader(store_path).column("target_index")
        assert target.dtype == np.dtype("<i4")
        assert (np.asarray(target) == 42).all()


class TestDatasetRoundTrip:
    def test_save_open_bit_exact(self, tiny_dataset, store_path):
        campaign, dataset = tiny_dataset
        dataset.save(store_path, provenance={"seed": 7})
        reopened = StoreReader(store_path).dataset(
            campaign.platform.probes, campaign.platform.fleet
        )
        for name in SAMPLE_COLUMNS:
            assert (
                reopened.column(name).tobytes() == dataset.column(name).tobytes()
            )
        assert reopened.num_samples == dataset.num_samples

    def test_open_rebuilds_platform_from_seed(self, tiny_dataset, store_path):
        from repro.core.dataset import CampaignDataset
        from repro.store.catalog import campaign_provenance

        campaign, dataset = tiny_dataset
        dataset.save(store_path, provenance=campaign_provenance(campaign))
        reopened = CampaignDataset.open(store_path)
        assert reopened.num_samples == dataset.num_samples
        assert reopened.integrity_report() == dataset.integrity_report()

    def test_write_dataset_matches_streaming_write(self, tiny_dataset, tmp_path):
        campaign, dataset = tiny_dataset
        write_dataset(dataset, tmp_path / "bulk", provenance={"seed": 7})
        writer = StoreWriter(tmp_path / "drip", provenance={"seed": 7})
        # Stream in ragged batches, as collection would.
        total = dataset.num_samples
        cursor = 0
        for step in (1, 7, 100, 1234):
            while cursor < total:
                end = min(total, cursor + step)
                writer.append_columns(
                    {
                        name: dataset.column(name)[cursor:end]
                        for name in SAMPLE_COLUMNS
                    }
                )
                cursor = end
        writer.finalize()
        assert _store_bytes(tmp_path / "bulk") == _store_bytes(tmp_path / "drip")


class _FailsAtManifest(RealFS):
    """The real disk, except that one operation of the manifest commit
    fails: ``"replace"`` before the rename, ``"fsync_dir"`` after it."""

    def __init__(self, op):
        self.op = op
        self.replaced = []

    def replace(self, src, dst, point=""):
        if point == "manifest" and self.op == "replace":
            raise OSError(errno.EIO, "injected rename failure")
        super().replace(src, dst, point)
        self.replaced.append(dst.name)

    def fsync_dir(self, path, point=""):
        if point == "manifest" and self.op == "fsync_dir":
            raise OSError(errno.EIO, "injected directory sync failure")
        super().fsync_dir(path, point)


class TestWriteDatasetAbort:
    """A failed commit through :func:`write_dataset` cleans up exactly
    what is not committed."""

    ROWS_PER_SHARD = 4096

    def test_failed_rename_sweeps_every_chunk(self, tiny_dataset, store_path):
        _, dataset = tiny_dataset
        # A short last shard, which the commit stitches as a boundary shard.
        assert dataset.num_samples % self.ROWS_PER_SHARD
        fs = _FailsAtManifest("replace")
        with pytest.raises(OSError, match="injected rename"):
            write_dataset(
                dataset, store_path, rows_per_shard=self.ROWS_PER_SHARD, fs=fs
            )
        last = shard_name(0, dataset.num_samples // self.ROWS_PER_SHARD)
        assert f"{last}.rtt_min.bin" in fs.replaced
        assert not store_path.exists()

    def test_landed_commit_keeps_every_chunk(self, tiny_dataset, store_path):
        _, dataset = tiny_dataset
        assert dataset.num_samples % self.ROWS_PER_SHARD
        with pytest.raises(OSError, match="injected directory sync"):
            write_dataset(
                dataset,
                store_path,
                rows_per_shard=self.ROWS_PER_SHARD,
                fs=_FailsAtManifest("fsync_dir"),
            )
        reader = StoreReader(store_path, verify="full")
        assert reader.manifest.rows == dataset.num_samples
        assert len(reader.manifest.shards) == -(
            -dataset.num_samples // self.ROWS_PER_SHARD
        )

"""Shared-nothing range writer: byte parity under any split.

:class:`~repro.store.writer.ShardRangeWriter` is the worker half of the
direct-to-store ingest path: it writes *interior* store shards under
their final global names and hands back boundary partials.
:func:`~repro.store.writer.assemble_direct_store` is the parent half:
it stitches the partials into boundary shards and commits the manifest.
:class:`~repro.store.StoreWriter` is the one-range case of the pair.
The contract these tests pin down is the whole point of the design —
for **any** contiguous split of the row stream, at **any** shard size,
the assembled store is byte-for-byte the one the layout rule gives when
written out by hand (:func:`_reference_store`), with neither writer.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.supervisor import ShardSink
from repro.errors import StoreError
from repro.obs import NULL_OBS
from repro.store import StoreReader, StoreWriter
from repro.store.format import MANIFEST_NAME, Manifest, shard_name
from repro.store.fsim import REAL_FS
from repro.store.scrub import scrub
from repro.store.writer import (
    ShardRangeWriter,
    assemble_direct_store,
    write_shard_chunks,
)

from tests.store.conftest import columns_equal, synthetic_columns

PROVENANCE = {"seed": 11}


def _slice_columns(columns, lo, hi):
    return {name: array[lo:hi] for name, array in columns.items()}


def _reference_store(path, columns, rows_per_shard):
    """The layout rule written out by hand: one shard per
    ``rows_per_shard`` slice, and the manifest's windows a plain RLE of
    ``target_index``."""
    path.mkdir()
    rows = len(columns["probe_id"])
    shards = [
        write_shard_chunks(
            path,
            shard_name(0, index),
            _slice_columns(columns, lo, lo + rows_per_shard),
            REAL_FS,
            NULL_OBS,
        )
        for index, lo in enumerate(range(0, rows, rows_per_shard))
    ]
    windows = tuple(
        (int(target), len(list(run)))
        for target, run in itertools.groupby(columns["target_index"])
    )
    Manifest(
        rows=rows,
        rows_per_shard=rows_per_shard,
        provenance=dict(PROVENANCE),
        shards=shards,
        windows=windows,
    ).save(path)
    return path


def _serial_store(path, columns, rows_per_shard):
    writer = StoreWriter(
        path,
        provenance=dict(PROVENANCE),
        rows_per_shard=rows_per_shard,
        durable=True,
    )
    writer.append_columns(columns)
    return writer.finalize()


def _direct_store(path, columns, cuts, rows_per_shard, batch=None):
    """Write ``columns`` as range fragments cut at ``cuts`` and commit."""
    fragments = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        writer = ShardRangeWriter(
            path, row_start=lo, rows_per_shard=rows_per_shard, durable=True
        )
        step = batch or max(1, hi - lo)
        for start in range(lo, hi, step):
            writer.append_columns(
                _slice_columns(columns, start, min(start + step, hi))
            )
        fragments.append(writer.finish())
    return assemble_direct_store(
        path,
        fragments,
        provenance=dict(PROVENANCE),
        rows_per_shard=rows_per_shard,
    )


def _store_files(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestRangeWriterByteParity:
    @pytest.mark.parametrize(
        "cuts,rows_per_shard",
        [
            ([0, 100], 16),            # single range (serial degenerate)
            ([0, 50, 100], 16),        # one interior cut off-boundary
            ([0, 32, 100], 16),        # a cut exactly on a boundary
            ([0, 7, 9, 40, 100], 16),  # tiny ranges inside one shard
            ([0, 33, 66, 100], 100),   # no range ever fills a shard
            ([0, 25, 50, 75, 100], 1), # every row is its own shard
        ],
    )
    def test_any_split_matches_the_serial_bytes(
        self, tmp_path, cuts, rows_per_shard
    ):
        columns = synthetic_columns(cuts[-1], seed=5)
        reference = _reference_store(tmp_path / "ref", columns, rows_per_shard)
        _serial_store(tmp_path / "serial", columns, rows_per_shard)
        _direct_store(tmp_path / "direct", columns, cuts, rows_per_shard)
        assert _store_files(tmp_path / "serial") == _store_files(reference)
        assert _store_files(tmp_path / "direct") == _store_files(reference)
        assert _store_files(tmp_path / "direct") == _store_files(
            tmp_path / "serial"
        )

    def test_batch_granularity_is_invisible(self, tmp_path):
        """Appending row-by-row or range-at-once: identical files."""
        columns = synthetic_columns(90, seed=6)
        _direct_store(tmp_path / "whole", columns, [0, 45, 90], 16)
        _direct_store(tmp_path / "dribble", columns, [0, 45, 90], 16, batch=1)
        assert _store_files(tmp_path / "whole") == _store_files(
            tmp_path / "dribble"
        )

    def test_assembled_store_verifies_and_scrubs_clean(self, tmp_path):
        columns = synthetic_columns(120, seed=7)
        _direct_store(tmp_path / "direct", columns, [0, 41, 83, 120], 16)
        reader = StoreReader(tmp_path / "direct", verify="full")
        assert reader.manifest.rows == 120
        assert columns_equal(
            {name: reader.column(name) for name in reader.manifest.columns},
            columns,
        )
        assert scrub(tmp_path / "direct").intact

    def test_out_of_order_fragment_arrival(self, tmp_path):
        """Assembly sorts by row_start; pipe arrival order is irrelevant."""
        columns = synthetic_columns(100, seed=8)
        fragments = []
        for lo, hi in [(0, 40), (40, 100)]:
            writer = ShardRangeWriter(
                tmp_path / "direct", row_start=lo, rows_per_shard=16,
                durable=True,
            )
            writer.append_columns(_slice_columns(columns, lo, hi))
            fragments.append(writer.finish())
        assemble_direct_store(
            tmp_path / "direct",
            list(reversed(fragments)),
            provenance=dict(PROVENANCE),
            rows_per_shard=16,
        )
        _serial_store(tmp_path / "serial", columns, 16)
        assert _store_files(tmp_path / "direct") == _store_files(
            tmp_path / "serial"
        )


class TestRangeWriterGeometry:
    def test_head_and_tail_straddle_the_global_boundaries(self, tmp_path):
        columns = synthetic_columns(50, seed=9)
        writer = ShardRangeWriter(tmp_path / "s", row_start=10, rows_per_shard=16)
        writer.append_columns(columns)
        fragment = writer.finish()
        # Rows 10..60 against 16-row shards: head 10..16, interior
        # [16, 32) and [32, 48), tail 48..60.
        assert fragment.head_rows == 6
        assert fragment.first_shard_index == 1
        assert [meta.name for meta in fragment.shards] == [
            "shard-0000-000001",
            "shard-0000-000002",
        ]
        assert fragment.tail_rows == 12
        assert columns_equal(fragment.head, _slice_columns(columns, 0, 6))
        assert columns_equal(fragment.tail, _slice_columns(columns, 38, 50))

    def test_range_inside_a_single_shard_is_all_head(self, tmp_path):
        columns = synthetic_columns(5, seed=9)
        writer = ShardRangeWriter(tmp_path / "s", row_start=18, rows_per_shard=16)
        writer.append_columns(columns)
        fragment = writer.finish()
        assert fragment.head_rows == 5
        assert not fragment.shards
        assert fragment.tail_rows == 0
        assert columns_equal(fragment.head, columns)

    def test_aligned_range_has_no_head(self, tmp_path):
        columns = synthetic_columns(20, seed=9)
        writer = ShardRangeWriter(tmp_path / "s", row_start=32, rows_per_shard=16)
        writer.append_columns(columns)
        fragment = writer.finish()
        assert fragment.head_rows == 0
        assert fragment.first_shard_index == 2
        assert len(fragment.shards) == 1
        assert fragment.tail_rows == 4

    def test_finish_is_single_shot(self, tmp_path):
        writer = ShardRangeWriter(tmp_path / "s", row_start=0, rows_per_shard=16)
        writer.finish()
        with pytest.raises(StoreError):
            writer.finish()
        with pytest.raises(StoreError):
            writer.append_columns(synthetic_columns(1))

    def test_validation(self, tmp_path):
        with pytest.raises(StoreError):
            ShardRangeWriter(tmp_path / "s", row_start=-1)
        with pytest.raises(StoreError):
            ShardRangeWriter(tmp_path / "s", row_start=0, rows_per_shard=0)


class TestAbortPaths:
    def test_failed_assembly_leaves_no_manifest_and_sweeps_clean(
        self, tmp_path
    ):
        """An assembly that rejects its fragments commits nothing, and
        the shard sink's sweep removes every chunk the workers streamed."""
        path = tmp_path / "s"
        columns = synthetic_columns(64, seed=3)
        fragments = []
        for lo, hi in [(0, 30), (40, 64)]:  # a gap: rows 30..40 missing
            writer = ShardRangeWriter(
                path, row_start=lo, rows_per_shard=16, durable=True
            )
            writer.append_columns(_slice_columns(columns, lo, hi))
            fragments.append(writer.finish())
        with pytest.raises(StoreError):
            assemble_direct_store(path, fragments, rows_per_shard=16)
        assert not (path / MANIFEST_NAME).exists()
        ShardSink(path, 16, REAL_FS, {}).discard()
        assert not path.exists()


class TestAssemblyValidation:
    def _fragment(self, path, columns, lo, hi, rows_per_shard=16):
        writer = ShardRangeWriter(
            path, row_start=lo, rows_per_shard=rows_per_shard
        )
        writer.append_columns(_slice_columns(columns, lo, hi))
        return writer.finish()

    def test_gap_in_the_tiling_is_rejected(self, tmp_path):
        columns = synthetic_columns(64, seed=4)
        fragments = [
            self._fragment(tmp_path / "s", columns, 0, 30),
            self._fragment(tmp_path / "s", columns, 40, 64),
        ]
        with pytest.raises(StoreError, match="do not tile"):
            assemble_direct_store(tmp_path / "s", fragments, rows_per_shard=16)

    def test_overlapping_fragments_are_rejected(self, tmp_path):
        columns = synthetic_columns(64, seed=4)
        fragments = [
            self._fragment(tmp_path / "s", columns, 0, 40),
            self._fragment(tmp_path / "s", columns, 30, 64),
        ]
        with pytest.raises(StoreError):
            assemble_direct_store(tmp_path / "s", fragments, rows_per_shard=16)

    def test_shard_size_mismatch_is_rejected(self, tmp_path):
        """Fragments written at the wrong shard size can't sneak in."""
        columns = synthetic_columns(64, seed=4)
        fragments = [self._fragment(tmp_path / "s", columns, 0, 64,
                                    rows_per_shard=32)]
        with pytest.raises(StoreError):
            assemble_direct_store(tmp_path / "s", fragments, rows_per_shard=16)

    def test_fragment_of_another_generation_is_rejected(self, tmp_path):
        """Assembly checks whole shard names, generation included: a
        generation-1 fragment under a generation-0 manifest would name
        files the next compaction's chunks overwrite."""
        path = tmp_path / "s"
        writer = ShardRangeWriter(path, row_start=0, rows_per_shard=16, generation=1)
        writer.append_columns(synthetic_columns(40, seed=4))
        with pytest.raises(StoreError, match="shard-0001-000000"):
            assemble_direct_store(path, [writer.finish()], rows_per_shard=16)
        assert not (path / MANIFEST_NAME).exists()

    def test_empty_fragment_set_commits_an_empty_store(self, tmp_path):
        manifest = assemble_direct_store(
            tmp_path / "s", [], provenance=dict(PROVENANCE), rows_per_shard=16
        )
        assert manifest.rows == 0
        assert StoreReader(tmp_path / "s").manifest.rows == 0


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def _splits(draw):
    rows = draw(st.integers(1, 120))
    rows_per_shard = draw(st.integers(1, 48))
    cut_set = draw(st.sets(st.integers(1, max(1, rows - 1)), max_size=5))
    cuts = [0] + sorted(c for c in cut_set if c < rows) + [rows]
    return rows, rows_per_shard, cuts


class TestRangeWriterPropertyParity:
    _example = 0

    @given(split=_splits())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_arbitrary_splits_are_byte_identical(self, tmp_path, split):
        rows, rows_per_shard, cuts = split
        type(self)._example += 1
        columns = synthetic_columns(rows, seed=rows)
        reference = tmp_path / f"ref-{self._example}"
        serial = tmp_path / f"serial-{self._example}"
        direct = tmp_path / f"direct-{self._example}"
        _reference_store(reference, columns, rows_per_shard)
        _serial_store(serial, columns, rows_per_shard)
        _direct_store(direct, columns, cuts, rows_per_shard)
        assert _store_files(serial) == _store_files(reference)
        assert _store_files(direct) == _store_files(reference)
        assert _store_files(direct) == _store_files(serial)

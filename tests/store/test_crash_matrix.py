"""The exhaustive crash matrix: every fsim site x every crash kind.

For each store write path — durable writer, compaction, checkpoint
save, gc — the code under test runs once against a :class:`CountingFS`
to enumerate its operation sites, the sites expand into every
``(site, kind)`` crash cell, and each cell replays on a fresh copy of
the inputs with ``FaultyFS.at(cell)``.  After every simulated crash the
on-disk state must satisfy the layer's crash contract:

* **writer** — the store is either fully committed and byte-correct, or
  visibly uncommitted (no readable manifest); never a readable lie.
* **compact** — some complete generation is always fully readable with
  the same logical rows; debris is sweepable and the sweep converges.
* **checkpoint** — the file is absent, the old state, or the new state;
  never torn JSON.
* **gc** — the live generation is never deleted, crash or no crash.
* **stats backfill** — the manifest is the old one (no zone maps) or
  the new one (fully zoned); never torn, never partially zoned, and
  the data bytes are never touched.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.errors import SimulatedCrashError, StoreError
from repro.store import (
    CountingFS,
    FaultyFS,
    Manifest,
    StoreReader,
    StoreWriter,
    backfill_zone_maps,
    crash_points,
)
from repro.store.format import FORMAT_VERSION, MANIFEST_NAME
from repro.store.scrub import scrub
from repro.store.writer import compact, gc_store, legacy_copy

from tests.store.conftest import columns_equal, synthetic_columns

ROWS, ROWS_PER_SHARD = 24, 16


def _write_store(path, fs=None, rows_per_shard=ROWS_PER_SHARD):
    writer = StoreWriter(
        path,
        provenance={"seed": 3},
        rows_per_shard=rows_per_shard,
        fs=fs,
        durable=True,
    )
    writer.append_columns(synthetic_columns(ROWS, seed=8))
    writer.finalize()


def _read_columns(path):
    reader = StoreReader(path, verify="full")
    return {name: reader.column(name) for name in reader.manifest.columns}


def _enumerate(run):
    """Count one clean pass of ``run`` and expand its crash cells."""
    counting = CountingFS()
    run(counting)
    assert counting.sites, "the path under test bypassed the fsim seam"
    return crash_points(counting.sites)


class TestWriterCrashMatrix:
    def test_every_crash_leaves_committed_or_visibly_uncommitted(self, tmp_path):
        cells = _enumerate(lambda fs: _write_store(tmp_path / "count", fs=fs))
        expected = _read_columns(tmp_path / "count")
        assert len(cells) > 50  # the durable write path is well-instrumented
        for cell in cells:
            path = tmp_path / f"cell-{cell.step}-{cell.kind}"
            fs = FaultyFS.at(cell)
            with pytest.raises(SimulatedCrashError):
                _write_store(path, fs=fs)
            fs.power_loss()
            try:
                reader = StoreReader(path, verify="full")
            except StoreError:
                # Uncommitted: the scrub must agree there is no store
                # here (a manifest-level problem), not report a subtly
                # damaged one it would try to repair.
                report = scrub(path)
                assert not report.intact, cell
                assert any(
                    d.kind.startswith("manifest_") for d in report.damage
                ), cell
            else:
                assert reader.manifest.rows == ROWS, cell
                assert columns_equal(_read_columns(path), expected), cell


class TestDirectWriteCrashMatrix:
    """Shared-nothing direct writes obey the same writer contract.

    The direct path splits the durable work across processes — workers
    fsync their interior chunks, the parent writes and fsyncs boundary
    shards, the directory, and the manifest.  Simulated here in one
    process so every fsim site of the *combined* path gets a crash cell:
    wherever the write dies, the store is either fully committed and
    byte-correct or visibly uncommitted.
    """

    DIRECT_ROWS = 40

    def _write_direct(self, path, fs=None):
        from repro.store.writer import ShardRangeWriter, assemble_direct_store

        columns = synthetic_columns(self.DIRECT_ROWS, seed=8)
        fragments = []
        for lo, hi in [(0, 20), (20, self.DIRECT_ROWS)]:
            writer = ShardRangeWriter(
                path, row_start=lo, rows_per_shard=ROWS_PER_SHARD,
                fs=fs, durable=True,
            )
            writer.append_columns(
                {name: array[lo:hi] for name, array in columns.items()}
            )
            fragments.append(writer.finish())
        assemble_direct_store(
            path,
            fragments,
            provenance={"seed": 3},
            rows_per_shard=ROWS_PER_SHARD,
            fs=fs,
            durable=True,
        )

    def test_every_crash_leaves_committed_or_visibly_uncommitted(self, tmp_path):
        cells = _enumerate(lambda fs: self._write_direct(tmp_path / "count", fs=fs))
        expected = _read_columns(tmp_path / "count")
        # Worker interior shards, parent boundary shards, dir + manifest
        # syncs: the combined path is at least as instrumented as serial.
        assert len(cells) > 50
        for cell in cells:
            path = tmp_path / f"cell-{cell.step}-{cell.kind}"
            fs = FaultyFS.at(cell)
            with pytest.raises(SimulatedCrashError):
                self._write_direct(path, fs=fs)
            fs.power_loss()
            try:
                reader = StoreReader(path, verify="full")
            except StoreError:
                report = scrub(path)
                assert not report.intact, cell
                assert any(
                    d.kind.startswith("manifest_") for d in report.damage
                ), cell
            else:
                assert reader.manifest.rows == self.DIRECT_ROWS, cell
                assert columns_equal(_read_columns(path), expected), cell

    def test_direct_and_serial_commit_identical_bytes(self, tmp_path):
        """The clean passes of the two write paths agree exactly."""
        self._write_direct(tmp_path / "direct")
        serial = StoreWriter(
            tmp_path / "serial",
            provenance={"seed": 3},
            rows_per_shard=ROWS_PER_SHARD,
            durable=True,
        )
        serial.append_columns(synthetic_columns(self.DIRECT_ROWS, seed=8))
        serial.finalize()
        direct_files = sorted((tmp_path / "direct").iterdir())
        serial_files = sorted((tmp_path / "serial").iterdir())
        assert [f.name for f in direct_files] == [f.name for f in serial_files]
        for left, right in zip(direct_files, serial_files):
            assert left.read_bytes() == right.read_bytes(), left.name


class TestCompactCrashMatrix:
    @pytest.fixture
    def fragmented(self, tmp_path):
        """A store written at shard size 4 (uncanonical for 16)."""
        origin = tmp_path / "origin"
        _write_store(origin, rows_per_shard=4)
        return origin

    def test_previous_generation_survives_every_crash(self, fragmented, tmp_path):
        expected = _read_columns(fragmented)
        count_copy = tmp_path / "count"
        shutil.copytree(fragmented, count_copy)
        cells = _enumerate(
            lambda fs: compact(count_copy, rows_per_shard=ROWS_PER_SHARD, fs=fs)
        )
        for cell in cells:
            path = tmp_path / f"cell-{cell.step}-{cell.kind}"
            shutil.copytree(fragmented, path)
            fs = FaultyFS.at(cell)
            with pytest.raises(SimulatedCrashError):
                compact(path, rows_per_shard=ROWS_PER_SHARD, fs=fs)
            fs.power_loss()
            # Whichever generation's manifest is durable, the store it
            # names is complete: full verify passes, rows identical.
            assert columns_equal(_read_columns(path), expected), cell
            # And the debris of the dead generation sweeps away cleanly.
            gc_store(path)
            assert columns_equal(_read_columns(path), expected), cell

    def test_interrupted_compact_then_retry_converges(self, fragmented, tmp_path):
        """Crash mid-compaction, then compact again: canonical result."""
        expected = _read_columns(fragmented)
        shutil.copytree(fragmented, tmp_path / "c2")
        cells = [c for c in _enumerate(
            lambda fs: compact(tmp_path / "c2", rows_per_shard=ROWS_PER_SHARD, fs=fs)
        ) if c.op == "rename"]
        shutil.rmtree(tmp_path / "c2")
        shutil.copytree(fragmented, tmp_path / "c2")
        mid = cells[len(cells) // 2]
        fs = FaultyFS.at(mid)
        with pytest.raises(SimulatedCrashError):
            compact(tmp_path / "c2", rows_per_shard=ROWS_PER_SHARD, fs=fs)
        fs.power_loss()
        manifest = compact(tmp_path / "c2", rows_per_shard=ROWS_PER_SHARD)
        assert manifest.rows_per_shard == ROWS_PER_SHARD
        gc_store(tmp_path / "c2")
        assert columns_equal(_read_columns(tmp_path / "c2"), expected)


class TestCheckpointCrashMatrix:
    OLD = {100001: 1_500_000_000}
    NEW = {100001: 1_500_000_000, 100002: 1_500_100_000}

    def _save(self, path, fs=None):
        from repro.core.campaign import CollectionCheckpoint

        CollectionCheckpoint(high_water=dict(self.NEW)).save(path, fs=fs)

    def test_checkpoint_is_never_torn(self, tmp_path):
        from repro.core.campaign import CollectionCheckpoint

        cells = _enumerate(lambda fs: self._save(tmp_path / "count.json", fs=fs))
        for cell in cells:
            path = tmp_path / f"cell-{cell.step}-{cell.kind}.json"
            CollectionCheckpoint(high_water=dict(self.OLD)).save(path)
            fs = FaultyFS.at(cell)
            with pytest.raises(SimulatedCrashError):
                self._save(path, fs=fs)
            fs.power_loss()
            if path.exists():
                state = CollectionCheckpoint.load(path).high_water
                assert state in (self.OLD, self.NEW), cell
            # Absent is also legal for a first-ever save; with a prior
            # checkpoint present the rollback must restore it.
            else:
                pytest.fail(f"prior checkpoint vanished at {cell}")


class TestGcCrashMatrix:
    def _littered(self, path):
        _write_store(path)
        (path / "stray.tmp").write_bytes(b"debris")
        (path / "shard-9999-000000.rtt_min.bin").write_bytes(b"old generation")

    def test_gc_never_deletes_the_live_generation(self, tmp_path):
        self._littered(tmp_path / "count")
        expected = _read_columns(tmp_path / "count")
        cells = _enumerate(lambda fs: gc_store(tmp_path / "count", fs=fs))
        assert all(cell.op == "unlink" for cell in cells)
        for cell in cells:
            path = tmp_path / f"cell-{cell.step}-{cell.kind}"
            path.mkdir()
            self._littered(path)
            fs = FaultyFS.at(cell)
            with pytest.raises(SimulatedCrashError):
                gc_store(path, fs=fs)
            fs.power_loss()
            # The live store is untouched no matter where gc died...
            assert columns_equal(_read_columns(path), expected), cell
            # ...and a rerun finishes the sweep.
            gc_store(path)
            assert scrub(path).ok, cell

    def test_gc_refuses_a_directory_without_a_manifest(self, tmp_path):
        (tmp_path / "notastore").mkdir()
        (tmp_path / "notastore" / "x.bin").write_bytes(b"x")
        with pytest.raises(StoreError):
            gc_store(tmp_path / "notastore")
        assert (tmp_path / "notastore" / "x.bin").exists()


class TestBackfillCrashMatrix:
    def _v1_store(self, path):
        """A committed store as a build before zone maps wrote it."""
        current = path.with_name(f"{path.name}-current")
        _write_store(current)
        legacy_copy(current, path, version=1)

    def test_backfill_crash_never_corrupts_a_committed_manifest(self, tmp_path):
        origin = tmp_path / "origin"
        self._v1_store(origin)
        expected = _read_columns(origin)
        count_copy = tmp_path / "count"
        shutil.copytree(origin, count_copy)
        cells = _enumerate(lambda fs: backfill_zone_maps(count_copy, fs=fs))
        for cell in cells:
            path = tmp_path / f"cell-{cell.step}-{cell.kind}"
            shutil.copytree(origin, path)
            fs = FaultyFS.at(cell)
            with pytest.raises(SimulatedCrashError):
                backfill_zone_maps(path, fs=fs)
            fs.power_loss()
            # The manifest parses and names a fully verifiable store —
            # the commit is all-or-nothing, so zone coverage is 0 or
            # complete, and the version field agrees with it.
            payload = json.loads((path / MANIFEST_NAME).read_text())
            manifest = Manifest.load(path)
            zoned, total = manifest.zone_map_coverage()
            assert zoned in (0, total), cell
            assert payload["version"] == (FORMAT_VERSION if zoned else 1), cell
            assert columns_equal(_read_columns(path), expected), cell
            assert scrub(path).intact, cell
            # A rerun always completes the upgrade.
            manifest, _ = backfill_zone_maps(path)
            zoned, total = manifest.zone_map_coverage()
            assert zoned == total > 0, cell
            assert columns_equal(_read_columns(path), expected), cell


def test_manifest_json_is_valid_at_every_surviving_state(tmp_path):
    """A manifest that exists always parses: no torn manifest state."""
    cells = [
        c
        for c in _enumerate(lambda fs: _write_store(tmp_path / "count", fs=fs))
        if c.point == "manifest"
    ]
    assert cells  # the manifest path is instrumented
    for cell in cells:
        path = tmp_path / f"m-{cell.step}-{cell.kind}"
        fs = FaultyFS.at(cell)
        with pytest.raises(SimulatedCrashError):
            _write_store(path, fs=fs)
        fs.power_loss()
        manifest = path / MANIFEST_NAME
        if manifest.exists():
            json.loads(manifest.read_text())

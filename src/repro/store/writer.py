"""Append-oriented store writers and the deterministic compaction pass.

The store's layout rule lives here alone: a shard is cut every
``rows_per_shard`` rows of the canonical row stream.  One
:class:`ShardRangeWriter` per contiguous row range — one per forked
worker, or a single one from row 0 — buffers column batches and writes
every full shard under its final global name;
:func:`assemble_direct_store` stitches the boundary shards from the
ranges' partial rows and commits the manifest.  :class:`StoreWriter`,
behind :func:`write_dataset` and :func:`compact`, is the one-range case.
Because shard boundaries depend only on the cumulative row stream (never
on batch sizes or the split into ranges), every way of writing the same
rows commits the same bytes.

Chunks land atomically as they are cut; the manifest is written last by
:func:`assemble_direct_store` and is the commit point — an aborted or
crashed write leaves chunk files but no manifest, which readers refuse
and ``repro store gc`` removes.

:func:`compact` merges a store's shards back into canonical
``rows_per_shard`` slices in shard order.  It is deterministic (the
output depends only on the row stream and the target shard size) and
idempotent (an already-canonical store is returned untouched).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StoreError
from repro.obs import ensure_obs
from repro.store import codec
from repro.store.fsim import ensure_fs
from repro.store.format import (
    DEFAULT_ROWS_PER_SHARD,
    MANIFEST_NAME,
    SAMPLE_COLUMNS,
    SAMPLE_SCHEMA,
    ChunkMeta,
    Manifest,
    ShardMeta,
    ZoneMap,
    atomic_write_bytes,
    chunk_filename,
    is_store_dir,
    merge_window_runs,
    sha256_hex,
    shard_name,
)


def write_shard_chunks(
    path: Path, name: str, arrays: Dict[str, np.ndarray], fs, obs
) -> ShardMeta:
    """Write one shard's column chunks atomically; return its metadata.

    The single chunk-emission path — :class:`ShardRangeWriter`'s full
    shards and :func:`assemble_direct_store`'s boundary shards — so chunk
    encodings, bytes, checksums, and zone maps are computed identically
    no matter which process cut the shard.  Each chunk takes
    :func:`repro.store.codec.encode`'s choice; its zone map is over the
    values, its checksum over the bytes written.
    """
    rows = len(arrays[SAMPLE_COLUMNS[0]])
    chunks: Dict[str, ChunkMeta] = {}
    with obs.span("store.shard", shard=name, rows=rows):
        for column, dtype in SAMPLE_SCHEMA:
            array = np.ascontiguousarray(arrays[column], dtype=np.dtype(dtype))
            encoding, data = codec.encode(array)
            zone = ZoneMap.from_array(array)
            filename = chunk_filename(name, column)
            try:
                atomic_write_bytes(
                    path / filename,
                    data,
                    fs=fs,
                    point=f"chunk:{filename}",
                )
            except OSError as exc:
                raise StoreError(
                    f"chunk write failed ({exc.strerror or exc}): partial "
                    f"store left at {path} — sweep with `repro store gc`"
                ) from exc
            chunks[column] = ChunkMeta(
                file=filename,
                bytes=len(data),
                sha256=sha256_hex(data),
                zone=zone,
                encoding=encoding,
            )
            obs.inc("store_chunks_written_total")
            obs.inc("store_bytes_written_total", len(data))
    return ShardMeta(name=name, rows=rows, chunks=chunks)


class _ColumnBuffer:
    """Pending column arrays awaiting shard cuts, in row-stream order."""

    def __init__(self):
        self._pending: Dict[str, List[np.ndarray]] = {
            name: [] for name in SAMPLE_COLUMNS
        }
        self.rows = 0

    def append(self, columns: Dict[str, Sequence]) -> int:
        """Validate + buffer one batch; returns the rows appended."""
        arrays = {}
        count = None
        for name, dtype in SAMPLE_SCHEMA:
            try:
                values = columns[name]
            except KeyError:
                raise StoreError(
                    f"append batch is missing column {name!r}"
                ) from None
            array = np.asarray(values, dtype=np.dtype(dtype))
            if count is None:
                count = len(array)
            elif len(array) != count:
                raise StoreError(
                    f"ragged append batch: column {name!r} has {len(array)} "
                    f"rows, expected {count}"
                )
            arrays[name] = array
        if not count:
            return 0
        for name, array in arrays.items():
            self._pending[name].append(array)
        self.rows += count
        return count

    def _take_rows(self, name: str, rows: int) -> np.ndarray:
        """Remove exactly ``rows`` leading rows from one pending column."""
        queue = self._pending[name]
        if not rows:
            return np.empty(0, dtype=np.dtype(dict(SAMPLE_SCHEMA)[name]))
        taken: List[np.ndarray] = []
        remaining = rows
        while remaining:
            head = queue[0]
            if len(head) <= remaining:
                taken.append(queue.pop(0))
                remaining -= len(head)
            else:
                taken.append(head[:remaining])
                queue[0] = head[remaining:]
                remaining = 0
        if len(taken) == 1:
            return taken[0]
        return np.concatenate(taken)

    def take(self, rows: int) -> Dict[str, np.ndarray]:
        """Remove the leading ``rows`` rows across every column."""
        if rows > self.rows:
            raise StoreError(
                f"cannot take {rows} rows from a {self.rows}-row buffer"
            )
        out = {name: self._take_rows(name, rows) for name in SAMPLE_COLUMNS}
        self.rows -= rows
        return out


class StoreWriter:
    """Write one store directory from appended column batches.

    The one-range case of :class:`ShardRangeWriter`: a range that starts
    at row 0 cuts every full shard itself, and :meth:`finalize` hands its
    short last shard to :func:`assemble_direct_store` as the one boundary
    shard to stitch before the manifest commit.

    With ``durable=True`` every chunk is fsynced before the manifest
    commit, so the committed store survives power loss.  Off by default:
    a scratch writer's durability ends at atomicity, which keeps tight
    write loops (tests, benchmarks) off the fsync path.
    """

    def __init__(
        self,
        path,
        provenance: Optional[Dict[str, object]] = None,
        rows_per_shard: int = DEFAULT_ROWS_PER_SHARD,
        generation: int = 0,
        obs=None,
        fs=None,
        durable: bool = False,
    ):
        self.path = Path(path)
        if generation == 0 and is_store_dir(self.path):
            raise StoreError(f"refusing to overwrite existing store at {self.path}")
        self.provenance = provenance
        self._range = ShardRangeWriter(
            self.path,
            row_start=0,
            rows_per_shard=rows_per_shard,
            generation=generation,
            obs=obs,
            fs=fs,
            durable=durable,
        )

    def append_columns(self, columns: Dict[str, Sequence]) -> int:
        """Buffer one batch of parallel columns; cut shards as they fill.

        ``columns`` must cover the sample schema exactly; values are cast
        to its little-endian dtypes.  Returns the rows appended.
        """
        return self._range.append_columns(columns)

    def append_batch(self, target_index: int, window) -> int:
        """Append one measurement window's
        :class:`~repro.atlas.results.ping.PingColumns`, whose rows all
        measure target ``target_index``."""
        return self._range.append_columns(window.sample_columns(target_index))

    def finalize(self) -> Manifest:
        """Cut the last shard, then commit the store by writing its manifest."""
        writer = self._range
        return assemble_direct_store(
            self.path,
            [writer.finish()],
            provenance=self.provenance,
            rows_per_shard=writer.rows_per_shard,
            generation=writer.generation,
            obs=writer.obs,
            fs=writer.fs,
            durable=writer.durable,
        )

    def abort(self) -> None:
        """Best-effort cleanup of an uncommitted store directory.

        Unlinks every chunk this write may have cut — its full shards
        and the boundary shard a failed commit leaves behind — but never
        one the *committed* manifest references: when finalize fails
        after the manifest rename landed (e.g. the final directory sync
        errored), these chunks are already the store's live generation,
        and deleting them would corrupt a committed store to clean up a
        phantom failure.
        """
        writer = self._range
        try:
            referenced = set(Manifest.load(self.path).chunk_files())
        except (StoreError, OSError):
            referenced = set()
        # From row 0, the full shards are 0..n-1 and the last one is n.
        for index in range(len(writer._shards) + 1):
            name = shard_name(writer.generation, index)
            for column in SAMPLE_COLUMNS:
                filename = chunk_filename(name, column)
                if filename in referenced:
                    continue
                try:
                    (self.path / filename).unlink()
                except OSError:
                    pass
        try:
            self.path.rmdir()
        except OSError:
            pass


@dataclass
class ShardRange:
    """What one worker's :class:`ShardRangeWriter` produced.

    The IPC-sized summary of a directly-written row range: full interior
    shards stay on disk and travel back as :class:`ShardMeta` fragments
    only, while the *partial* rows at either end of the range — the rows
    that share a ``rows_per_shard`` slice with a neighbouring worker —
    come back as small column arrays for the parent to stitch.
    """

    row_start: int
    rows: int
    #: Global index of the first interior shard this range wrote
    #: (meaningless when ``shards`` is empty).
    first_shard_index: int
    shards: List[ShardMeta] = field(default_factory=list)
    #: Rows before the first interior shard boundary, column name →
    #: array.  Empty dict when the range starts on a boundary.
    head: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Rows after the last interior shard boundary.
    tail: Dict[str, np.ndarray] = field(default_factory=dict)
    #: ``windows`` RLE over the whole range (partials included).
    windows: Tuple[Tuple[int, int], ...] = ()
    #: Chunk bytes written to disk by this range (interior shards only).
    bytes_written: int = 0

    @property
    def head_rows(self) -> int:
        return len(next(iter(self.head.values()))) if self.head else 0

    @property
    def tail_rows(self) -> int:
        return len(next(iter(self.tail.values()))) if self.tail else 0


class ShardRangeWriter:
    """Direct-to-store writer for one contiguous row range.

    Given the global row offset its range starts at, it cuts the full
    ``rows_per_shard`` slices aligned to global boundaries, written
    atomically under their final global shard names, and holds back the
    boundary-straddling head/tail rows for :func:`assemble_direct_store`
    to stitch.  Because the shard layout is a pure function of the row
    stream, every split into ranges commits the same bytes;
    :class:`StoreWriter` is the one range from row 0.
    """

    def __init__(
        self,
        path,
        row_start: int,
        rows_per_shard: int = DEFAULT_ROWS_PER_SHARD,
        generation: int = 0,
        obs=None,
        fs=None,
        durable: bool = False,
    ):
        if rows_per_shard < 1:
            raise StoreError(f"rows_per_shard must be positive: {rows_per_shard}")
        if row_start < 0:
            raise StoreError(f"row_start must be non-negative: {row_start}")
        self.path = Path(path)
        self.rows_per_shard = int(rows_per_shard)
        self.row_start = int(row_start)
        self.generation = int(generation)
        self.obs = ensure_obs(obs)
        self.fs = ensure_fs(fs)
        self.durable = bool(durable)
        self.path.mkdir(parents=True, exist_ok=True)
        self._buffer = _ColumnBuffer()
        self._windows: List[List[int]] = []
        #: Rows still owed to the head partial before interior cutting
        #: can start: the distance to the next global shard boundary.
        self._head_remaining = (
            -self.row_start
        ) % self.rows_per_shard
        self._head: Optional[Dict[str, np.ndarray]] = (
            None if self._head_remaining else {}
        )
        self._rows_appended = 0
        self._shards: List[ShardMeta] = []
        self._bytes_written = 0
        self._finished = False

    @property
    def first_shard_index(self) -> int:
        return (self.row_start + self._head_remaining) // self.rows_per_shard

    def append_columns(self, columns: Dict[str, Sequence]) -> int:
        """Buffer one batch; write interior shards as boundaries fill."""
        if self._finished:
            raise StoreError("range writer is finished; no further appends")
        count = self._buffer.append(columns)
        if not count:
            return 0
        self._rows_appended += count
        _fold_window_runs(
            self._windows, np.asarray(columns["target_index"], dtype="<i4")
        )
        if self._head is None:
            if self._buffer.rows < self._head_remaining:
                return count
            self._head = self._buffer.take(self._head_remaining)
        while self._buffer.rows >= self.rows_per_shard:
            self._cut_interior()
        return count

    def append_batch(self, target_index: int, window) -> int:
        """Append one measurement window, as :meth:`StoreWriter.append_batch`."""
        return self.append_columns(window.sample_columns(target_index))

    def _cut_interior(self) -> None:
        name = shard_name(self.generation, self.first_shard_index + len(self._shards))
        meta = write_shard_chunks(
            self.path,
            name,
            self._buffer.take(self.rows_per_shard),
            self.fs,
            self.obs,
        )
        self._shards.append(meta)
        self._bytes_written += sum(c.bytes for c in meta.chunks.values())
        self.obs.inc("store_shards_written_total")

    def finish(self) -> ShardRange:
        """Settle durability and package the range's manifest fragment.

        The remaining buffered rows become the tail partial.  With
        ``durable=True`` every interior chunk is fsynced here, *in the
        worker* — the parent only syncs the directory and the manifest,
        so no process ever waits on another's data blocks.
        """
        if self._finished:
            raise StoreError("range writer is already finished")
        self._finished = True
        if self._head is None:
            # The whole range fits before the first boundary.
            self._head = self._buffer.take(self._buffer.rows)
        tail = self._buffer.take(self._buffer.rows)
        if self.durable:
            for shard in self._shards:
                for meta in shard.chunks.values():
                    self.fs.fsync_path(
                        self.path / meta.file, point=f"chunk:{meta.file}"
                    )
        return ShardRange(
            row_start=self.row_start,
            rows=self._rows_appended,
            first_shard_index=self.first_shard_index,
            shards=self._shards,
            head={name: np.ascontiguousarray(a) for name, a in self._head.items()},
            tail={name: np.ascontiguousarray(a) for name, a in tail.items()},
            windows=tuple((t, r) for t, r in self._windows),
            bytes_written=self._bytes_written,
        )


def _fold_window_runs(windows: List[List[int]], targets: np.ndarray) -> None:
    """Fold one batch's target runs into an accumulating RLE in place."""
    if not len(targets):
        return
    boundaries = np.flatnonzero(np.diff(targets)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(targets)]))
    for start, end in zip(starts, ends):
        target = int(targets[start])
        if windows and windows[-1][0] == target:
            windows[-1][1] += int(end - start)
        else:
            windows.append([target, int(end - start)])


def assemble_direct_store(
    path,
    fragments: Sequence[ShardRange],
    provenance: Optional[Dict[str, object]] = None,
    rows_per_shard: int = DEFAULT_ROWS_PER_SHARD,
    generation: int = 0,
    obs=None,
    fs=None,
    durable: bool = True,
) -> Manifest:
    """Stitch per-worker range fragments into one committed store.

    ``fragments`` must cover ``[0, total_rows)`` contiguously in order.
    Interior shards were already written (and fsynced) by the workers;
    this writes the boundary shards — each assembled from the head/tail
    partials of the workers whose ranges straddle it — in global shard
    order, validates that the union is exactly the canonical one-pass
    layout, merges the per-range ``windows`` RLEs, and commits the
    manifest.  The result depends only on the row stream, not on how it
    was split into ranges.

    A failure anywhere before the manifest write leaves an uncommitted
    directory (chunks, no manifest) — invisible to readers and the
    catalog, sweepable by gc.
    """
    obs = ensure_obs(obs)
    fs = ensure_fs(fs)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    rows_per_shard = int(rows_per_shard)
    # -- validate contiguity ---------------------------------------------------
    ordered = sorted(fragments, key=lambda f: f.row_start)
    cursor = 0
    for fragment in ordered:
        if fragment.row_start != cursor:
            raise StoreError(
                f"range fragments do not tile the row stream: expected a "
                f"fragment at row {cursor}, got {fragment.row_start}"
            )
        cursor += fragment.rows
    total_rows = cursor
    shard_count = max(1, -(-total_rows // rows_per_shard)) if total_rows else 0
    # -- index the interior shards the workers wrote ---------------------------
    by_index: Dict[int, ShardMeta] = {}
    for fragment in ordered:
        for offset, meta in enumerate(fragment.shards):
            index = fragment.first_shard_index + offset
            if meta.name != shard_name(generation, index):
                raise StoreError(
                    f"fragment shard {meta.name} is not "
                    f"{shard_name(generation, index)}, its global index "
                    f"at generation {generation}"
                )
            if meta.rows != rows_per_shard:
                raise StoreError(
                    f"interior shard {meta.name} has {meta.rows} rows, "
                    f"expected {rows_per_shard}"
                )
            if index in by_index:
                raise StoreError(f"two fragments both wrote shard index {index}")
            by_index[index] = meta
    # -- stitch the boundary shards from the partial rows ----------------------
    partials: List[Tuple[int, Dict[str, np.ndarray]]] = []
    for fragment in ordered:
        if fragment.head_rows:
            partials.append((fragment.row_start, fragment.head))
        if fragment.tail_rows:
            partials.append(
                (fragment.row_start + fragment.rows - fragment.tail_rows,
                 fragment.tail)
            )
    partials.sort(key=lambda item: item[0])
    parent_written: List[str] = []
    shards: List[ShardMeta] = []
    for index in range(shard_count):
        if index in by_index:
            shards.append(by_index.pop(index))
            continue
        lo = index * rows_per_shard
        hi = min(lo + rows_per_shard, total_rows)
        pieces: List[Dict[str, np.ndarray]] = []
        covered = lo
        for start, columns in partials:
            rows = len(next(iter(columns.values())))
            if start + rows <= lo or start >= hi:
                continue
            if start != covered:
                raise StoreError(
                    f"boundary shard {index} has a row gap at {covered}"
                )
            clip_lo = max(0, lo - start)
            clip_hi = min(rows, hi - start)
            pieces.append(
                {name: array[clip_lo:clip_hi] for name, array in columns.items()}
            )
            covered = start + clip_hi
        if covered != hi:
            raise StoreError(
                f"boundary shard {index} is missing rows {covered}..{hi}"
            )
        arrays = {
            name: (
                np.concatenate([piece[name] for piece in pieces])
                if len(pieces) > 1
                else pieces[0][name]
            )
            for name in SAMPLE_COLUMNS
        }
        meta = write_shard_chunks(path, shard_name(generation, index), arrays, fs, obs)
        parent_written.extend(chunk.file for chunk in meta.chunks.values())
        shards.append(meta)
        obs.inc("store_shards_written_total")
    if by_index:
        raise StoreError(
            f"fragment shard indices {sorted(by_index)} fall outside the "
            f"{shard_count}-shard layout"
        )
    # -- commit ----------------------------------------------------------------
    if durable:
        for filename in parent_written:
            fs.fsync_path(path / filename, point=f"chunk:{filename}")
        fs.fsync_dir(path, point="store-dir")
    manifest = Manifest(
        rows=total_rows,
        generation=generation,
        rows_per_shard=rows_per_shard,
        provenance=provenance,
        shards=shards,
        windows=merge_window_runs([fragment.windows for fragment in ordered]),
    )
    manifest.save(path, fs=fs)
    obs.inc("store_rows_written_total", total_rows)
    obs.event("store.commit", rows=total_rows, shards=len(shards))
    return manifest


def write_dataset(
    dataset,
    path,
    provenance: Optional[Dict[str, object]] = None,
    rows_per_shard: int = DEFAULT_ROWS_PER_SHARD,
    obs=None,
    fs=None,
) -> Manifest:
    """Persist a (frozen) :class:`~repro.core.dataset.CampaignDataset`.

    One batched pass through the shard writer; byte-identical to having
    streamed the same rows during collection.  Durable: the committed
    store survives power loss.
    """
    obs = ensure_obs(obs if obs is not None else getattr(dataset, "obs", None))
    dataset.freeze()
    with obs.span("store.write", path=str(path), rows=dataset.num_samples):
        writer = StoreWriter(
            path,
            provenance=provenance,
            rows_per_shard=rows_per_shard,
            obs=obs,
            fs=fs,
            durable=True,
        )
        try:
            writer.append_columns(
                {name: dataset.column(name) for name, _ in SAMPLE_SCHEMA}
            )
            return writer.finalize()
        except BaseException:
            writer.abort()
            raise


def is_canonical(manifest: Manifest, rows_per_shard: int) -> bool:
    """True when the shard layout already matches ``rows_per_shard``."""
    if manifest.rows_per_shard != rows_per_shard:
        return False
    for position, shard in enumerate(manifest.shards):
        last = position == len(manifest.shards) - 1
        if not last and shard.rows != rows_per_shard:
            return False
        if last and shard.rows > rows_per_shard:
            return False
    return True


def compact(
    path,
    rows_per_shard: int = DEFAULT_ROWS_PER_SHARD,
    obs=None,
    fs=None,
) -> Manifest:
    """Merge a store's shards into canonical ``rows_per_shard`` slices.

    Rows stream in shard order, so the result is byte-identical to a
    store written in one pass at that shard size; already-canonical
    stores are returned untouched (idempotence).  New-generation chunks
    land before the manifest swap and the old generation's chunks are
    unlinked after it — a crash at any point leaves a valid store plus,
    at worst, orphan chunks for ``gc`` to sweep.
    """
    from repro.store.reader import StoreReader

    obs = ensure_obs(obs)
    fs = ensure_fs(fs)
    path = Path(path)
    reader = StoreReader(path, verify="full", obs=obs)
    manifest = reader.manifest
    if is_canonical(manifest, rows_per_shard):
        return manifest
    with obs.span(
        "store.compact",
        path=str(path),
        shards_before=len(manifest.shards),
        rows=manifest.rows,
    ):
        old_files = manifest.chunk_files()
        writer = StoreWriter(
            path,
            provenance=manifest.provenance,
            rows_per_shard=rows_per_shard,
            generation=manifest.generation + 1,
            obs=obs,
            fs=fs,
            durable=True,
        )
        try:
            writer.append_columns(
                {name: reader.column(name) for name in manifest.columns}
            )
            compacted = writer.finalize()
        except BaseException:
            writer.abort()
            raise
        for filename in old_files:
            try:
                fs.unlink(path / filename, point=f"compact:{filename}")
            except OSError:
                pass
        obs.inc("store_compactions_total")
        return compacted


def legacy_copy(src, dst, version: int) -> Manifest:
    """Copy the committed store at ``src`` to ``dst`` as a store of an
    older format ``version`` (1, 2 or 3), exactly as a build of that
    version wrote it: each chunk in an encoding that version knows
    (:data:`repro.store.codec.INTRODUCED`) keeps its bytes, every other
    one is rewritten raw under its original file name with a checksum
    over those raw bytes; the manifest names no encoding before version
    3 and no zone map before version 2, and carries the old version
    field.  Provenance, generation and window index carry over, so the
    copy scrubs, scans and repairs like the original.
    """
    from repro.store.reader import StoreReader

    if version not in (1, 2, 3):
        raise StoreError(f"legacy copies are format version 1, 2 or 3: {version!r}")
    reader = StoreReader(src, verify="full")
    dst = Path(dst)
    dst.mkdir(parents=True)
    shards: List[ShardMeta] = []
    for shard in reader.manifest.shards:
        chunks: Dict[str, ChunkMeta] = {}
        for column, meta in shard.chunks.items():
            if codec.INTRODUCED[meta.encoding] <= version:
                atomic_write_bytes(dst / meta.file, (reader.path / meta.file).read_bytes())
                chunks[column] = meta
                continue
            data = np.ascontiguousarray(reader._chunk_view(shard, column)).tobytes()
            atomic_write_bytes(dst / meta.file, data)
            chunks[column] = replace(
                meta, bytes=len(data), sha256=sha256_hex(data), encoding=codec.RAW
            )
        shards.append(replace(shard, chunks=chunks))
    payload = json.loads(replace(reader.manifest, shards=shards).to_json())
    payload["version"] = version
    for shard in payload["shards"]:
        for chunk in shard["chunks"].values():
            if version < 3:
                del chunk["encoding"]
            if version < 2:
                chunk.pop("zone", None)
    atomic_write_bytes(
        dst / MANIFEST_NAME,
        (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode("utf-8"),
        fsync=True,
    )
    return Manifest.load(dst)


def gc_store(path, fs=None) -> List[str]:
    """Remove files a store's manifest does not reference.

    Sweeps stray ``*.tmp`` files and orphaned chunks (e.g. a prior
    generation left by a crash mid-compaction).  Returns the removed
    filenames.  ``path`` must hold a committed store; the live
    generation's files and subdirectories (e.g. ``quarantine/``) are
    never touched.
    """
    fs = ensure_fs(fs)
    path = Path(path)
    manifest = Manifest.load(path)
    referenced = set(manifest.chunk_files()) | {MANIFEST_NAME}
    removed: List[str] = []
    for entry in sorted(path.iterdir()):
        if entry.name in referenced or entry.is_dir():
            continue
        fs.unlink(entry, point=f"gc:{entry.name}")
        removed.append(entry.name)
    return removed

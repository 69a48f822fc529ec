"""Append-oriented store writer and the deterministic compaction pass.

:class:`StoreWriter` accepts per-measurement column batches — straight
off the campaign's columnar fast path — buffers them, and cuts shards at
*exact* ``rows_per_shard`` boundaries.  Because shard boundaries depend
only on the cumulative row stream (never on batch sizes, flush timing,
or worker count), streaming a collection through the writer produces the
same bytes as saving the frozen dataset afterwards, and a parallel
collection merged in canonical order produces the same bytes as a serial
one.

Chunks land atomically as they are cut; the manifest is written last by
:meth:`StoreWriter.finalize` and is the commit point — an aborted or
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
    shard_index_of,
    shard_name,
)


def write_shard_chunks(
    path: Path,
    name: str,
    arrays: Dict[str, np.ndarray],
    schema: Tuple[Tuple[str, str], ...],
    fs,
    obs,
) -> ShardMeta:
    """Write one shard's column chunks atomically; return its metadata.

    The single chunk-emission path shared by every writer — one-pass
    :class:`StoreWriter`, per-worker :class:`ShardRangeWriter`, and the
    parent's boundary stitching — so chunk encodings, bytes, checksums,
    and zone maps are computed identically no matter which process cut
    the shard.  Each chunk takes :func:`repro.store.codec.encode`'s
    choice; its zone map is over the values, its checksum over the bytes
    written.
    """
    rows = len(arrays[schema[0][0]])
    chunks: Dict[str, ChunkMeta] = {}
    with obs.span("store.shard", shard=name, rows=rows):
        for column, dtype in schema:
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

    def __init__(self, schema: Tuple[Tuple[str, str], ...]):
        self.schema = tuple(schema)
        self._pending: Dict[str, List[np.ndarray]] = {
            name: [] for name, _ in self.schema
        }
        self.rows = 0

    def append(self, columns: Dict[str, Sequence]) -> int:
        """Validate + buffer one batch; returns the rows appended."""
        arrays = {}
        count = None
        for name, dtype in self.schema:
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
            dtype = dict(self.schema)[name]
            return np.empty(0, dtype=np.dtype(dtype))
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
        out = {name: self._take_rows(name, rows) for name, _ in self.schema}
        self.rows -= rows
        return out

    def clear(self) -> None:
        self._pending = {name: [] for name, _ in self.schema}
        self.rows = 0


class StoreWriter:
    """Write one store directory from appended column batches."""

    def __init__(
        self,
        path,
        provenance: Optional[Dict[str, object]] = None,
        schema: Tuple[Tuple[str, str], ...] = SAMPLE_SCHEMA,
        rows_per_shard: int = DEFAULT_ROWS_PER_SHARD,
        generation: int = 0,
        obs=None,
        fs=None,
        durable: bool = False,
    ):
        if rows_per_shard < 1:
            raise StoreError(f"rows_per_shard must be positive: {rows_per_shard}")
        self.path = Path(path)
        if generation == 0 and is_store_dir(self.path):
            raise StoreError(f"refusing to overwrite existing store at {self.path}")
        self.schema = tuple(schema)
        self.rows_per_shard = int(rows_per_shard)
        self.generation = int(generation)
        self.provenance = provenance
        self.obs = ensure_obs(obs)
        self.fs = ensure_fs(fs)
        #: With ``durable=True`` every chunk is fsynced (in bulk, at
        #: finalize, before the manifest commit) so the committed store
        #: survives power loss.  Off by default: a scratch writer's
        #: durability ends at atomicity, which keeps tight write loops
        #: (tests, benchmarks) off the fsync path.
        self.durable = bool(durable)
        self.path.mkdir(parents=True, exist_ok=True)
        self._buffer = _ColumnBuffer(self.schema)
        self._shards: List[ShardMeta] = []
        self._rows_written = 0
        self._windows: List[List[int]] = []
        self._finalized = False

    # -- appending -------------------------------------------------------------

    def append_columns(self, columns: Dict[str, Sequence]) -> int:
        """Buffer one batch of parallel columns; cut shards as they fill.

        ``columns`` must cover the schema exactly; values are cast to the
        schema's little-endian dtypes.  Returns the rows appended.
        """
        if self._finalized:
            raise StoreError("writer is finalized; no further appends")
        count = self._buffer.append(columns)
        if not count:
            return 0
        if "target_index" in dict(self.schema):
            self._extend_windows(np.asarray(columns["target_index"], dtype="<i4"))
        while self._buffer.rows >= self.rows_per_shard:
            self._cut_shard(self.rows_per_shard)
        return count

    def append_batch(
        self,
        probe_ids,
        target_index,
        timestamps,
        rtt_min,
        rtt_avg,
        sent,
        rcvd,
    ) -> int:
        """Append one measurement window's samples (sample schema only).

        ``target_index`` may be a scalar — the common case of one window
        sharing one target — or a per-row sequence.
        """
        count = len(probe_ids)
        if np.ndim(target_index) == 0:
            target_index = np.full(count, int(target_index), dtype="<i4")
        return self.append_columns(
            {
                "probe_id": probe_ids,
                "target_index": target_index,
                "timestamp": timestamps,
                "rtt_min": rtt_min,
                "rtt_avg": rtt_avg,
                "sent": sent,
                "rcvd": rcvd,
            }
        )

    def _extend_windows(self, targets: np.ndarray) -> None:
        """Fold one batch's target runs into the manifest window index.

        Runs that continue across batch (and shard) boundaries merge, so
        the encoding depends only on the concatenated row stream — the
        same invariance the shard layout has.
        """
        _fold_window_runs(self._windows, targets)

    # -- shard cutting ---------------------------------------------------------

    def _cut_shard(self, rows: int) -> None:
        name = shard_name(self.generation, len(self._shards))
        meta = write_shard_chunks(
            self.path, name, self._buffer.take(rows), self.schema, self.fs, self.obs
        )
        self._rows_written += rows
        self._shards.append(meta)
        self.obs.inc("store_shards_written_total")

    def flush(self) -> None:
        """Cut whatever is buffered as a (possibly short) final shard."""
        if self._buffer.rows:
            self._cut_shard(self._buffer.rows)

    # -- lifecycle -------------------------------------------------------------

    @property
    def rows_written(self) -> int:
        return self._rows_written + self._buffer.rows

    def finalize(self) -> Manifest:
        """Flush, then commit the store by writing its manifest."""
        if self._finalized:
            raise StoreError("writer is already finalized")
        self.flush()
        if self.durable:
            # Settle chunk durability in one pass, *before* the manifest
            # commit: once the manifest is durable, every byte it
            # references must be too.
            for shard in self._shards:
                for meta in shard.chunks.values():
                    self.fs.fsync_path(
                        self.path / meta.file, point=f"chunk:{meta.file}"
                    )
            self.fs.fsync_dir(self.path, point="store-dir")
        manifest = Manifest(
            schema=self.schema,
            rows=self._rows_written,
            generation=self.generation,
            rows_per_shard=self.rows_per_shard,
            provenance=self.provenance,
            shards=self._shards,
            windows=(
                tuple((target, rows) for target, rows in self._windows)
                if "target_index" in dict(self.schema)
                else None
            ),
        )
        manifest.save(self.path, fs=self.fs)
        self._finalized = True
        self.obs.inc("store_rows_written_total", self._rows_written)
        self.obs.event(
            "store.commit", rows=self._rows_written, shards=len(self._shards)
        )
        return manifest

    def abort(self) -> None:
        """Best-effort cleanup of an uncommitted store directory.

        Never removes a chunk the *committed* manifest references: when
        finalize fails after the manifest rename landed (e.g. the final
        directory sync errored), this writer's chunks are already the
        store's live generation, and deleting them would corrupt a
        committed store to clean up a phantom failure.
        """
        self._finalized = True
        self._buffer.clear()
        try:
            referenced = set(Manifest.load(self.path).chunk_files())
        except (StoreError, OSError):
            referenced = set()
        for shard in self._shards:
            for meta in shard.chunks.values():
                if meta.file in referenced:
                    continue
                try:
                    (self.path / meta.file).unlink()
                except OSError:
                    pass
        self._shards = []
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

    def chunk_files(self) -> List[str]:
        return [
            meta.file for shard in self.shards for meta in shard.chunks.values()
        ]


class ShardRangeWriter:
    """Direct-to-store writer for one worker's contiguous row range.

    The shared-nothing counterpart of :class:`StoreWriter`: given the
    global row offset its range starts at, it cuts **exactly the shards a
    single-pass writer would cut** for those rows — full
    ``rows_per_shard`` slices aligned to global boundaries, written
    atomically under their final global shard names — and holds back the
    boundary-straddling head/tail rows for the parent to stitch.  Because
    the shard layout is a pure function of the row stream, the union of
    every worker's interior shards plus the parent-stitched boundary
    shards is byte-identical to a serial write.
    """

    def __init__(
        self,
        path,
        row_start: int,
        rows_per_shard: int = DEFAULT_ROWS_PER_SHARD,
        schema: Tuple[Tuple[str, str], ...] = SAMPLE_SCHEMA,
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
        self.schema = tuple(schema)
        self.rows_per_shard = int(rows_per_shard)
        self.row_start = int(row_start)
        self.generation = int(generation)
        self.obs = ensure_obs(obs)
        self.fs = ensure_fs(fs)
        self.durable = bool(durable)
        self.path.mkdir(parents=True, exist_ok=True)
        self._buffer = _ColumnBuffer(self.schema)
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
        if "target_index" in dict(self.schema):
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

    def append_batch(
        self, probe_ids, target_index, timestamps, rtt_min, rtt_avg, sent, rcvd
    ) -> int:
        """Sample-schema convenience mirroring :meth:`StoreWriter.append_batch`."""
        count = len(probe_ids)
        if np.ndim(target_index) == 0:
            target_index = np.full(count, int(target_index), dtype="<i4")
        return self.append_columns(
            {
                "probe_id": probe_ids,
                "target_index": target_index,
                "timestamp": timestamps,
                "rtt_min": rtt_min,
                "rtt_avg": rtt_avg,
                "sent": sent,
                "rcvd": rcvd,
            }
        )

    def _cut_interior(self) -> None:
        name = shard_name(self.generation, self.first_shard_index + len(self._shards))
        meta = write_shard_chunks(
            self.path,
            name,
            self._buffer.take(self.rows_per_shard),
            self.schema,
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

    def discard(self) -> None:
        """Unlink every interior chunk this range wrote (crash cleanup)."""
        self._finished = True
        self._buffer.clear()
        for shard in self._shards:
            for meta in shard.chunks.values():
                try:
                    (self.path / meta.file).unlink()
                except OSError:
                    pass
        self._shards = []


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


def discard_fragments(path, fragments: Sequence[ShardRange]) -> None:
    """Unlink every chunk a set of range fragments wrote (abort path).

    Used when a direct-to-store collection fails after workers already
    streamed interior shards: the manifest was never written, so the
    directory is not a committed store, and these chunks are garbage a
    ``repro store gc`` would sweep — this just sweeps them eagerly.
    """
    path = Path(path)
    for fragment in fragments:
        for filename in fragment.chunk_files():
            try:
                (path / filename).unlink()
            except OSError:
                pass
    try:
        path.rmdir()
    except OSError:
        pass


def assemble_direct_store(
    path,
    fragments: Sequence[ShardRange],
    provenance: Optional[Dict[str, object]] = None,
    schema: Tuple[Tuple[str, str], ...] = SAMPLE_SCHEMA,
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
    manifest.  The result is byte-identical to a serial
    :class:`StoreWriter` pass over the same row stream.

    A failure anywhere before the manifest write leaves an uncommitted
    directory (chunks, no manifest) — invisible to readers and the
    catalog, sweepable by gc.
    """
    obs = ensure_obs(obs)
    fs = ensure_fs(fs)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    schema = tuple(schema)
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
            if shard_index_of(meta.name) != index:
                raise StoreError(
                    f"fragment shard {meta.name} is not at its global "
                    f"index {index}"
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
            for name, _ in schema
        }
        meta = write_shard_chunks(
            path, shard_name(generation, index), arrays, schema, fs, obs
        )
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
        schema=schema,
        rows=total_rows,
        generation=generation,
        rows_per_shard=rows_per_shard,
        provenance=provenance,
        shards=shards,
        windows=(
            merge_window_runs([fragment.windows for fragment in ordered])
            if "target_index" in dict(schema)
            else None
        ),
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
            schema=manifest.schema,
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

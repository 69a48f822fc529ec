"""The on-disk layout of a persistent campaign store.

A store is one directory holding

* ``manifest.json`` — the commit record: format version, column schema
  (explicit little-endian dtypes), row counts, campaign provenance
  (seed / fault profile / scale / schedule), and one SHA-256 checksum
  per column chunk;
* column chunks — ``<shard>.<column>.bin`` files, each one column over
  one shard's rows, in the encoding its manifest entry names
  (:mod:`repro.store.codec`): the smallest lossless one whose decode
  reproduces the raw little-endian bytes exactly, or those raw bytes.

Every file lands atomically (private temp file + ``os.replace``, the
same discipline as :class:`~repro.core.campaign.CollectionCheckpoint`),
and the manifest is written *last*: a directory without a parseable,
current-version manifest is not a store, so a crash mid-write can never
produce something a reader would silently analyze.  Nothing in the
manifest depends on wall-clock time — two writes of the same frozen
dataset are byte-identical, which is what lets the catalog treat a store
as content-addressed by campaign fingerprint.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.constants import SAMPLE_SCHEMA
from repro.errors import StoreError, StoreIntegrityError
from repro.store import codec
from repro.store.codec import RAW

#: Manifest ``format`` marker and the layout version this build writes.
#: Version 2 added per-chunk zone maps (min/max/null-count) for scan
#: pruning; version-1 manifests (no zone maps) remain readable — scans
#: over them simply cannot skip.  Version 3 stores each chunk in a
#: lossless encoding and records it per chunk; the checksum covers the
#: encoded bytes and the zone map the decoded values.  Every chunk of a
#: version-1 or -2 store is raw.  Version 4 adds the ``mean`` encoding of
#: float means; a manifest names only the encodings its version knows
#: (:data:`repro.store.codec.INTRODUCED`).
FORMAT_NAME = "repro.store"
FORMAT_VERSION = 4

#: Manifest versions :meth:`Manifest.from_json` accepts.
SUPPORTED_VERSIONS = (1, 2, 3, 4)

MANIFEST_NAME = "manifest.json"

#: Canonical shard size: shards are cut at exactly this many rows (the
#: last shard carries the remainder), making the shard layout a pure
#: function of the row stream — independent of worker count, batch
#: boundaries, or whether the store was streamed or saved post-freeze.
DEFAULT_ROWS_PER_SHARD = 1 << 19

SAMPLE_COLUMNS: Tuple[str, ...] = tuple(name for name, _ in SAMPLE_SCHEMA)


def atomic_write_bytes(
    path: Path,
    data: bytes,
    fs=None,
    point: Optional[str] = None,
    fsync: bool = False,
) -> None:
    """Write ``data`` to ``path`` via a private temp file + rename.

    ``fsync=True`` makes the write *durable*, not just atomic: the temp
    file's data is flushed before the rename and the parent directory is
    flushed after it, so the committed entry survives power loss.  Plain
    atomicity (the default) is enough for chunk files, whose durability
    the writer settles in bulk at finalize time.

    A write that fails before its rename lands removes its temp file, so
    it leaves the target as it was and no debris behind.

    ``fs`` is the :mod:`repro.store.fsim` seam (``None`` → real disk);
    ``point`` labels this write's operations for fault targeting.
    """
    from repro.store.fsim import ensure_fs

    fs = ensure_fs(fs)
    path = Path(path)
    label = point if point is not None else path.name
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        fs.write_bytes(tmp, data, point=label)
        if fsync:
            fs.fsync_path(tmp, point=label)
        fs.replace(tmp, path, point=label)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    if fsync:
        fs.fsync_dir(path.parent, point=label)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path, chunk_bytes: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk_bytes)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def shard_name(generation: int, index: int) -> str:
    """Canonical shard name; the generation tag keeps compaction's new
    chunk files from colliding with the ones they replace."""
    return f"shard-{generation:04d}-{index:06d}"


def merge_window_runs(fragments) -> Tuple[Tuple[int, int], ...]:
    """Concatenate per-fragment ``windows`` RLEs into one stream RLE.

    Each fragment is ``((target_index, rows), ...)`` over a contiguous
    row range; fragments must arrive in row order.  Runs that continue
    across a fragment join merge, so the result depends only on the
    concatenated row stream — the same invariance the shard layout has,
    which is what makes a manifest assembled from per-worker fragments
    byte-identical to one written in a single pass.
    """
    merged: List[List[int]] = []
    for runs in fragments:
        for target, rows in runs:
            if not rows:
                continue
            if merged and merged[-1][0] == int(target):
                merged[-1][1] += int(rows)
            else:
                merged.append([int(target), int(rows)])
    return tuple((target, rows) for target, rows in merged)


def chunk_filename(shard: str, column: str) -> str:
    return f"{shard}.{column}.bin"


@dataclass(frozen=True)
class ZoneMap:
    """Per-chunk value bounds: the pruning metadata of one column chunk.

    ``minimum``/``maximum`` are over the chunk's non-NaN values and are
    ``None`` when the chunk is empty or all-NaN; ``nulls`` counts NaNs.
    Computed by one function (:meth:`from_array`) wherever zones are
    produced — writer, backfill, scrub recheck — so recomputation from
    chunk bytes is deterministic and scrub can treat a mismatch as
    damage.
    """

    minimum: Optional[float]
    maximum: Optional[float]
    nulls: int = 0

    @classmethod
    def from_array(cls, array: "np.ndarray") -> "ZoneMap":
        array = np.asarray(array).ravel()
        if array.size == 0:
            return cls(minimum=None, maximum=None, nulls=0)
        if np.issubdtype(array.dtype, np.floating):
            nulls = int(np.count_nonzero(np.isnan(array)))
            if nulls == array.size:
                return cls(minimum=None, maximum=None, nulls=nulls)
            return cls(
                minimum=float(np.nanmin(array)),
                maximum=float(np.nanmax(array)),
                nulls=nulls,
            )
        return cls(
            minimum=int(np.min(array)), maximum=int(np.max(array)), nulls=0
        )

    def as_dict(self) -> Dict[str, object]:
        return {"min": self.minimum, "max": self.maximum, "nulls": self.nulls}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ZoneMap":
        minimum = payload.get("min")
        maximum = payload.get("max")
        return cls(
            minimum=minimum if minimum is None else _json_number(minimum),
            maximum=maximum if maximum is None else _json_number(maximum),
            nulls=int(payload.get("nulls", 0)),
        )


def _json_number(value: object):
    """Round-trip a zone bound: ints stay int, floats stay float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"zone map bound is not a number: {value!r}")
    return value


@dataclass(frozen=True)
class ChunkMeta:
    """One column over one shard: its file, encoding, byte length and
    checksum, the last two of the bytes on disk.

    ``zone`` is the chunk's :class:`ZoneMap` over its decoded values
    (version-2 manifests on); ``None`` on manifests written before zone
    maps existed, in which case scans read the chunk unconditionally.
    ``encoding`` names a :mod:`repro.store.codec` encoding; chunks of
    version-1 and -2 manifests are raw.
    """

    file: str
    bytes: int
    sha256: str
    zone: Optional[ZoneMap] = None
    encoding: str = RAW

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "file": self.file,
            "bytes": self.bytes,
            "sha256": self.sha256,
            "encoding": self.encoding,
        }
        if self.zone is not None:
            payload["zone"] = self.zone.as_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ChunkMeta":
        zone = payload.get("zone")
        return cls(
            file=str(payload["file"]),
            bytes=int(payload["bytes"]),
            sha256=str(payload["sha256"]),
            zone=ZoneMap.from_dict(dict(zone)) if zone is not None else None,
            encoding=str(payload.get("encoding", RAW)),
        )


@dataclass(frozen=True)
class ShardMeta:
    """One shard: a contiguous row range stored as one chunk per column."""

    name: str
    rows: int
    chunks: Dict[str, ChunkMeta]

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "rows": self.rows,
            "chunks": {col: meta.as_dict() for col, meta in self.chunks.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ShardMeta":
        return cls(
            name=str(payload["name"]),
            rows=int(payload["rows"]),
            chunks={
                str(col): ChunkMeta.from_dict(meta)
                for col, meta in dict(payload["chunks"]).items()
            },
        )


@dataclass
class Manifest:
    """The store's commit record (see module docstring)."""

    schema: Tuple[Tuple[str, str], ...] = SAMPLE_SCHEMA
    rows: int = 0
    generation: int = 0
    rows_per_shard: int = DEFAULT_ROWS_PER_SHARD
    provenance: Optional[Dict[str, object]] = None
    shards: List[ShardMeta] = field(default_factory=list)
    #: Run-length encoding of the ``target_index`` column over the full
    #: row stream: ``((target_index, rows), ...)``.  A pure function of
    #: the rows, maintained by the writer; it maps any damaged shard's
    #: row range back to whole measurement windows, which is what lets
    #: ``repair`` re-synthesize only the affected windows.  Optional so
    #: hand-built or pre-windows manifests stay valid.
    windows: Optional[Tuple[Tuple[int, int], ...]] = None
    #: The layout version this manifest was read with.  A manifest is
    #: always written at :data:`FORMAT_VERSION`; an older one's chunks
    #: are all raw, which the current version describes as well.
    version: int = FORMAT_VERSION

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.schema)

    def dtype_of(self, column: str) -> str:
        for name, dtype in self.schema:
            if name == column:
                return dtype
        raise StoreError(f"no column {column!r} in store schema")

    def chunk_files(self) -> List[str]:
        """Every chunk filename the manifest references, in shard order."""
        return [
            meta.file
            for shard in self.shards
            for meta in shard.chunks.values()
        ]

    def total_chunk_bytes(self) -> int:
        return sum(
            meta.bytes for shard in self.shards for meta in shard.chunks.values()
        )

    def column_bytes(self) -> Dict[str, Tuple[int, Dict[str, int]]]:
        """Per column: chunk bytes on disk, and chunks per encoding."""
        totals: Dict[str, Tuple[int, Dict[str, int]]] = {}
        for name in self.columns:
            size, encodings = 0, {}
            for shard in self.shards:
                meta = shard.chunks[name]
                size += meta.bytes
                encodings[meta.encoding] = encodings.get(meta.encoding, 0) + 1
            totals[name] = (size, encodings)
        return totals

    def zone_map_coverage(self) -> Tuple[int, int]:
        """``(chunks with zone maps, total chunks)``."""
        total = zoned = 0
        for shard in self.shards:
            for meta in shard.chunks.values():
                total += 1
                if meta.zone is not None:
                    zoned += 1
        return zoned, total

    @functools.cached_property
    def shape_fault(self) -> Optional[str]:
        """Why the manifest contradicts itself, or None: rows must add
        up, chunks cover the schema, and each chunk's encoding apply to
        its dtype and be able to take its declared byte length for its
        row count (:func:`repro.store.codec.fits`).

        A pure function of the manifest, computed once per object; a
        parsed manifest is shared by every reader of the same bytes
        (:func:`_parsed`), so a store is checked once however often it
        is opened.
        """
        dtypes = {name: np.dtype(dtype) for name, dtype in self.schema}
        columns = set(dtypes)
        total = 0
        for shard in self.shards:
            total += shard.rows
            if set(shard.chunks) != columns:
                return (
                    f"shard {shard.name} chunks {sorted(shard.chunks)} do not "
                    f"cover the schema {sorted(columns)}"
                )
            for column, meta in shard.chunks.items():
                dtype = dtypes[column]
                if not codec.fits(meta.encoding, dtype, shard.rows, meta.bytes):
                    return (
                        f"chunk {meta.file} declares {meta.bytes} bytes of "
                        f"{meta.encoding!r} for {shard.rows} rows of {dtype}"
                    )
        if total != self.rows:
            return f"manifest declares {self.rows} rows but shards hold {total}"
        return None

    def to_json(self) -> str:
        payload = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "generation": self.generation,
            "rows": self.rows,
            "rows_per_shard": self.rows_per_shard,
            "schema": [[name, dtype] for name, dtype in self.schema],
            "provenance": self.provenance,
            "shards": [shard.as_dict() for shard in self.shards],
        }
        if self.windows is not None:
            payload["windows"] = [[target, rows] for target, rows in self.windows]
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreIntegrityError(
                f"store manifest is truncated or unparseable: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
            raise StoreIntegrityError("store manifest is not a repro.store manifest")
        version = payload.get("version")
        if version not in SUPPORTED_VERSIONS:
            raise StoreError(
                f"unsupported store format version {version!r} "
                f"(this build reads versions {SUPPORTED_VERSIONS})"
            )
        try:
            manifest = cls(
                version=int(version),
                schema=tuple(
                    (str(name), str(dtype)) for name, dtype in payload["schema"]
                ),
                rows=int(payload["rows"]),
                generation=int(payload.get("generation", 0)),
                rows_per_shard=int(
                    payload.get("rows_per_shard", DEFAULT_ROWS_PER_SHARD)
                ),
                provenance=payload.get("provenance"),
                shards=[ShardMeta.from_dict(s) for s in payload["shards"]],
                windows=(
                    tuple(
                        (int(target), int(rows))
                        for target, rows in payload["windows"]
                    )
                    if payload.get("windows") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreIntegrityError(
                f"store manifest is missing or mangling required fields: {exc}"
            ) from exc
        for shard in manifest.shards:
            for meta in shard.chunks.values():
                # An encoding no version knows is left to the shape check.
                introduced = codec.INTRODUCED.get(meta.encoding, 0)
                if manifest.version < introduced:
                    raise StoreIntegrityError(
                        f"version-{manifest.version} manifest names the "
                        f"{meta.encoding} encoding of version {introduced} "
                        f"for chunk {meta.file}"
                    )
        return manifest

    # -- disk ------------------------------------------------------------------

    def save(self, store_dir: Path, fs=None) -> None:
        """Durably write the manifest — the store's commit point.

        Always fsyncs (file and parent directory): a store whose chunks
        survived a power cut but whose manifest rename did not would
        read as "not a store", silently discarding a committed write.
        """
        atomic_write_bytes(
            Path(store_dir) / MANIFEST_NAME,
            self.to_json().encode("utf-8"),
            fs=fs,
            point="manifest",
            fsync=True,
        )

    @classmethod
    def load(cls, store_dir: Path) -> "Manifest":
        """The committed manifest of ``store_dir``.

        The file is read on every call; an unchanged file is parsed once
        (:func:`_parsed`), so every reader of the same bytes shares one
        manifest, which nothing may mutate.
        """
        path = Path(store_dir) / MANIFEST_NAME
        if not path.is_file():
            raise StoreError(f"{store_dir} is not a store (no {MANIFEST_NAME})")
        return _parsed(path.read_bytes())


@functools.lru_cache(maxsize=4)
def _parsed(data: bytes) -> Manifest:
    """:meth:`Manifest.from_json` of a manifest file's bytes, memoized on
    those bytes.  Parsing a 62-shard manifest takes ~5-8 ms and builds
    ~9,000 objects, more than a pruned query spends scanning, and in a
    process with a large heap those allocations now and then set off a
    ~20 ms full garbage collection.  The key is the file's content, so a
    manifest that changed never matches an older parse.
    """
    return Manifest.from_json(data.decode("utf-8"))


def is_store_dir(path: Path) -> bool:
    """True when ``path`` holds a committed (manifest-bearing) store."""
    return (Path(path) / MANIFEST_NAME).is_file()

"""Out-of-core scans over committed stores: predicate pushdown,
zone-map chunk skipping, streaming aggregation, and cached partials.

A :class:`Scan` is a lazy, immutable description of a pass over one
store: which columns to produce and which row predicates to apply.
Execution (:meth:`Scan.chunks`) walks the manifest shard by shard,
first testing every predicate against the chunk's :class:`ZoneMap`
(min/max/null-count recorded at write time) — a shard whose zones prove
no row can match is *skipped without touching disk* — then memmaps only
the surviving chunks and applies the residual mask exactly.  Pruning is
purely an optimization: a pruned scan yields the same rows as a full
scan, row for row (property-tested in ``tests/store/test_scan.py``).

The streaming aggregate methods (:meth:`Scan.summarize`,
:meth:`Scan.ecdf`, :meth:`Scan.group_by`, :meth:`Scan.quantile`) fold
:mod:`repro.frame.streaming` reducers over the chunk stream, so peak
memory is one shard's surviving columns regardless of store size.
Per-shard reducer states are content-addressed in an
:class:`AggregateCache`: the cache key hashes the chunk checksums the
partial depends on, so appending new windows to a campaign re-derives
only the new shards' partials while every committed shard hits cache —
the manifest's checksums double as incremental-recompute fingerprints.

NaN semantics follow numpy: a NaN row satisfies no comparison except
``!=``, which it always satisfies — so an all-NaN chunk *can* match a
``!=`` predicate and is never pruned under one.

``backfill_zone_maps`` upgrades a version-1 store in place: it reads
each chunk once (verifying its checksum on the way), computes the zone
maps the writer would have, and commits them in a single atomic,
durable manifest write — a crash mid-backfill leaves the old manifest
or the new one, never a torn or half-zoned store.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StoreError, StoreIntegrityError
from repro.frame.stats import ECDF, Summary
from repro.frame.streaming import (
    DEFAULT_COMPRESSION,
    DIGEST_REVISION,
    StreamingECDF,
    StreamingGroupBy,
    StreamingSummary,
)
from repro.obs import ensure_obs
from repro.store.format import (
    FORMAT_VERSION,
    ChunkMeta,
    Manifest,
    ShardMeta,
    ZoneMap,
    atomic_write_bytes,
    sha256_hex,
)

#: Predicate operator aliases -> canonical names.
_OPS = {
    "==": "eq", "eq": "eq",
    "!=": "ne", "ne": "ne",
    "<": "lt", "lt": "lt",
    "<=": "le", "le": "le",
    ">": "gt", "gt": "gt",
    ">=": "ge", "ge": "ge",
}

#: Final-pass materialization ceiling for the exact quantile fallback:
#: once the candidate value range holds at most this many rows, they are
#: collected and sorted exactly.
_EXACT_QUANTILE_MATERIALIZE = 1 << 20


@dataclass(frozen=True)
class Predicate:
    """One pushed-down row filter: ``column <op> value``."""

    column: str
    op: str
    value: float

    def __post_init__(self) -> None:
        canonical = _OPS.get(self.op)
        if canonical is None:
            raise StoreError(
                f"unknown predicate op {self.op!r}; known: "
                f"{sorted(set(_OPS))}"
            )
        object.__setattr__(self, "op", canonical)

    def mask(self, array: np.ndarray) -> np.ndarray:
        """Exact boolean mask of matching rows."""
        value = self.value
        if self.op == "eq":
            return array == value
        if self.op == "ne":
            return array != value
        if self.op == "lt":
            return array < value
        if self.op == "le":
            return array <= value
        if self.op == "gt":
            return array > value
        return array >= value

    def admits(self, zone: Optional[ZoneMap]) -> bool:
        """Could *any* row of a chunk with this zone match?

        Conservative: ``True`` on any doubt (including a missing zone —
        version-1 manifests prune nothing).  The asymmetric cases are
        NaN's: a NaN row fails every comparison except ``!=``, which it
        always passes, so all-NaN chunks admit ``ne`` and nothing else,
        and a chunk with any nulls can never be pruned under ``ne``.
        """
        if zone is None:
            return True
        value = self.value
        if isinstance(value, float) and math.isnan(value):
            # x <op> NaN is False for every op except !=, which is True
            # for every x.  So a NaN-valued != matches all rows.
            return self.op == "ne"
        if zone.minimum is None:
            # Empty or all-NaN chunk: only != can match (via NaN rows).
            return self.op == "ne" and zone.nulls > 0
        lo, hi = zone.minimum, zone.maximum
        if self.op == "eq":
            return lo <= value <= hi
        if self.op == "ne":
            # Prunable only when every row provably equals the value.
            return not (lo == value == hi and zone.nulls == 0)
        if self.op == "lt":
            return lo < value
        if self.op == "le":
            return lo <= value
        if self.op == "gt":
            return hi > value
        return hi >= value

    def describe(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


class AggregateCache:
    """Content-addressed per-shard aggregate partials.

    A flat directory of ``<sha256>.json`` payloads.  Keys hash the chunk
    checksums a partial was computed from plus the full aggregate spec
    and the digest compaction revision, so a stale hit is impossible:
    change a byte of data, a predicate, the reducer parameters or the
    reducer's algorithm and the key changes.  Writes are atomic but
    not durable — the cache is disposable derived state, rebuilt on miss.
    """

    def __init__(self, root):
        self.root = Path(root)

    @staticmethod
    def key(payload: Mapping[str, object]) -> str:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def get(self, key: str) -> Optional[Dict[str, object]]:
        path = self.root / f"{key}.json"
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, payload: Mapping[str, object]) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                self.root / f"{key}.json",
                (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
                point="aggcache",
            )
        except OSError:
            pass  # a cold cache is always correct

    def __len__(self) -> int:
        try:
            return sum(1 for p in self.root.iterdir() if p.suffix == ".json")
        except OSError:
            return 0


class Scan:
    """A lazy, predicate-pushed pass over one committed store."""

    def __init__(
        self,
        reader,
        columns: Optional[Sequence[str]] = None,
        predicates: Tuple[Predicate, ...] = (),
        obs=None,
        cache: Optional[AggregateCache] = None,
    ):
        self.reader = reader
        manifest = reader.manifest
        if columns is None:
            self.columns = tuple(manifest.columns)
        else:
            for name in columns:
                if name not in manifest.columns:
                    raise StoreError(f"no column {name!r} in store schema")
            self.columns = tuple(columns)
        for predicate in predicates:
            if predicate.column not in manifest.columns:
                raise StoreError(
                    f"predicate on unknown column {predicate.column!r}"
                )
        self.predicates = tuple(predicates)
        self.obs = ensure_obs(obs if obs is not None else reader.obs)
        self.cache = cache

    # -- builders --------------------------------------------------------------

    def filter(self, column: str, op: str, value) -> "Scan":
        """A new scan with ``column <op> value`` pushed down."""
        predicate = Predicate(column=column, op=op, value=value)
        if predicate.column not in self.reader.manifest.columns:
            raise StoreError(f"predicate on unknown column {column!r}")
        return Scan(
            self.reader,
            columns=self.columns,
            predicates=self.predicates + (predicate,),
            obs=self.obs,
            cache=self.cache,
        )

    def select(self, *columns: str) -> "Scan":
        """A new scan producing only ``columns``."""
        return Scan(
            self.reader,
            columns=columns,
            predicates=self.predicates,
            obs=self.obs,
            cache=self.cache,
        )

    # -- execution -------------------------------------------------------------

    def _needed(self) -> Tuple[str, ...]:
        needed = list(self.columns)
        for predicate in self.predicates:
            if predicate.column not in needed:
                needed.append(predicate.column)
        return tuple(needed)

    def _admitted(self, shard) -> bool:
        for predicate in self.predicates:
            zone = shard.chunks[predicate.column].zone
            if not predicate.admits(zone):
                return False
        return True

    def shards(self) -> Iterator[Tuple[int, object]]:
        """``(index, shard)`` pairs surviving zone-map pruning."""
        needed = self._needed()
        for index, shard in enumerate(self.reader.manifest.shards):
            if self._admitted(shard):
                yield index, shard
            else:
                self.obs.inc("scan_chunks_skipped_total", len(needed))
                self.obs.inc("scan_rows_pruned_total", shard.rows)

    def chunks(self) -> Iterator[Dict[str, np.ndarray]]:
        """Stream the selected columns of matching rows, one shard at a
        time.  Shards pruned by zone maps are never read; surviving
        shards are memmapped and the residual predicate mask applied
        exactly, so the concatenation of all chunks equals the full
        (pruning-free) scan row for row."""
        needed = self._needed()
        for _, shard in self.shards():
            views = {
                name: self.reader._chunk_view(shard, name) for name in needed
            }
            self.obs.inc("scan_chunks_scanned_total", len(needed))
            self.obs.inc("scan_rows_scanned_total", shard.rows)
            if not self.predicates:
                yield {name: views[name] for name in self.columns}
                self.obs.inc("scan_rows_selected_total", shard.rows)
                continue
            mask = self.predicates[0].mask(views[self.predicates[0].column])
            for predicate in self.predicates[1:]:
                mask &= predicate.mask(views[predicate.column])
            selected = int(np.count_nonzero(mask))
            self.obs.inc("scan_rows_selected_total", selected)
            if selected == 0:
                continue
            if selected == len(mask):
                yield {name: views[name] for name in self.columns}
            else:
                yield {
                    name: np.asarray(views[name][mask])
                    for name in self.columns
                }

    def count(self) -> int:
        """Matching rows.  Free for an unfiltered scan (manifest math)."""
        if not self.predicates:
            return self.reader.manifest.rows
        total = 0
        scan = self.select(self.predicates[0].column)
        for chunk in scan.chunks():
            total += len(chunk[self.predicates[0].column])
        return total

    # -- cached per-shard partials ---------------------------------------------

    def _shard_fingerprint(self, shard, columns: Sequence[str]) -> Dict[str, str]:
        return {name: shard.chunks[name].sha256 for name in sorted(columns)}

    def _partial_key(self, shard, column: str, spec: Mapping[str, object]) -> str:
        involved = {column, *(p.column for p in self.predicates)}
        payload = {
            "format": FORMAT_VERSION,
            "digest_revision": DIGEST_REVISION,
            "column": column,
            "dtype": self.reader.manifest.dtype_of(column),
            "predicates": [p.describe() for p in self.predicates],
            "chunks": self._shard_fingerprint(shard, involved),
            "spec": dict(spec),
        }
        return AggregateCache.key(payload)

    def _column_chunks(self, column: str) -> Iterator[Tuple[object, np.ndarray]]:
        """(shard, matching values) pairs for one column."""
        scan = self.select(column)
        needed = scan._needed()
        for _, shard in scan.shards():
            views = {
                name: self.reader._chunk_view(shard, name) for name in needed
            }
            self.obs.inc("scan_chunks_scanned_total", len(needed))
            self.obs.inc("scan_rows_scanned_total", shard.rows)
            values = views[column]
            if self.predicates:
                mask = self.predicates[0].mask(
                    views[self.predicates[0].column]
                )
                for predicate in self.predicates[1:]:
                    mask &= predicate.mask(views[predicate.column])
                values = values[mask]
            self.obs.inc("scan_rows_selected_total", len(values))
            yield shard, np.asarray(values, dtype=np.float64)

    def _fold_cached(self, column, spec, make, from_state):
        """Fold per-shard partials of one reducer, through the cache."""
        merged = None
        for shard, values in self._column_chunks(column):
            key = state = None
            if self.cache is not None:
                key = self._partial_key(shard, column, spec)
                state = self.cache.get(key)
            if state is not None:
                partial = from_state(state)
                self.obs.inc("scan_aggcache_hits_total")
            else:
                partial = make()
                partial.update(values)
                if self.cache is not None:
                    self.cache.put(key, partial.state())
                    self.obs.inc("scan_aggcache_misses_total")
            merged = partial if merged is None else merged.merge(partial)
        return merged

    # -- streaming aggregates --------------------------------------------------

    def summarize(
        self, column: str, compression: int = DEFAULT_COMPRESSION
    ) -> Summary:
        """Streaming :class:`~repro.frame.stats.Summary` of one column.

        count/min/max exact; mean/std float-associative; quantile fields
        rank-bounded by the digest (see :mod:`repro.frame.streaming`).
        """
        merged = self._fold_cached(
            column,
            {"kind": "summary", "compression": compression},
            lambda: StreamingSummary(compression=compression),
            StreamingSummary.from_state,
        )
        if merged is None:
            merged = StreamingSummary(compression=compression)
        return merged.result()

    def streaming_ecdf(
        self,
        column: str,
        edges: Optional[Sequence[float]] = None,
        bins: int = 512,
    ) -> StreamingECDF:
        """Fixed-grid ECDF of one column, grid defaulted from zone maps.

        With no explicit ``edges`` the grid spans the column's global
        zone-map min/max — free metadata when the store has zones, one
        extra streaming pass when it does not.
        """
        if edges is None:
            lo, hi = self._value_range(column)
            grid = StreamingECDF.from_range(lo, hi, bins=bins)
            edges_list = [float(e) for e in grid.edges]
        else:
            grid = StreamingECDF(edges)
            edges_list = [float(e) for e in grid.edges]
        merged = self._fold_cached(
            column,
            {"kind": "ecdf", "edges": edges_list},
            lambda: StreamingECDF(np.asarray(edges_list)),
            StreamingECDF.from_state,
        )
        return merged if merged is not None else grid

    def ecdf(
        self,
        column: str,
        edges: Optional[Sequence[float]] = None,
        bins: int = 512,
    ) -> ECDF:
        """Grid-evaluated :class:`~repro.frame.stats.ECDF` of a column."""
        return self.streaming_ecdf(column, edges=edges, bins=bins).result()

    def _value_range(self, column: str) -> Tuple[float, float]:
        """Global [min, max] of matching rows: zones when whole-store
        bounds suffice, else one streaming pass."""
        manifest = self.reader.manifest
        if not self.predicates:
            lo, hi = math.inf, -math.inf
            zoned = True
            for shard in manifest.shards:
                zone = shard.chunks[column].zone
                if zone is None:
                    zoned = False
                    break
                if zone.minimum is not None:
                    lo = min(lo, zone.minimum)
                    hi = max(hi, zone.maximum)
            if zoned and lo <= hi:
                return float(lo), float(hi)
        summary = StreamingSummary()
        for _, values in self._column_chunks(column):
            finite = values[~np.isnan(values)]
            if len(finite):
                summary.update(finite)
        if summary.count == 0:
            return 0.0, 1.0
        return summary.minimum, summary.maximum

    def quantile(
        self,
        column: str,
        q: float,
        exact: bool = False,
        compression: int = DEFAULT_COMPRESSION,
    ) -> float:
        """The ``q``-quantile of one column.

        Default: t-digest estimate (rank error bounded by
        :func:`repro.frame.streaming.digest_rank_eps`).  ``exact=True``
        switches to the multi-pass fallback, which returns exactly
        ``ecdf(values).quantile(q)`` — the smallest sample value whose
        cumulative fraction reaches ``q`` — in bounded memory by
        iteratively narrowing the candidate value range with histogram
        passes and sorting only the final sliver.
        """
        if exact:
            return self._exact_quantile(column, q)
        merged = self._fold_cached(
            column,
            {"kind": "summary", "compression": compression},
            lambda: StreamingSummary(compression=compression),
            StreamingSummary.from_state,
        )
        if merged is None or merged.count == 0:
            raise StoreError(f"quantile over empty scan of {column!r}")
        return merged.quantile(q)

    def _exact_quantile(self, column: str, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise StoreError(f"quantile q must be in [0, 1], got {q}")
        # Pass 1: count rows, NaNs, and the finite value range.
        total = nans = 0
        lo, hi = math.inf, -math.inf
        for _, values in self._column_chunks(column):
            total += len(values)
            nan_mask = np.isnan(values)
            nans += int(nan_mask.sum())
            finite = values[~nan_mask]
            if len(finite):
                lo = min(lo, float(finite.min()))
                hi = max(hi, float(finite.max()))
        if total == 0:
            raise StoreError(f"quantile over empty scan of {column!r}")
        # Rank semantics of ecdf().quantile: p[i] = (i+1)/n over the
        # NaN-last sorted sample, smallest x with p >= q — i.e. the
        # smallest rank k with k/n >= q under the same IEEE division the
        # in-memory path performs.
        if q <= 0.0:
            rank = 1
        else:
            rank = min(total, max(1, int(math.ceil(q * total))))
            while rank > 1 and (rank - 1) / total >= q:
                rank -= 1
            while rank < total and rank / total < q:
                rank += 1
        finite_total = total - nans
        if rank > finite_total:
            return math.nan  # the rank lands in the NaN tail, as sort would
        if finite_total == 0:
            return math.nan
        if lo == hi:
            return lo
        # Iteratively narrow [lo, hi] until the candidate slice is small
        # enough to sort exactly.  `rank` stays the target's 1-based rank
        # among values >= lo.
        while True:
            in_range = self._count_range(column, lo, hi)
            if in_range <= _EXACT_QUANTILE_MATERIALIZE:
                break
            edges = np.linspace(lo, hi, 1024)
            counts = np.zeros(len(edges) + 1, dtype=np.int64)
            below = 0
            for _, values in self._column_chunks(column):
                values = values[~np.isnan(values)]
                below += int(np.count_nonzero(values < lo))
                window = values[(values >= lo) & (values <= hi)]
                slots = np.searchsorted(edges, window, side="left")
                np.add.at(counts, slots, 1)
            cumulative = np.cumsum(counts)
            slot = int(np.searchsorted(cumulative, rank, side="left"))
            # Slot j holds values in (edges[j-1], edges[j]], so the new
            # lower bound is *exclusive* of edges[j-1]: step one ulp up
            # so the inclusive [lo, hi] window matches the ranks already
            # subtracted.
            new_lo = (
                lo
                if slot == 0
                else float(np.nextafter(edges[slot - 1], math.inf))
            )
            new_hi = hi if slot >= len(edges) else float(edges[slot])
            if (new_lo, new_hi) == (lo, hi):
                break  # duplicates denser than float resolution
            if slot > 0:
                rank -= int(cumulative[slot - 1])
            lo, hi = new_lo, new_hi
        collected: List[np.ndarray] = []
        for _, values in self._column_chunks(column):
            values = values[~np.isnan(values)]
            collected.append(values[(values >= lo) & (values <= hi)])
        window = np.sort(np.concatenate(collected)) if collected else np.empty(0)
        if len(window) == 0:
            return lo
        return float(window[min(max(rank, 1), len(window)) - 1])

    def _count_range(self, column: str, lo: float, hi: float) -> int:
        count = 0
        for _, values in self._column_chunks(column):
            values = values[~np.isnan(values)]
            count += int(np.count_nonzero((values >= lo) & (values <= hi)))
        return count

    def group_by(
        self,
        keys: Sequence[str],
        spec: Mapping[str, Tuple[str, str]],
        max_groups: int = 100_000,
    ):
        """Spill-free streaming group-by over the scan (low-cardinality
        keys); result Frame matches ``frame.groupby.aggregate`` on the
        same rows."""
        engine = StreamingGroupBy(keys, spec, max_groups=max_groups)
        needed = set(keys) | {col for col, _ in spec.values()}
        scan = self.select(*sorted(needed))
        for chunk in scan.chunks():
            engine.update(chunk)
        return engine.result()


def scan_store(
    path,
    verify: str = "off",
    columns: Optional[Sequence[str]] = None,
    obs=None,
    cache: Optional[AggregateCache] = None,
) -> Scan:
    """Open ``path`` and return a :class:`Scan` over it.

    Verification defaults to ``off`` here — a scan's whole point is to
    avoid touching every byte; run ``repro store verify`` (or pass
    ``verify="full"``) when integrity is in question.
    """
    from repro.store.reader import StoreReader

    reader = StoreReader(path, verify=verify, obs=obs)
    return Scan(reader, columns=columns, obs=obs, cache=cache)


def backfill_zone_maps(
    path,
    refresh: bool = False,
    fs=None,
    obs=None,
) -> Tuple[Manifest, int]:
    """Compute missing zone maps and commit them to the manifest.

    Reads each un-zoned chunk once, verifying its checksum before
    trusting its bytes (a zone map of corrupt data would poison pruning
    forever).  ``refresh=True`` recomputes every zone, fixing any that
    drifted.  The new manifest lands in one durable atomic write — the
    same commit discipline as the writer — so a crash leaves either the
    old manifest or the new one, both valid.  Idempotent: a fully-zoned
    current-version store is returned unwritten.

    Returns ``(manifest, chunks_backfilled)``.
    """
    obs = ensure_obs(obs)
    path = Path(path)
    manifest = Manifest.load(path)
    updated = 0
    new_shards = []
    with obs.span("store.backfill_zones", path=str(path)):
        for shard in manifest.shards:
            chunks = dict(shard.chunks)
            changed = False
            for column, meta in shard.chunks.items():
                if meta.zone is not None and not refresh:
                    continue
                data = (path / meta.file).read_bytes()
                digest = sha256_hex(data)
                if digest != meta.sha256:
                    raise StoreIntegrityError(
                        f"refusing to backfill zone maps from corrupt chunk "
                        f"{meta.file}: manifest {meta.sha256[:12]}…, disk "
                        f"{digest[:12]}…"
                    )
                array = np.frombuffer(
                    data, dtype=np.dtype(manifest.dtype_of(column))
                )
                zone = ZoneMap.from_array(array)
                if zone != meta.zone:
                    chunks[column] = ChunkMeta(
                        file=meta.file,
                        bytes=meta.bytes,
                        sha256=meta.sha256,
                        zone=zone,
                    )
                    changed = True
                updated += 1
                obs.inc("store_zone_maps_backfilled_total")
            new_shards.append(
                ShardMeta(name=shard.name, rows=shard.rows, chunks=chunks)
                if changed
                else shard
            )
        rewritten = Manifest(
            schema=manifest.schema,
            rows=manifest.rows,
            generation=manifest.generation,
            rows_per_shard=manifest.rows_per_shard,
            provenance=manifest.provenance,
            shards=new_shards,
            windows=manifest.windows,
        )
        if rewritten.to_json() == manifest.to_json():
            return manifest, 0
        rewritten.save(path, fs=fs)
        obs.event("store.zones_backfilled", path=str(path), chunks=updated)
    return rewritten, updated

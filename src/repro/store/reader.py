"""Store reads: verification, lazy columns, dataset rebuild.

:class:`StoreReader` opens a committed store, verifies its chunks
against the manifest checksums (fully by default; ``sampled`` size-checks
everything and hashes a deterministic subset; ``off`` trusts the disk),
and serves columns read-only.  A raw chunk is an ``np.memmap`` view, so
a single-shard store's raw columns materialize without copying a byte:
pages fault in as the analysis touches them.  An encoded chunk is read
whole, checked against its checksum unless this reader already hashed
it, and decoded (:func:`repro.store.codec.decode`), so a truncated or
flipped chunk raises even with ``verify="off"``.  Multi-shard stores
copy their shard views into one array per column, lazily and memoized.

:meth:`StoreReader.dataset` rebuilds a fully functional frozen
:class:`~repro.core.dataset.CampaignDataset` (memoized derived vectors
and all) — either against caller-supplied probe/target tables or by
regenerating them from the provenance seed recorded at write time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.errors import StoreError, StoreIntegrityError
from repro.obs import ensure_obs
from repro.store import codec
from repro.store.format import Manifest, sha256_file, sha256_hex

VERIFY_MODES = ("full", "sampled", "off")

#: Ceiling on fully-hashed shards in ``sampled`` mode (first and last
#: shards always included; the rest strided deterministically).
_SAMPLED_SHARDS = 8


def _sampled_shard_indices(count: int) -> List[int]:
    """Deterministic shard subset for sampled verification."""
    if count <= _SAMPLED_SHARDS:
        return list(range(count))
    stride = max(1, count // _SAMPLED_SHARDS)
    chosen = set(range(0, count, stride))
    chosen.update((0, count - 1))
    return sorted(chosen)


class StoreReader:
    """Open, verify, and lazily materialize one store directory."""

    def __init__(self, path, verify: str = "full", obs=None):
        if verify not in VERIFY_MODES:
            raise StoreError(f"verify must be one of {VERIFY_MODES}: {verify!r}")
        self.path = Path(path)
        self.obs = ensure_obs(obs)
        self.manifest = Manifest.load(self.path)
        self._columns: Dict[str, np.ndarray] = {}
        #: Chunk files whose bytes this reader has hashed and found intact.
        self._verified: Set[str] = set()
        with self.obs.span(
            "store.open",
            path=str(self.path),
            rows=self.manifest.rows,
            shards=len(self.manifest.shards),
            verify=verify,
        ):
            self._check_shape()
            if verify != "off":
                self.verify(mode=verify)

    # -- integrity -------------------------------------------------------------

    def _check_shape(self) -> None:
        """Manifest self-consistency (:attr:`Manifest.shape_fault`)."""
        fault = self.manifest.shape_fault
        if fault is not None:
            raise StoreIntegrityError(fault)

    def verify(self, mode: str = "full") -> int:
        """Check chunk files against the manifest; returns chunks hashed.

        Every chunk's existence and byte length is checked in any mode —
        truncation never passes.  ``full`` re-hashes every chunk;
        ``sampled`` re-hashes a deterministic subset of shards.
        """
        if mode not in ("full", "sampled"):
            raise StoreError(f"verify mode must be 'full' or 'sampled': {mode!r}")
        manifest = self.manifest
        for shard in manifest.shards:
            for meta in shard.chunks.values():
                chunk = self.path / meta.file
                if not chunk.is_file():
                    raise StoreIntegrityError(f"chunk {meta.file} is missing")
                size = chunk.stat().st_size
                if size != meta.bytes:
                    raise StoreIntegrityError(
                        f"chunk {meta.file} is {size} bytes on disk but the "
                        f"manifest declares {meta.bytes} (truncated or padded)"
                    )
        hashed = 0
        if mode == "full":
            selected: Iterable[int] = range(len(manifest.shards))
        else:
            selected = _sampled_shard_indices(len(manifest.shards))
        for index in selected:
            shard = manifest.shards[index]
            for meta in shard.chunks.values():
                digest = sha256_file(self.path / meta.file)
                if digest != meta.sha256:
                    raise StoreIntegrityError(
                        f"chunk {meta.file} fails its checksum: manifest "
                        f"{meta.sha256[:12]}…, disk {digest[:12]}…"
                    )
                hashed += 1
                self._verified.add(meta.file)
                self.obs.inc("store_chunks_verified_total")
                self.obs.inc("store_bytes_verified_total", meta.bytes)
        return hashed

    # -- columns ---------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.manifest.rows

    @property
    def provenance(self) -> Optional[Dict[str, object]]:
        return self.manifest.provenance

    def __len__(self) -> int:
        return self.manifest.rows

    def _chunk_view(self, shard, column: str) -> np.ndarray:
        """One chunk's values, read-only: a memmap over a raw chunk (no
        bytes read until touched), a decoded array otherwise."""
        meta = shard.chunks[column]
        dtype = np.dtype(self.manifest.dtype_of(column))
        if shard.rows == 0:
            return np.empty(0, dtype=dtype)
        if meta.encoding == codec.RAW:
            view = np.memmap(
                self.path / meta.file, dtype=dtype, mode="r", shape=(shard.rows,)
            )
            self.obs.inc("store_bytes_mapped_total", meta.bytes)
            return view
        try:
            data = (self.path / meta.file).read_bytes()
        except OSError as exc:
            raise StoreIntegrityError(
                f"chunk {meta.file} is unreadable: {exc.strerror or exc}"
            ) from exc
        if meta.file not in self._verified:
            digest = sha256_hex(data)
            if digest != meta.sha256:
                raise StoreIntegrityError(
                    f"chunk {meta.file} fails its checksum: manifest "
                    f"{meta.sha256[:12]}…, disk {digest[:12]}…"
                )
            self._verified.add(meta.file)
        values = codec.decode(data, meta.encoding, dtype, shard.rows)
        self.obs.inc("store_bytes_decoded_total", meta.bytes)
        return values

    def column(self, name: str) -> np.ndarray:
        """One full column, memoized; zero-copy for single-shard stores."""
        cached = self._columns.get(name)
        if cached is not None:
            return cached
        if name not in self.manifest.columns:
            raise StoreError(f"no column {name!r} in store schema")
        shards = self.manifest.shards
        if not shards:
            loaded = np.empty(0, dtype=np.dtype(self.manifest.dtype_of(name)))
        elif len(shards) == 1:
            loaded = self._chunk_view(shards[0], name)
        else:
            # One allocation; each shard's chunk is decoded and copied
            # into its slice, so no two whole copies coexist.
            loaded = np.empty(self.manifest.rows, dtype=self.manifest.dtype_of(name))
            stop = 0
            for shard in shards:
                start, stop = stop, stop + shard.rows
                loaded[start:stop] = self._chunk_view(shard, name)
            loaded.setflags(write=False)
        self._columns[name] = loaded
        return loaded

    def columns(self) -> Dict[str, np.ndarray]:
        return {name: self.column(name) for name in self.manifest.columns}

    def scan(self, columns=None, cache=None):
        """A :class:`~repro.store.scan.Scan` over this store.

        The scan streams chunk by chunk through the *unmemoized* view
        path — it never populates this reader's whole-column cache, so
        scanning a huge store through a reader keeps the reader cheap.
        """
        from repro.store.scan import Scan

        return Scan(self, columns=columns, obs=self.obs, cache=cache)

    # -- dataset rebuild -------------------------------------------------------

    def dataset(self, probes=None, targets=None, obs=None):
        """Rebuild the frozen :class:`~repro.core.dataset.CampaignDataset`.

        Probe/target metadata tables are taken from the caller when
        given; otherwise they are regenerated from the provenance seed —
        the platform is deterministic, so the rebuilt tables are exactly
        the ones the store was collected against.
        """
        from repro.core.dataset import CampaignDataset

        if probes is None or targets is None:
            provenance = self.manifest.provenance or {}
            if "seed" not in provenance:
                raise StoreError(
                    "store carries no provenance seed; pass probes= and "
                    "targets= explicitly"
                )
            from repro.atlas.platform import AtlasPlatform

            platform = AtlasPlatform(seed=int(provenance["seed"]))
            probes = platform.probes if probes is None else probes
            targets = platform.fleet if targets is None else targets
        return CampaignDataset.from_columns(
            probes,
            targets,
            self.columns(),
            obs=obs if obs is not None else self.obs,
        )


def open_dataset(
    path,
    probes=None,
    targets=None,
    verify: str = "full",
    obs=None,
):
    """One-call load: open + verify a store, rebuild its dataset."""
    reader = StoreReader(path, verify=verify, obs=obs)
    return reader.dataset(probes=probes, targets=targets)

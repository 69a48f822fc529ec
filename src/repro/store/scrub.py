"""Store scrubbing and surgical repair.

``scrub`` is the read side: walk a store's manifest and every chunk it
references, classify *all* damage (a verifying reader stops at the first
problem; a scrub keeps going and returns the complete casualty list),
and notice debris a crash left behind — orphaned temp files, chunks from
a swept generation.

``repair`` is the write side, and the reason the store records
provenance and a window index at all.  The manifest's provenance names
the exact campaign whose collection produced the store, and its
``windows`` run-length encoding maps any damaged shard's row range back
to whole measurement windows.  Because a window fetch is a pure function
of ``(seed, fault profile, measurement, window)``, repair re-synthesizes
*only the affected windows* through the normal collection path, rebuilds
the damaged chunks, and proves the result byte-identical by hashing
against the manifest's recorded SHA-256s — no full re-collection, no
trust in the damaged bytes.  Damaged originals are moved to a
``quarantine/`` subdirectory, never destroyed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StoreError, StoreIntegrityError, StoreRepairError
from repro.obs import ensure_obs
from repro.store.codec import RAW, decode, encode_as
from repro.store.format import (
    MANIFEST_NAME,
    Manifest,
    ZoneMap,
    atomic_write_bytes,
    sha256_hex,
)
from repro.store.fsim import ensure_fs

#: Damaged originals are moved here (inside the store), never deleted.
QUARANTINE_DIR = "quarantine"

#: Damage kinds that break the store's integrity contract.  The
#: remaining kinds (orphan debris) are cosmetic: the store still reads.
#: ``zone_map_mismatch`` is integrity damage even though the chunk bytes
#: are fine: a wrong zone map silently prunes rows out of every scan.
#: ``undecodable_chunk`` is a chunk whose bytes hash to the manifest's
#: checksum but do not decode as the manifest's encoding and row count:
#: the manifest itself is wrong, so no chunk rebuild can repair it.
INTEGRITY_KINDS = (
    "manifest_missing",
    "manifest_unreadable",
    "missing_chunk",
    "truncated_chunk",
    "checksum_mismatch",
    "undecodable_chunk",
    "zone_map_mismatch",
)


@dataclass(frozen=True)
class Damage:
    """One classified problem found by a scrub."""

    kind: str
    file: str
    shard: Optional[int] = None
    column: Optional[str] = None
    detail: str = ""
    #: Whether ``repair`` can fix this kind surgically (chunk-level
    #: damage: yes, given provenance + window index; manifest damage: no).
    repairable: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "file": self.file,
            "shard": self.shard,
            "column": self.column,
            "detail": self.detail,
            "repairable": self.repairable,
        }


@dataclass
class ScrubReport:
    """Everything one scrub pass found."""

    path: str
    rows: int = 0
    shards: int = 0
    chunks_checked: int = 0
    damage: List[Damage] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No damage of any kind, debris included."""
        return not self.damage

    @property
    def intact(self) -> bool:
        """No *integrity* damage (orphan debris allowed)."""
        return not any(d.kind in INTEGRITY_KINDS for d in self.damage)

    @property
    def damaged_shards(self) -> Tuple[int, ...]:
        return tuple(
            sorted({d.shard for d in self.damage if d.shard is not None})
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "rows": self.rows,
            "shards": self.shards,
            "chunks_checked": self.chunks_checked,
            "ok": self.ok,
            "intact": self.intact,
            "damage": [d.as_dict() for d in self.damage],
        }


def scrub(path, obs=None) -> ScrubReport:
    """Walk one store and classify every problem without stopping.

    Unlike :meth:`~repro.store.reader.StoreReader.verify` this never
    raises on damage — the point is the complete list.
    """
    obs = ensure_obs(obs)
    path = Path(path)
    report = ScrubReport(path=str(path))
    with obs.span("store.scrub", path=str(path)):
        manifest = _load_manifest(path, report)
        if manifest is None:
            _account(report, obs)
            return report
        report.rows = manifest.rows
        report.shards = len(manifest.shards)
        referenced = {MANIFEST_NAME}
        for shard_index, shard in enumerate(manifest.shards):
            for column, meta in shard.chunks.items():
                referenced.add(meta.file)
                report.chunks_checked += 1
                chunk = path / meta.file
                if not chunk.is_file():
                    report.damage.append(
                        Damage(
                            kind="missing_chunk",
                            file=meta.file,
                            shard=shard_index,
                            column=column,
                            detail=f"expected {meta.bytes} bytes",
                            repairable=True,
                        )
                    )
                    continue
                size = chunk.stat().st_size
                if size != meta.bytes:
                    report.damage.append(
                        Damage(
                            kind="truncated_chunk",
                            file=meta.file,
                            shard=shard_index,
                            column=column,
                            detail=f"{size} bytes on disk, manifest says "
                            f"{meta.bytes}",
                            repairable=True,
                        )
                    )
                    continue
                # One read serves every check: checksum, then (bytes now
                # proven authentic) decoding and the zone map recomputation.
                data = chunk.read_bytes()
                digest = sha256_hex(data)
                if digest != meta.sha256:
                    report.damage.append(
                        Damage(
                            kind="checksum_mismatch",
                            file=meta.file,
                            shard=shard_index,
                            column=column,
                            detail=f"sha256 {digest[:12]}… != manifest "
                            f"{meta.sha256[:12]}…",
                            repairable=True,
                        )
                    )
                    continue
                if meta.zone is None and meta.encoding == RAW:
                    continue
                try:
                    array = decode(
                        data, meta.encoding, manifest.dtype_of(column), shard.rows
                    )
                except StoreIntegrityError as exc:
                    report.damage.append(
                        Damage(
                            kind="undecodable_chunk",
                            file=meta.file,
                            shard=shard_index,
                            column=column,
                            detail=str(exc),
                        )
                    )
                    continue
                if meta.zone is not None:
                    expected_zone = ZoneMap.from_array(array)
                    if expected_zone != meta.zone:
                        report.damage.append(
                            Damage(
                                kind="zone_map_mismatch",
                                file=meta.file,
                                shard=shard_index,
                                column=column,
                                detail=f"manifest zone {meta.zone.as_dict()} "
                                f"but chunk bytes give "
                                f"{expected_zone.as_dict()}",
                                repairable=True,
                            )
                        )
        for entry in sorted(path.iterdir()):
            if entry.is_dir() or entry.name in referenced:
                continue
            kind = "orphan_tmp" if entry.name.endswith(".tmp") else "orphan_chunk"
            report.damage.append(
                Damage(
                    kind=kind,
                    file=entry.name,
                    detail=f"{entry.stat().st_size} bytes unreferenced",
                )
            )
        _account(report, obs)
    return report


def _load_manifest(path: Path, report: ScrubReport) -> Optional[Manifest]:
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        report.damage.append(
            Damage(
                kind="manifest_missing",
                file=MANIFEST_NAME,
                detail=f"{path} has no committed manifest",
            )
        )
        return None
    try:
        return Manifest.from_json(manifest_path.read_text(encoding="utf-8"))
    except StoreError as exc:
        report.damage.append(
            Damage(
                kind="manifest_unreadable",
                file=MANIFEST_NAME,
                detail=str(exc),
            )
        )
        return None


def _account(report: ScrubReport, obs) -> None:
    for damage in report.damage:
        obs.inc("store_scrub_damage_total", kind=damage.kind)


def scrub_catalog(root, obs=None) -> Tuple[List[ScrubReport], List[Damage]]:
    """Scrub every entry of a catalog directory.

    Returns per-store reports plus catalog-level damage: uncommitted
    entries (an interrupted write's debris) and dangling entries whose
    directory name is not a fingerprint of their provenance
    (:func:`~repro.store.catalog.names_entry`).
    """
    from repro.store.catalog import (
        _looks_like_fingerprint,
        campaign_fingerprint,
        names_entry,
    )

    root = Path(root)
    reports: List[ScrubReport] = []
    catalog_damage: List[Damage] = []
    if not root.is_dir():
        return reports, catalog_damage
    for child in sorted(root.iterdir()):
        if child.name.startswith("."):
            continue  # catalog-private state (e.g. .aggregates cache)
        if not child.is_dir():
            if child.name.endswith(".tmp"):
                catalog_damage.append(
                    Damage(kind="orphan_tmp", file=child.name)
                )
            continue
        if not (child / MANIFEST_NAME).is_file():
            catalog_damage.append(
                Damage(
                    kind="uncommitted_entry",
                    file=child.name,
                    detail="no manifest: interrupted write (gc sweeps it)",
                )
            )
            continue
        report = scrub(child, obs=obs)
        reports.append(report)
        if _looks_like_fingerprint(child.name):
            try:
                manifest = Manifest.load(child)
            except StoreError:
                continue  # already reported by the scrub
            if not names_entry(child.name, manifest.provenance):
                expected = campaign_fingerprint(manifest.provenance)
                catalog_damage.append(
                    Damage(
                        kind="dangling_entry",
                        file=child.name,
                        detail=f"provenance hashes to {expected[:12]}…",
                    )
                )
    return reports, catalog_damage


@dataclass
class RepairReport:
    """What a repair pass did."""

    path: str
    quarantined: List[str] = field(default_factory=list)
    repaired_chunks: List[str] = field(default_factory=list)
    resynthesized_windows: int = 0
    zone_maps_rebuilt: int = 0
    swept: List[str] = field(default_factory=list)
    verified: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "quarantined": list(self.quarantined),
            "repaired_chunks": list(self.repaired_chunks),
            "resynthesized_windows": self.resynthesized_windows,
            "zone_maps_rebuilt": self.zone_maps_rebuilt,
            "swept": list(self.swept),
            "verified": self.verified,
        }


def repair(path, obs=None, fs=None) -> RepairReport:
    """Surgically restore a damaged store to its manifest's exact bytes.

    Scrubs, quarantines every damaged chunk, re-synthesizes only the
    measurement windows overlapping the damaged shards through the
    campaign the manifest's provenance describes, verifies each rebuilt
    chunk against the manifest's SHA-256, and finishes with a full
    reader verification.  Raises :class:`~repro.errors.StoreRepairError`
    when the store cannot be repaired (manifest damage, no provenance or
    window index, or a rebuilt chunk that does not hash back — which
    means the manifest and provenance disagree).
    """
    obs = ensure_obs(obs)
    fs = ensure_fs(fs)
    path = Path(path)
    report = scrub(path, obs=obs)
    result = RepairReport(path=str(path))
    with obs.span("store.repair", path=str(path)):
        if not report.intact:
            manifest_damage = [
                d
                for d in report.damage
                if d.kind in INTEGRITY_KINDS and not d.repairable
            ]
            if manifest_damage:
                raise StoreRepairError(
                    f"cannot repair {path}: {manifest_damage[0].detail} — the "
                    f"manifest is the source of truth for repair; re-collect "
                    f"the campaign instead"
                )
            manifest = Manifest.load(path)
            chunk_damage = [
                d
                for d in report.damage
                if d.repairable and d.kind != "zone_map_mismatch"
            ]
            if chunk_damage:
                _repair_chunks(path, manifest, chunk_damage, result, obs, fs)
            if any(d.kind == "zone_map_mismatch" for d in report.damage):
                # The chunk bytes are authentic (their checksums held);
                # only the manifest's pruning metadata lies.  Recompute
                # every zone from the verified bytes and recommit.
                from repro.store.scan import backfill_zone_maps

                _, rebuilt = backfill_zone_maps(
                    path, refresh=True, fs=fs, obs=obs
                )
                result.zone_maps_rebuilt = rebuilt
        # Debris sweep (also runs on intact-but-littered stores).
        for damage in report.damage:
            if damage.kind == "orphan_tmp":
                fs.unlink(path / damage.file, point=f"scrub-sweep:{damage.file}")
                result.swept.append(damage.file)
        # The final word: a repaired store must read clean end to end.
        from repro.store.reader import StoreReader

        try:
            StoreReader(path, verify="full", obs=obs)
        except StoreError as exc:
            raise StoreRepairError(
                f"repair of {path} did not converge: {exc}"
            ) from exc
        result.verified = True
        obs.event(
            "store.repaired",
            path=str(path),
            chunks=len(result.repaired_chunks),
            windows=result.resynthesized_windows,
        )
    return result


def _repair_chunks(
    path: Path,
    manifest: Manifest,
    damaged: Sequence[Damage],
    result: RepairReport,
    obs,
    fs,
) -> None:
    """Rebuild every damaged chunk from re-synthesized windows."""
    if not manifest.provenance:
        raise StoreRepairError(
            f"cannot repair {path}: store carries no provenance record"
        )
    if manifest.windows is None:
        raise StoreRepairError(
            f"cannot repair {path}: store predates the window index "
            f"(re-write it with this build to enable surgical repair)"
        )
    shard_ranges = _shard_ranges(manifest)
    window_ranges = _window_ranges(manifest)
    # Which windows overlap any damaged shard's rows.
    needed: List[int] = []
    for shard_index in sorted({d.shard for d in damaged}):
        lo, hi = shard_ranges[shard_index]
        for position, (_, w_lo, w_hi) in enumerate(window_ranges):
            if w_lo < hi and w_hi > lo and position not in needed:
                needed.append(position)
    columns_by_window = _resynthesize(path, manifest, window_ranges, needed, obs)
    result.resynthesized_windows = len(needed)
    quarantine = path / QUARANTINE_DIR
    for damage in damaged:
        meta = manifest.shards[damage.shard].chunks[damage.column]
        lo, hi = shard_ranges[damage.shard]
        parts: List[np.ndarray] = []
        for position in needed:
            _, w_lo, w_hi = window_ranges[position]
            cut_lo, cut_hi = max(lo, w_lo), min(hi, w_hi)
            if cut_lo >= cut_hi:
                continue
            window_column = columns_by_window[position][damage.column]
            parts.append(window_column[cut_lo - w_lo : cut_hi - w_lo])
        values = (
            np.concatenate(parts)
            if parts
            else np.empty(0, dtype=manifest.dtype_of(damage.column))
        )
        # Encoding is a pure function of the values, so the manifest's
        # encoding of the re-synthesized rows reproduces its bytes.
        data = encode_as(values, meta.encoding) or b""
        if len(data) != meta.bytes or sha256_hex(data) != meta.sha256:
            raise StoreRepairError(
                f"re-synthesized chunk {meta.file} does not match the "
                f"manifest ({len(data)} bytes, sha256 "
                f"{sha256_hex(data)[:12]}… vs recorded {meta.sha256[:12]}…) — "
                f"the provenance does not reproduce this store"
            )
        original = path / meta.file
        if original.is_file():
            quarantine.mkdir(exist_ok=True)
            fs.replace(
                original,
                quarantine / meta.file,
                point=f"quarantine:{meta.file}",
            )
            result.quarantined.append(meta.file)
        atomic_write_bytes(
            original, data, fs=fs, point=f"repair:{meta.file}", fsync=True
        )
        result.repaired_chunks.append(meta.file)
        obs.inc("store_repair_chunks_total")


def _shard_ranges(manifest: Manifest) -> List[Tuple[int, int]]:
    """Absolute row range ``[lo, hi)`` of each shard, in shard order."""
    ranges: List[Tuple[int, int]] = []
    cursor = 0
    for shard in manifest.shards:
        ranges.append((cursor, cursor + shard.rows))
        cursor += shard.rows
    return ranges


def _window_ranges(manifest: Manifest) -> List[Tuple[int, int, int]]:
    """``(target_index, lo, hi)`` absolute row range of each window."""
    ranges: List[Tuple[int, int, int]] = []
    cursor = 0
    for target, rows in manifest.windows:
        ranges.append((int(target), cursor, cursor + rows))
        cursor += rows
    return ranges


def _resynthesize(
    path: Path,
    manifest: Manifest,
    window_ranges: Sequence[Tuple[int, int, int]],
    needed: Sequence[int],
    obs,
) -> Dict[int, Dict[str, np.ndarray]]:
    """Re-fetch the needed windows through the provenance's campaign.

    Returns per-window sample columns in the schema's dtypes — the exact
    bytes the original writer buffered.
    """
    from repro.core.campaign import Campaign

    campaign = Campaign.from_provenance(manifest.provenance, obs=obs)
    campaign.create_measurements()
    columns_by_window: Dict[int, Dict[str, np.ndarray]] = {}
    for position in needed:
        target_index, w_lo, w_hi = window_ranges[position]
        vm = campaign.platform.fleet[target_index]
        msm_id = campaign._msm_id_by_target[vm.key]
        record = campaign._fetch_measurement(
            campaign.transport,
            target_index,
            msm_id,
            vm,
            campaign.start_time,
            campaign.stop_time,
        )
        if len(record.columns) != w_hi - w_lo:
            raise StoreRepairError(
                f"window for target {vm.key} re-synthesized {len(record.columns)} "
                f"rows but the manifest's window index says {w_hi - w_lo} — "
                f"the provenance does not reproduce this store"
            )
        columns_by_window[position] = record.columns.sample_columns(target_index)
        obs.inc("store_repair_windows_total")
    return columns_by_window

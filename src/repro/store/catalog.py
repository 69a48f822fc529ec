"""Content-addressed catalog of campaign stores.

A catalog is a directory whose children are stores, each named by its
**campaign fingerprint**: the SHA-256 of the canonical provenance tuple
``(seed, fault profile, scale, schedule, packets)`` plus the store
format version.  Everything in the tuple fully determines the frozen
dataset bytes — worker count, worker chaos and the collection sink
(records or shards) are deliberately excluded, because the collection
loop guarantees byte-identical output across all of them — so an
identical campaign resolves to an identical path and
``Campaign.collect(store=...)`` becomes a cache hit: collect once,
analyze many.

A store is only visible to the catalog once its manifest is committed;
interrupted writes leave an uncommitted directory that
:meth:`CampaignCatalog.gc` sweeps.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import StoreError
from repro.store.format import (
    DEFAULT_ROWS_PER_SHARD,
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    Manifest,
    is_store_dir,
)
from repro.store.reader import StoreReader
from repro.store.writer import gc_store


def campaign_provenance(campaign) -> Dict[str, object]:
    """The canonical provenance tuple of a campaign, as a JSON-safe dict.

    Pure function of the campaign's configuration — everything that
    shapes the frozen dataset bytes, nothing that does not (worker
    count, worker chaos, the collection sink and observability are all
    byte-transparent).
    """
    return {
        "seed": int(campaign.platform.seed),
        "fault_profile": campaign.transport.fault_profile.name,
        "scale": campaign.scale.label,
        "interval_s": int(campaign.scale.interval_s),
        "start_time": int(campaign.start_time),
        "stop_time": int(campaign.stop_time),
        "packets": int(campaign.plan.packets),
    }


def campaign_fingerprint(
    provenance: Dict[str, object], format_version: int = FORMAT_VERSION
) -> str:
    """SHA-256 hex fingerprint of a canonical provenance dict.

    The store format version is part of it: a build that writes a new
    format misses the entries an older one committed (they stay readable
    by path) instead of serving bytes in a layout it did not write.
    """
    canonical = json.dumps(
        {"format_version": format_version, "provenance": provenance},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _looks_like_fingerprint(name: str) -> bool:
    return len(name) == 64 and all(c in "0123456789abcdef" for c in name)


def names_entry(name: str, provenance: Optional[Dict[str, object]]) -> bool:
    """Whether a catalog entry called ``name`` is where a store with this
    provenance belongs: its fingerprint under any format version this
    build reads.  An entry keeps the name it was committed under, also
    after a backfill rewrites its manifest at the current version; a
    store without provenance has no fingerprint to contradict.
    """
    if not provenance:
        return True
    return any(
        name == campaign_fingerprint(provenance, version)
        for version in SUPPORTED_VERSIONS
    )


#: Catalog-private directory holding content-addressed per-shard
#: aggregate partials (see :class:`repro.store.scan.AggregateCache`).
#: Hidden (dot-prefixed) children are catalog state, not store entries:
#: gc and scrub skip them.
AGGREGATE_CACHE_DIR = ".aggregates"


class CampaignCatalog:
    """A directory of campaign stores keyed by fingerprint."""

    def __init__(
        self,
        root,
        rows_per_shard: int = DEFAULT_ROWS_PER_SHARD,
        verify: str = "full",
        fs=None,
    ):
        self.root = Path(root)
        self.rows_per_shard = int(rows_per_shard)
        self.verify = verify
        #: Filesystem seam (:mod:`repro.store.fsim`) its writers and gc
        #: sweeps run through; ``None`` → real disk.
        self.fs = fs

    @classmethod
    def ensure(cls, catalog) -> "CampaignCatalog":
        """Normalize a path-or-catalog argument."""
        if isinstance(catalog, cls):
            return catalog
        return cls(catalog)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint

    # -- lookup ----------------------------------------------------------------

    def open(self, fingerprint: str, obs=None) -> Optional[StoreReader]:
        """The committed store for a fingerprint, verified, or ``None``.

        A directory without a committed manifest is a miss (interrupted
        write); a *damaged* committed store raises
        :class:`~repro.errors.StoreIntegrityError` — corruption is
        reported, never silently treated as a miss and re-collected
        over.
        """
        path = self.path_for(fingerprint)
        if not is_store_dir(path):
            return None
        return StoreReader(path, verify=self.verify, obs=obs)

    def lookup(self, campaign, obs=None) -> Optional[StoreReader]:
        """The store matching a campaign's fingerprint, if committed."""
        return self.open(
            campaign_fingerprint(campaign_provenance(campaign)), obs=obs
        )

    def aggregate_cache(self):
        """The catalog's shared :class:`~repro.store.scan.AggregateCache`.

        Partials are content-addressed by chunk checksum, so one cache
        directory safely serves every store in the catalog.
        """
        from repro.store.scan import AggregateCache

        return AggregateCache(self.root / AGGREGATE_CACHE_DIR)

    def scan(self, campaign, obs=None):
        """A :class:`~repro.store.scan.Scan` over a campaign's committed
        store, wired to the catalog's aggregate cache, or ``None`` on a
        cache miss.  Opens with verification off — scans exist to avoid
        reading every byte; verify explicitly when integrity is in
        question."""
        from repro.store.scan import Scan

        fingerprint = campaign_fingerprint(campaign_provenance(campaign))
        path = self.path_for(fingerprint)
        if not is_store_dir(path):
            return None
        reader = StoreReader(path, verify="off", obs=obs)
        return Scan(reader, obs=obs, cache=self.aggregate_cache())

    # -- maintenance -----------------------------------------------------------

    def entries(self) -> List[str]:
        """Committed fingerprints in the catalog, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            child.name
            for child in self.root.iterdir()
            if _looks_like_fingerprint(child.name) and is_store_dir(child)
        )

    def gc(self) -> List[str]:
        """Sweep the catalog; returns the removed paths (relative).

        Removes uncommitted store directories (no manifest — an
        interrupted or aborted write), entries whose directory name is not
        a fingerprint their manifest's provenance hashes to
        (:func:`names_entry`: a moved or tampered entry), and orphaned
        files inside healthy
        stores (stale generations, temp files).
        """
        removed: List[str] = []
        if not self.root.is_dir():
            return removed
        for child in sorted(self.root.iterdir()):
            if child.name.startswith("."):
                continue  # catalog-private state (e.g. .aggregates)
            if not child.is_dir():
                if child.name.endswith(".tmp"):
                    child.unlink()
                    removed.append(child.name)
                continue
            if not is_store_dir(child):
                shutil.rmtree(child)
                removed.append(child.name)
                continue
            try:
                manifest = Manifest.load(child)
            except StoreError:
                shutil.rmtree(child)
                removed.append(child.name)
                continue
            if _looks_like_fingerprint(child.name) and not names_entry(
                child.name, manifest.provenance
            ):
                shutil.rmtree(child)
                removed.append(child.name)
                continue
            removed.extend(
                f"{child.name}/{name}" for name in gc_store(child, fs=self.fs)
            )
        return removed

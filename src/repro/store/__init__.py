"""``repro.store`` — the persistent columnar campaign store.

The paper's pipeline is collect-once (9 months, 3.2 M datapoints),
analyze-many (every figure and table re-reads the same archive).  This
subsystem gives the reproduction the same economics: a campaign's frozen
:class:`~repro.core.dataset.CampaignDataset` persists as a directory of
checksummed column chunks plus one JSON manifest
(:mod:`repro.store.format`), each chunk in the smallest lossless
encoding that reproduces its raw little-endian bytes
(:mod:`repro.store.codec`, format v4), written atomically and
deterministically (:mod:`repro.store.writer`), re-opened read-only —
raw chunks as ``np.memmap`` views, encoded ones decoded per chunk — with
integrity verification (:mod:`repro.store.reader`), and addressed
content-wise by campaign fingerprint so identical campaigns become cache
hits (:mod:`repro.store.catalog`).

Entry points::

    dataset.save(path)                       # persist a frozen dataset
    CampaignDataset.open(path)               # zero-copy reload
    campaign.collect(store="stores/")        # collect-once / analyze-many
    scan_store(path).filter("rtt_min", "<=", 30).summarize("rtt_min")
    repro store {write,info,verify,scrub,repair,gc,stats}   # CLI maintenance

Analysis never has to materialize a column: :mod:`repro.store.scan`
walks the manifest's per-chunk zone maps (format v2 on), skips shards a
predicate provably cannot match, and folds the survivors through the
mergeable streaming reducers of :mod:`repro.frame.streaming`, caching
per-shard partials content-addressed by chunk checksum.

Durability is part of the contract: every write point is decomposed
through the :mod:`repro.store.fsim` seam (so crash consistency is
*tested*, at every fault point, not assumed), commits fsync file and
directory, and a damaged store is surgically repairable
(:mod:`repro.store.scrub`) from its provenance record.
"""

from repro.store.catalog import (
    CampaignCatalog,
    campaign_fingerprint,
    campaign_provenance,
)
from repro.store.format import (
    DEFAULT_ROWS_PER_SHARD,
    FORMAT_VERSION,
    MANIFEST_NAME,
    SAMPLE_COLUMNS,
    SAMPLE_SCHEMA,
    Manifest,
    ZoneMap,
    is_store_dir,
)
from repro.store.fsim import (
    FSIM_PROFILES,
    CountingFS,
    CrashPoint,
    FaultyFS,
    FsFaultProfile,
    RealFS,
    crash_points,
    get_fs_profile,
)
from repro.store.reader import StoreReader, open_dataset
from repro.store.scan import (
    AggregateCache,
    Predicate,
    Scan,
    backfill_zone_maps,
    scan_store,
)
from repro.store.scrub import (
    Damage,
    RepairReport,
    ScrubReport,
    repair,
    scrub,
    scrub_catalog,
)
from repro.store.writer import StoreWriter, compact, gc_store, write_dataset

__all__ = [
    "AggregateCache",
    "CampaignCatalog",
    "CountingFS",
    "CrashPoint",
    "DEFAULT_ROWS_PER_SHARD",
    "Damage",
    "FORMAT_VERSION",
    "FSIM_PROFILES",
    "FaultyFS",
    "FsFaultProfile",
    "MANIFEST_NAME",
    "Manifest",
    "Predicate",
    "RealFS",
    "RepairReport",
    "SAMPLE_COLUMNS",
    "SAMPLE_SCHEMA",
    "Scan",
    "ScrubReport",
    "StoreReader",
    "StoreWriter",
    "ZoneMap",
    "backfill_zone_maps",
    "campaign_fingerprint",
    "campaign_provenance",
    "compact",
    "crash_points",
    "gc_store",
    "get_fs_profile",
    "is_store_dir",
    "open_dataset",
    "repair",
    "scan_store",
    "scrub",
    "scrub_catalog",
    "write_dataset",
]

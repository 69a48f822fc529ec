"""The measurement campaign (paper §4.1).

Reproduces the methodology end to end through the Atlas client API:

1. deploy the VM fleet (101 regions, :mod:`repro.cloud.vm`);
2. select vantage points per country (the 3200+ probe population);
3. create one periodic ping measurement per target region, sourced from
   probes *in the same continent*, plus the §4.1 fallbacks: African
   probes also measure European regions, Latin American probes also
   measure North American regions;
4. fetch every measurement window's results as columns — deduplicated
   and with malformed entries quarantined, exactly as parsing the
   sagan-style dict stream would — accumulating a
   :class:`~repro.core.dataset.CampaignDataset`.

Scales: the paper ran 9 months at one ping per 3 hours.  That is
reproducible here (``CampaignScale.FULL``) but takes hours of CPU;
``MEDIUM`` generates a dataset of roughly the published size (~3.2 M
samples), ``SMALL`` preserves every figure's shape in ~20 s, and ``TINY``
is for unit tests.
"""

from __future__ import annotations

import enum
import json
import logging
import os
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atlas.api.client import AtlasCreateRequest
from repro.atlas.api.measurements import Ping
from repro.atlas.api.sources import AtlasSource
from repro.atlas.api.transport import Transport
from repro.atlas.credits import CreditAccount
from repro.atlas.platform import AtlasPlatform
from repro.atlas.probes import Probe
from repro.constants import CAMPAIGN_START_TS, MEASUREMENT_INTERVAL_S
from repro.core.dataset import CampaignDataset
from repro.errors import (
    CampaignError,
    CollectionInterruptedError,
    TransportError,
)
from repro.geo.continents import adjacent_target_continents
from repro.cloud.vm import TargetVM
from repro.obs import ensure_obs

_log = logging.getLogger("repro.campaign")


class CampaignScale(enum.Enum):
    """Preset campaign sizes.

    ``probe_fraction`` subsamples each country's probes *proportionally*
    (with a floor of one probe per country, so the Figure 4 map keeps
    full coverage).  Proportional — not capped — sampling preserves the
    platform's European density bias, which Figure 5's "~50 % of all
    probes are in EU/NA under 20 ms" framing depends on.
    ``interval_s`` is the ping period; ``duration_days`` the campaign
    length.
    """

    TINY = ("tiny", 0.0, 43_200, 4)
    SMALL = ("small", 0.125, 43_200, 10)
    MEDIUM = ("medium", 0.34, 21_600, 30)
    FULL = ("full", 1.0, MEASUREMENT_INTERVAL_S, 273)

    def __init__(self, label: str, probe_fraction: float, interval_s: int, days: int):
        self.label = label
        self.probe_fraction = probe_fraction
        self.interval_s = interval_s
        self.duration_days = days

    @property
    def duration_s(self) -> int:
        return self.duration_days * 86_400

    def vantage_count(self, country_probes: int) -> int:
        """How many of a country's probes this scale samples (>= 1)."""
        return max(1, int(round(country_probes * self.probe_fraction)))


@dataclass(frozen=True)
class CampaignPlan:
    """Resolved campaign parameters (before execution)."""

    scale: CampaignScale
    start_time: int
    stop_time: int
    vantage_ids_by_continent: Dict[str, Tuple[int, ...]]
    packets: int = 3

    @property
    def total_vantage_points(self) -> int:
        return sum(len(ids) for ids in self.vantage_ids_by_continent.values())


@dataclass
class CollectionCheckpoint:
    """Resumable collection state: per-measurement high-water timestamps.

    ``high_water[msm_id]`` is the timestamp (exclusive) the measurement
    has been fully collected through.  The collector only advances a
    measurement's mark after its whole window landed in the dataset, so
    a checkpoint is always consistent with the samples collected so far
    and a resume never duplicates nor drops samples.
    """

    high_water: Dict[int, int] = field(default_factory=dict)
    #: Serializes mark/save: concurrent markers must never lose a
    #: high-water advance, and a save racing a mark must never write a
    #: half-updated map.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def collected_through(self, msm_id: int, default: int) -> int:
        with self._lock:
            return self.high_water.get(msm_id, default)

    def mark(self, msm_id: int, through: int) -> None:
        with self._lock:
            current = self.high_water.get(msm_id)
            if current is None or through > current:
                self.high_water[msm_id] = int(through)

    def save(self, path, fs=None) -> None:
        """Persist atomically *and durably*: write a private temp file,
        fsync it, rename over the target, fsync the parent directory — a
        reader (or a crash, or a power cut) never sees a torn or
        rolled-back JSON.  A full disk surfaces as a one-line
        :class:`~repro.errors.StoreError` naming the partial state, not
        a raw OSError traceback."""
        from repro.store.fsim import ensure_fs

        fs = ensure_fs(fs)
        with self._lock:
            payload = {str(msm_id): ts for msm_id, ts in self.high_water.items()}
        path = Path(path)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        text = json.dumps({"high_water": payload}, indent=0)
        try:
            fs.write_bytes(tmp, text.encode("utf-8"), point="checkpoint")
            fs.fsync_path(tmp, point="checkpoint")
            fs.replace(tmp, path, point="checkpoint")
            fs.fsync_dir(path.parent, point="checkpoint")
        except OSError as exc:
            from repro.errors import StoreError

            raise StoreError(
                f"checkpoint save failed ({exc.strerror or exc}): previous "
                f"checkpoint (if any) is intact at {path}"
            ) from exc

    @classmethod
    def load(cls, path) -> "CollectionCheckpoint":
        payload = json.loads(Path(path).read_text())
        return cls(
            high_water={
                int(msm_id): int(ts)
                for msm_id, ts in payload.get("high_water", {}).items()
            }
        )


@dataclass
class CollectionStats:
    """What collection had to survive (accumulates across collect calls)."""

    measurements_collected: int = 0
    samples_appended: int = 0
    quarantined: int = 0
    duplicates_dropped: int = 0
    interruptions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "measurements_collected": self.measurements_collected,
            "samples_appended": self.samples_appended,
            "quarantined": self.quarantined,
            "duplicates_dropped": self.duplicates_dropped,
            "interruptions": self.interruptions,
        }


@dataclass
class MeasurementRecord:
    """One fetched + cleaned measurement window, as a shard-local buffer.

    The unit of work every collector produces: one measurement's
    (one target's) sample columns as numpy arrays, plus the cleaning
    counts, tagged with the measurement's canonical fleet index so shard
    results merge back in deterministic order.  Flat arrays keep the
    record cheap to pickle across process workers.
    """

    index: int
    msm_id: int
    target_key: str
    probe_ids: Sequence[int]
    timestamps: Sequence[int]
    rtt_min: Sequence[float]
    rtt_avg: Sequence[float]
    sent: Sequence[int]
    rcvd: Sequence[int]
    quarantined: int
    duplicates_dropped: int

    @property
    def sample_count(self) -> int:
        return len(self.probe_ids)


def resolve_workers(workers) -> int:
    """Resolve a worker-count spec to a concrete positive integer.

    ``None`` and ``1`` mean serial; ``"auto"`` sizes to the machine
    (capped — collection shards coarsely, so more than 8 workers mostly
    buys merge overhead); any other value must be a positive integer.
    """
    if workers is None:
        return 1
    if workers == "auto":
        return max(1, min(8, os.cpu_count() or 1))
    count = int(workers)
    if count < 1:
        raise CampaignError(f"workers must be positive: {workers!r}")
    return count


def plan_shards(count: int, workers: int) -> List[List[int]]:
    """Partition ``range(count)`` into at most ``workers`` contiguous shards.

    Every index is assigned to exactly one shard, shard sizes differ by
    at most one, no shard is empty, and ``workers == 1`` degenerates to a
    single shard holding the whole range (the serial path).  Contiguity
    keeps each worker walking measurements in canonical order, so a
    shard's output is already ordered for the merge.
    """
    if count < 0:
        raise CampaignError(f"cannot shard a negative count: {count}")
    if workers < 1:
        raise CampaignError(f"workers must be positive: {workers}")
    shard_count = min(workers, count)
    if shard_count == 0:
        return []
    base, extra = divmod(count, shard_count)
    shards: List[List[int]] = []
    cursor = 0
    for shard_index in range(shard_count):
        size = base + (1 if shard_index < extra else 0)
        shards.append(list(range(cursor, cursor + size)))
        cursor += size
    return shards


@dataclass(frozen=True)
class RowShard:
    """One worker's slice of a store-aware shard plan.

    ``entries`` is a half-open index range into the pending-measurement
    list; ``row_start``/``rows`` locate the slice's samples in the global
    canonical row stream.  The store-shard geometry of the slice follows
    arithmetically — the rows before the first global ``rows_per_shard``
    boundary are the *head partial*, whole multiples after it are
    *interior shards* the worker writes under their final global names,
    and the remainder is the *tail partial* — which is exactly why any
    contiguous cut of the row stream can be written shared-nothing and
    merged back byte-identically.
    """

    entries: Tuple[int, int]
    row_start: int
    rows: int

    def head_rows(self, rows_per_shard: int) -> int:
        """Rows before this slice's first global shard boundary."""
        return min(self.rows, (-self.row_start) % rows_per_shard)

    def first_shard_index(self, rows_per_shard: int) -> int:
        """Global index of the first interior shard (if any)."""
        return (self.row_start + self.head_rows(rows_per_shard)) // rows_per_shard

    def interior_shards(self, rows_per_shard: int) -> int:
        """Whole ``rows_per_shard`` slices this worker writes itself."""
        return (self.rows - self.head_rows(rows_per_shard)) // rows_per_shard

    def tail_rows(self, rows_per_shard: int) -> int:
        """Rows past the last interior shard boundary."""
        return (
            self.rows
            - self.head_rows(rows_per_shard)
            - self.interior_shards(rows_per_shard) * rows_per_shard
        )


def plan_row_shards(
    counts: Sequence[int], workers: int, rows_per_shard: int
) -> List[RowShard]:
    """Partition pending measurements into row-balanced contiguous slices.

    ``counts[i]`` is the exact sample-row count pending measurement ``i``
    will produce (from
    :meth:`~repro.atlas.api.transport.Transport.results_count`).  Cuts
    happen only *between* measurements — a window is one worker's unit of
    synthesis — placed where the cumulative row count crosses each
    balanced target ``total * k / workers``, so workers carry near-equal
    row loads even when window sizes vary.  Because every slice knows its
    global ``row_start``, its interior store shards land on exact
    ``rows_per_shard`` boundaries by construction (see
    :class:`RowShard`); no alignment constraint is imposed on the cuts
    themselves.  Empty slices are dropped; slices cover every measurement
    exactly once, in canonical order.
    """
    if workers < 1:
        raise CampaignError(f"workers must be positive: {workers}")
    if rows_per_shard < 1:
        raise CampaignError(f"rows_per_shard must be positive: {rows_per_shard}")
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise CampaignError("negative row count in shard plan")
    total = sum(counts)
    plan: List[RowShard] = []
    cursor = 0
    row_cursor = 0
    for k in range(1, workers + 1):
        target = (total * k) // workers
        cut = cursor
        rows = 0
        while cut < len(counts) and (
            k == workers or row_cursor + rows < target
        ):
            rows += counts[cut]
            cut += 1
        if cut > cursor:
            plan.append(
                RowShard(entries=(cursor, cut), row_start=row_cursor, rows=rows)
            )
        cursor = cut
        row_cursor += rows
    return plan


class Campaign:
    """One full measurement campaign against a platform.

    All platform traffic goes through a
    :class:`~repro.atlas.api.transport.Transport` seam; attach one built
    with a fault profile to chaos-test the collection pipeline.
    """

    def __init__(
        self,
        platform: AtlasPlatform,
        scale: CampaignScale = CampaignScale.SMALL,
        start_time: int = CAMPAIGN_START_TS,
        api_key: str = None,
        transport: Transport = None,
        obs=None,
    ):
        self.platform = platform
        self.transport = transport if transport is not None else Transport(platform)
        if self.transport.platform is not platform:
            raise CampaignError("transport is bound to a different platform")
        # One observability context serves the whole campaign: a live one
        # passed here takes over the transport seam; otherwise the
        # campaign adopts whatever the transport carries (NULL_OBS by
        # default, making uninstrumented runs free).
        obs = ensure_obs(obs)
        if obs.enabled:
            self.transport.bind_obs(obs)
        self.obs = self.transport.obs
        self.scale = scale
        self.start_time = int(start_time)
        self.stop_time = self.start_time + scale.duration_s
        if api_key is None:
            api_key = self._provision_account()
        self.api_key = api_key
        self.plan = self._make_plan()
        self.measurement_ids: List[int] = []
        self._msm_id_by_target: Dict[str, int] = {}
        self.collection_stats = CollectionStats()
        #: Fault/retry accounting of parallel-collection worker
        #: transports, folded into :meth:`transport_stats`.
        self._worker_transport_stats: List[Dict[str, object]] = []
        #: Per-worker *process* metrics of the most recent direct-to-store
        #: collection — rows, bytes written, wall-clock rows/s, peak RSS —
        #: in shard order.  Wall-clock numbers live here, out-of-band,
        #: precisely so the deterministic obs snapshot stays byte-stable.
        self.worker_process_stats: List[Dict[str, object]] = []
        #: Live shard writer while a store-backed collection streams
        #: merged records to disk (see :meth:`collect`); ``None``
        #: otherwise.  Records always reach :meth:`_merge_record` in
        #: canonical fleet order — serial or parallel — so the shards it
        #: cuts are byte-identical at any worker count.
        self._store_writer = None
        #: :class:`~repro.core.supervisor.SupervisionReport` of the most
        #: recent supervised collection (``None`` otherwise); surfaced by
        #: :func:`repro.core.completeness.health_report`.
        self.supervision = None

    @classmethod
    def from_paper(
        cls,
        scale: CampaignScale = CampaignScale.SMALL,
        seed: int = 0,
        faults=None,
        obs=None,
    ) -> "Campaign":
        """Build a campaign with a fresh platform, paper defaults.

        ``faults`` takes a chaos profile name (``"flaky"`` / ``"outage"``
        / ``"hostile"``) or :class:`~repro.atlas.faults.FaultProfile`;
        ``obs`` an optional :class:`~repro.obs.Obs` context to instrument
        the run.
        """
        platform = AtlasPlatform(seed=seed)
        transport = Transport(platform, faults=faults)
        return cls(platform, scale=scale, transport=transport, obs=obs)

    @classmethod
    def from_provenance(
        cls, provenance: Dict[str, object], obs=None
    ) -> "Campaign":
        """Rebuild the campaign a store's provenance record describes.

        The inverse of :func:`repro.store.catalog.campaign_provenance`:
        given a committed store's provenance dict, reconstruct a campaign
        whose collection produces those exact bytes — the foundation of
        surgical store repair, which re-synthesizes only damaged windows
        through this campaign's deterministic fetch path.
        """
        try:
            scale = next(
                s for s in CampaignScale if s.label == str(provenance["scale"])
            )
            campaign = cls.from_paper(
                scale=scale,
                seed=int(provenance["seed"]),
                faults=str(provenance["fault_profile"]),
                obs=obs,
            )
        except (KeyError, TypeError, ValueError, StopIteration) as exc:
            raise CampaignError(
                f"provenance record does not describe a campaign: {exc!r}"
            ) from exc
        campaign.start_time = int(provenance["start_time"])
        campaign.stop_time = int(provenance["stop_time"])
        # The remaining provenance fields are functions of scale; a
        # mismatch means the record came from an incompatible build.
        derived = {
            "interval_s": int(scale.interval_s),
            "stop_time": campaign.start_time + scale.duration_s,
            "packets": int(campaign.plan.packets),
        }
        for key, expected in derived.items():
            if int(provenance[key]) != expected:
                raise CampaignError(
                    f"provenance field {key}={provenance[key]!r} does not match "
                    f"this build's {scale.label!r} campaign ({expected})"
                )
        # start_time shifted the window: rebuild the plan against it.
        campaign.plan = campaign._make_plan()
        return campaign

    # -- planning --------------------------------------------------------------

    def _provision_account(self) -> str:
        """Register the research account with the raised quota the paper's
        acknowledgements thank the Atlas team for."""
        account = CreditAccount(
            key="REPRO-RESEARCH-KEY",
            balance=1_000_000_000,
            daily_limit=10_000_000,
        )
        self.platform.register_account(account)
        return account.key

    def _make_plan(self) -> CampaignPlan:
        by_continent: Dict[str, List[int]] = {}
        by_country: Dict[str, List[Probe]] = {}
        for probe in self.platform.probes:
            by_country.setdefault(probe.country_code, []).append(probe)
        for country_probes in by_country.values():
            country_probes.sort(key=lambda p: p.probe_id)
            count = self.scale.vantage_count(len(country_probes))
            # Stride through the country's probes instead of taking a
            # prefix, so the subsample stays representative.
            stride = max(1, len(country_probes) // count)
            chosen = country_probes[::stride][:count]
            for probe in chosen:
                by_continent.setdefault(probe.continent, []).append(probe.probe_id)
        return CampaignPlan(
            scale=self.scale,
            start_time=self.start_time,
            stop_time=self.stop_time,
            vantage_ids_by_continent={
                continent: tuple(sorted(ids))
                for continent, ids in by_continent.items()
            },
        )

    def _vantage_ids_for_target(self, vm: TargetVM) -> Tuple[int, ...]:
        """Probe ids measuring this target (same continent + §4.1 fallbacks)."""
        target_continent = vm.region.continent
        ids: List[int] = list(
            self.plan.vantage_ids_by_continent.get(target_continent, ())
        )
        for source_continent, fallbacks in (
            (continent, adjacent_target_continents(continent))
            for continent in self.plan.vantage_ids_by_continent
        ):
            if target_continent in fallbacks:
                ids.extend(self.plan.vantage_ids_by_continent[source_continent])
        return tuple(sorted(set(ids)))

    # -- execution ------------------------------------------------------------

    def create_measurements(self) -> List[int]:
        """Register one periodic ping per target region via the client API.

        Idempotent and resumable: each created target is tracked, so a
        run interrupted mid-loop (e.g. by a
        :class:`~repro.errors.QuotaExceededError`) can simply be retried
        — already-created measurements are skipped, never duplicated,
        and a call with everything created returns the existing ids.
        """
        for vm in self.platform.fleet:
            if vm.key in self._msm_id_by_target:
                continue
            vantage_ids = self._vantage_ids_for_target(vm)
            if not vantage_ids:
                raise CampaignError(
                    f"no vantage points for target {vm.key} "
                    f"({vm.region.continent})"
                )
            ping = Ping(
                target=self.platform.hostname_for(vm),
                description=f"latency-shears {vm.key}",
                interval=self.scale.interval_s,
                packets=self.plan.packets,
            )
            source = AtlasSource(
                type="probes",
                value=",".join(str(pid) for pid in vantage_ids),
                requested=len(vantage_ids),
            )
            ok, response = AtlasCreateRequest(
                measurements=[ping],
                sources=[source],
                start_time=self.start_time,
                stop_time=self.stop_time,
                key=self.api_key,
                transport=self.transport,
            ).create()
            if not ok:
                self._sync_measurement_ids()
                raise CampaignError(
                    f"measurement creation failed for {vm.key}: "
                    f"{response['error']['detail']}"
                )
            self._msm_id_by_target[vm.key] = response["measurements"][0]
        self._sync_measurement_ids()
        return self.measurement_ids

    def _sync_measurement_ids(self) -> None:
        """Rebuild the fleet-ordered id list from the created-target map."""
        self.measurement_ids = [
            self._msm_id_by_target[vm.key]
            for vm in self.platform.fleet
            if vm.key in self._msm_id_by_target
        ]

    def collect(
        self,
        start: int = None,
        stop: int = None,
        checkpoint: CollectionCheckpoint = None,
        dataset: CampaignDataset = None,
        workers=None,
        store=None,
        worker_faults=None,
        executor: str = "auto",
        direct: str = "auto",
    ) -> CampaignDataset:
        """Fetch and parse results into a dataset.

        ``start``/``stop`` bound the collection window (Unix seconds),
        supporting the paper's mode of operation — "our measurements are
        ongoing" — where analysis runs on the data gathered so far.
        Omitted bounds default to the campaign's own window.

        Pass the ``checkpoint`` and partial ``dataset`` carried by a
        :class:`~repro.errors.CollectionInterruptedError` to resume an
        interrupted collection without duplicating samples.

        ``workers`` (an int, ``"auto"``, or ``None`` for serial) fans the
        fetch out over a :class:`ParallelCollector`; the frozen dataset
        is byte-identical to a serial run either way.

        ``store`` (a directory path or
        :class:`~repro.store.CampaignCatalog`) makes the collection
        collect-once/analyze-many: when the catalog already holds a
        committed store for this campaign's fingerprint, the dataset is
        re-opened from it (verified, zero-copy) without touching the
        platform; otherwise the collection runs normally while streaming
        its merged records into a new store, committed only when the
        window completes.

        ``worker_faults`` (a :class:`~repro.atlas.faults.WorkerFaultProfile`
        or its name) runs the collection under a
        :class:`~repro.core.supervisor.Supervisor`: workers crash and
        hang on the simulated clock, a watchdog reassigns their shards,
        and a degraded completion is reported instead of raised.

        ``executor`` picks the parallel fan-out (``"process"`` /
        ``"thread"`` / ``"auto"``); ``direct`` gates the shared-nothing
        direct-to-store write path (``"auto"`` uses it whenever eligible,
        ``"on"`` demands it, ``"off"`` forces the stitched record path).
        Either way the committed store bytes are identical.
        """
        if direct not in ("auto", "on", "off"):
            raise CampaignError(
                f"direct must be 'auto', 'on', or 'off': {direct!r}"
            )
        if store is not None:
            return self._collect_stored(
                store,
                workers=workers,
                worker_faults=worker_faults,
                executor=executor,
                direct=direct,
            )
        if direct == "on":
            raise CampaignError(
                "direct='on' requires a store: the direct path writes "
                "shards, not an in-memory dataset"
            )
        if not self.measurement_ids:
            raise CampaignError("create_measurements() must run first")
        if dataset is None:
            dataset = CampaignDataset(
                self.platform.probes, self.platform.fleet, obs=self.obs
            )
        self.collect_into(
            dataset,
            start=start,
            stop=stop,
            checkpoint=checkpoint,
            workers=workers,
            worker_faults=worker_faults,
            executor=executor,
        )
        dataset.freeze()
        return dataset

    def _collect_stored(
        self, store, workers=None, worker_faults=None, executor="auto",
        direct="auto",
    ) -> CampaignDataset:
        """Store-backed collection: cache hit or collect-and-commit.

        Full-window collections only — the fingerprint names the whole
        campaign, so partial windows, resumes, and pre-seeded datasets
        take the plain :meth:`collect` path and persist with
        :meth:`~repro.core.dataset.CampaignDataset.save` afterwards.
        """
        from repro.store import CampaignCatalog, campaign_provenance

        catalog = CampaignCatalog.ensure(store)
        cached = catalog.lookup(self, obs=self.obs)
        if cached is not None:
            self.obs.inc("store_cache_hits_total")
            self.obs.event(
                "store.cache_hit", path=str(cached.path), rows=cached.rows
            )
            _log.info("store cache hit: %s (%d rows)", cached.path, cached.rows)
            return cached.dataset(
                self.platform.probes, self.platform.fleet, obs=self.obs
            )
        self.obs.inc("store_cache_misses_total")
        if not self.measurement_ids:
            self.create_measurements()
        if direct != "off":
            blocker = self._direct_blocker(workers, executor)
            if blocker is None:
                return DirectStoreCollector(
                    self,
                    catalog,
                    workers=workers,
                    worker_faults=worker_faults,
                ).collect()
            if direct == "on":
                raise CampaignError(f"direct='on' but {blocker}")
        dataset = CampaignDataset(
            self.platform.probes, self.platform.fleet, obs=self.obs
        )
        writer = catalog.writer(self, obs=self.obs)
        with self.obs.span(
            "store.write",
            path=str(writer.path),
            fingerprint=writer.path.name,
        ):
            self._store_writer = writer
            try:
                self.collect_into(
                    dataset,
                    workers=workers,
                    worker_faults=worker_faults,
                    executor=executor,
                )
            except BaseException:
                writer.abort()
                raise
            finally:
                self._store_writer = None
            dataset.freeze()
            if self.supervision is not None and self.supervision.degraded:
                # A degraded window is not this fingerprint's dataset:
                # committing it would poison every future cache hit.
                writer.abort()
                _log.warning(
                    "degraded supervised collection: store NOT committed "
                    "(%d windows quarantined)",
                    len(self.supervision.quarantined),
                )
                return dataset
            writer.finalize()
        _log.info(
            "store committed: %s (%d rows, provenance %s)",
            writer.path, writer.rows_written, campaign_provenance(self),
        )
        return dataset

    def _direct_blocker(self, workers, executor: str) -> Optional[str]:
        """Why the shared-nothing direct-to-store path cannot run, or ``None``.

        The direct path needs (a) more than one worker, (b) fork-based
        process workers, and (c) a precomputable row stream — which
        :meth:`~repro.atlas.api.transport.Transport.results_count` only
        vouches for on a clean wire.  Anything else falls back to the
        stitched record path, which commits identical bytes.
        """
        if resolve_workers(workers) <= 1:
            return "the direct store path needs workers > 1"
        if executor == "thread":
            return "the direct store path needs process workers"
        if not hasattr(os, "fork"):
            return "this platform has no os.fork for process workers"
        if self.transport.injector is not None:
            return (
                "a fault injector is attached: the row stream is not "
                "precomputable under chaos"
            )
        if self.measurement_ids and (
            self.transport.results_count(self.measurement_ids[0]) is None
        ):
            return "the transport cannot serve columnar results"
        return None

    def scan(self, store):
        """An out-of-core :class:`~repro.store.scan.Scan` over this
        campaign's committed store.

        The store must already be committed (a prior
        ``collect(store=...)`` against the same fingerprint); this never
        collects.  The scan is wired to the catalog's shared aggregate
        cache, so repeated summaries/ECDFs over unchanged shards are
        cache hits and appending windows re-derives only new shards'
        partials.
        """
        from repro.store import (
            CampaignCatalog,
            campaign_fingerprint,
            campaign_provenance,
        )

        catalog = CampaignCatalog.ensure(store)
        scan = catalog.scan(self, obs=self.obs)
        if scan is None:
            fingerprint = campaign_fingerprint(campaign_provenance(self))
            raise CampaignError(
                f"no committed store for fingerprint {fingerprint[:12]}… in "
                f"{catalog.root}; run collect(store=...) first"
            )
        return scan

    def collect_into(
        self,
        dataset: CampaignDataset,
        start: int = None,
        stop: int = None,
        checkpoint: CollectionCheckpoint = None,
        workers=None,
        worker_faults=None,
        executor: str = "auto",
    ) -> None:
        """Append one collection window into an existing (unfrozen) dataset.

        Without a checkpoint, windows must not overlap across calls or
        samples will duplicate — the platform regenerates results
        deterministically per window.  With one, each measurement's
        high-water mark guards against exactly that: re-collecting an
        already-covered window is a no-op.

        Hardened for chaos collection: each measurement's window is
        fetched through the transport (which retries transient faults),
        duplicated entries are dropped, malformed blobs are quarantined
        and counted instead of crashing, and samples land in the dataset
        only once the whole measurement window arrived — so an
        interruption (raised as
        :class:`~repro.errors.CollectionInterruptedError` with the
        checkpoint, partial dataset, and failing measurement id attached)
        never leaves a half-collected measurement behind.

        With ``workers`` beyond 1 the window is collected by a
        :class:`ParallelCollector` instead of the serial loop below; both
        paths build the same per-measurement records and merge them in
        canonical fleet order, so their output is identical byte for byte.
        """
        worker_count = resolve_workers(workers)
        if worker_faults is not None:
            from repro.atlas.faults import get_worker_profile
            from repro.core.supervisor import Supervisor

            profile = get_worker_profile(worker_faults)
            if not profile.is_noop:
                Supervisor(
                    self, workers=worker_count, worker_faults=profile
                ).collect_into(
                    dataset, start=start, stop=stop, checkpoint=checkpoint
                )
                return
        if worker_count > 1:
            ParallelCollector(
                self, workers=worker_count, executor=executor
            ).collect_into(
                dataset, start=start, stop=stop, checkpoint=checkpoint
            )
            return
        window_start = self.start_time if start is None else int(start)
        window_stop = self.stop_time if stop is None else int(stop)
        pending = self._pending(window_start, window_stop, checkpoint)
        skipped = len(self.measurement_ids) - len(pending)
        with self.obs.span(
            "campaign.collect", workers=1, measurements=len(pending)
        ):
            if skipped:
                self.obs.event("campaign.resume_skip", measurements=skipped)
            for index, msm_id, fetch_from in pending:
                vm = self.platform.fleet[index]
                try:
                    record = self._fetch_measurement(
                        self.transport, index, msm_id, vm, fetch_from, window_stop
                    )
                except TransportError as exc:
                    self.collection_stats.interruptions += 1
                    self.obs.inc("campaign_interruptions_total")
                    _log.warning(
                        "collection interrupted at measurement %d (%s): %s",
                        msm_id, vm.key, exc,
                    )
                    raise CollectionInterruptedError(
                        f"measurement {msm_id} ({vm.key}): {exc}",
                        checkpoint=checkpoint,
                        dataset=dataset,
                        msm_id=msm_id,
                    ) from exc
                self._merge_record(dataset, record, checkpoint, window_stop)

    def _pending(
        self,
        window_start: int,
        window_stop: int,
        checkpoint: Optional[CollectionCheckpoint],
    ) -> List[Tuple[int, int, int]]:
        """Measurements still owing samples for a window, in fleet order.

        Returns ``(fleet_index, msm_id, fetch_from)`` triples; an entry
        whose checkpoint mark already covers the window is skipped, which
        is what makes re-collection a no-op and a resume loss-free.
        """
        pending: List[Tuple[int, int, int]] = []
        for index, msm_id in enumerate(self.measurement_ids):
            fetch_from = window_start
            if checkpoint is not None:
                fetch_from = max(
                    window_start, checkpoint.collected_through(msm_id, window_start)
                )
            if fetch_from >= window_stop:
                continue
            pending.append((index, msm_id, fetch_from))
        return pending

    def _fetch_measurement(
        self,
        transport: Transport,
        index: int,
        msm_id: int,
        vm: TargetVM,
        fetch_from: int,
        window_stop: int,
    ) -> MeasurementRecord:
        """Fetch + clean one measurement window into a mergeable record.

        The one unit of work of every collector — serial, parallel,
        supervised and direct-to-store — and of store repair; raises
        :class:`~repro.errors.TransportError` when the transport gives
        out terminally.  Thread-safe: touches no campaign state beyond
        read-only platform data and the passed-in transport.

        The window arrives as columns from one vectorized synthesis call
        — no per-sample dicts, no parsing.  Under a fault injector the
        transport replays the page, fault and retry schedule over row
        indices and hands back the rows a cleaning reader of the dict
        stream would keep, with its quarantined and duplicate counts
        (:meth:`~repro.atlas.api.transport.Transport.results_columns`;
        :meth:`~repro.atlas.results.ping.PingColumns.from_raw` is the
        dict-path reference the parity suite holds it to).

        Instrumentation lands on the *passed transport's* context (a
        worker's fetches accumulate in that worker's registry, merged
        back in shard order), one span and one path counter per window —
        never per sample.
        """
        obs = transport.obs
        with obs.span("campaign.fetch", msm_id=msm_id, target=vm.key):
            window = transport.results_columns(
                msm_id, start=fetch_from, stop=window_stop
            )
            if window is None:
                raise CampaignError(
                    f"measurement {msm_id} has no columnar results: campaigns "
                    f"collect ping measurements only"
                )
            obs.inc("campaign_fetch_path_total", path="columnar")
        columns = window.columns
        return MeasurementRecord(
            index=index,
            msm_id=msm_id,
            target_key=vm.key,
            probe_ids=columns.probe_ids,
            timestamps=columns.timestamps,
            rtt_min=columns.rtt_min,
            rtt_avg=columns.rtt_avg,
            sent=columns.sent,
            rcvd=columns.rcvd,
            quarantined=window.quarantined,
            duplicates_dropped=window.duplicates,
        )

    def _merge_record(
        self,
        dataset: CampaignDataset,
        record: MeasurementRecord,
        checkpoint: Optional[CollectionCheckpoint],
        window_stop: int,
    ) -> None:
        """Land one record: bulk-append samples, account, advance the mark."""
        if self._store_writer is not None and record.sample_count:
            # Stream the same rows the dataset receives.  Records arrive
            # here in canonical fleet order on both the serial and the
            # parallel path, and the store-backed collection never
            # dedups, so the shard stream equals the frozen columns.
            self._store_writer.append_batch(
                record.probe_ids,
                dataset.target_index_of(record.target_key),
                record.timestamps,
                record.rtt_min,
                record.rtt_avg,
                record.sent,
                record.rcvd,
            )
        stats = self.collection_stats
        stats.samples_appended += dataset.extend_samples(
            record.target_key,
            record.probe_ids,
            record.timestamps,
            record.rtt_min,
            record.rtt_avg,
            record.sent,
            record.rcvd,
        )
        stats.quarantined += record.quarantined
        stats.duplicates_dropped += record.duplicates_dropped
        stats.measurements_collected += 1
        obs = self.obs
        obs.inc("campaign_measurements_collected_total")
        if record.quarantined:
            obs.inc("campaign_quarantined_total", record.quarantined)
        if record.duplicates_dropped:
            obs.inc("campaign_duplicates_dropped_total", record.duplicates_dropped)
        if checkpoint is not None:
            checkpoint.mark(record.msm_id, window_stop)
            obs.event(
                "checkpoint.mark", msm_id=record.msm_id, through=window_stop
            )

    def transport_stats(self) -> Dict[str, object]:
        """Fault/retry accounting aggregated across the main transport and
        any parallel-collection worker transports.

        Scoped fault schedules make each measurement's fault outcome
        deterministic, so for a completed collection the aggregated
        ``faults``, ``retries``, and ``breakers_opened`` equal a serial
        run's exactly.  ``simulated_sleep_s`` matches up to float
        rounding (each engine rounds its own total to the millisecond
        before they are summed).  ``budget_left`` is summed across
        engines (each worker carries its own budget).
        """
        totals = dict(self.transport.stats())
        totals["faults"] = dict(totals["faults"])
        for extra in self._worker_transport_stats:
            faults = totals["faults"]
            for kind, count in extra["faults"].items():
                faults[kind] = faults.get(kind, 0) + count
            totals["retries"] += extra["retries"]
            totals["budget_left"] += extra["budget_left"]
            totals["simulated_sleep_s"] = round(
                totals["simulated_sleep_s"] + extra["simulated_sleep_s"], 3
            )
            totals["breakers_opened"] += extra["breakers_opened"]
        totals["faults"] = {
            kind: totals["faults"][kind] for kind in sorted(totals["faults"])
        }
        return totals

    def run(
        self,
        workers=None,
        store=None,
        worker_faults=None,
        executor: str = "auto",
        direct: str = "auto",
    ) -> CampaignDataset:
        """Create measurements and collect everything.

        With ``store`` a cache hit skips measurement creation entirely —
        the store already holds the campaign's full frozen dataset.
        """
        if store is not None:
            return self.collect(
                workers=workers,
                store=store,
                worker_faults=worker_faults,
                executor=executor,
                direct=direct,
            )
        self.create_measurements()
        return self.collect(
            workers=workers,
            worker_faults=worker_faults,
            executor=executor,
            direct=direct,
        )

    # -- reporting convenience ---------------------------------------------------

    def headline_report(self, dataset: CampaignDataset):
        """Shortcut to :func:`repro.core.report.headline_report`."""
        from repro.core.report import headline_report

        return headline_report(dataset)


#: Campaign a forked worker process inherits.  Set (in the parent) just
#: before the process pool spawns and cleared right after collection;
#: fork-started children carry the copy-on-write reference, which moves
#: the whole platform across without pickling a byte of it.
_FORK_CAMPAIGN: Optional[Campaign] = None


@dataclass
class _ShardFailure:
    """A terminal transport failure inside one worker's shard."""

    index: int
    msm_id: int
    target_key: str
    detail: str


def _collect_shard(
    campaign: Campaign,
    entries: Sequence[Tuple[int, int, int]],
    window_stop: int,
    shard_index: int = 0,
):
    """Run one worker's shard on a fresh transport clone.

    Walks the shard's ``(fleet_index, msm_id, fetch_from)`` entries in
    canonical order and stops at the first terminal failure — exactly
    what the serial collector would have done from that point — recording
    it instead of raising so the merge can pick the earliest failure
    across shards.  Returns ``(records, transport_stats, failure,
    obs_export)``; the export carries the worker context's metrics and
    spans back for the shard-ordered merge (``None`` when
    uninstrumented).
    """
    transport = campaign.transport.worker_clone()
    records: List[MeasurementRecord] = []
    failure: Optional[_ShardFailure] = None
    with transport.obs.span(
        "campaign.shard", shard=shard_index, measurements=len(entries)
    ):
        for index, msm_id, fetch_from in entries:
            vm = campaign.platform.fleet[index]
            try:
                record = campaign._fetch_measurement(
                    transport, index, msm_id, vm, fetch_from, window_stop
                )
            except TransportError as exc:
                failure = _ShardFailure(index, msm_id, vm.key, str(exc))
                break
            records.append(record)
    return records, transport.stats(), failure, transport.obs.export()


def _forked_shard(entries, window_stop, shard_index=0):
    """Process-pool entry point: shard work against the forked campaign."""
    return _collect_shard(_FORK_CAMPAIGN, entries, window_stop, shard_index)


class ParallelCollector:
    """Sharded parallel collection with a deterministic merge.

    Splits the pending measurement list into contiguous per-worker shards
    (:func:`plan_shards`), fetches each shard through its own
    :meth:`~repro.atlas.api.transport.Transport.worker_clone`, and merges
    the shard-local :class:`MeasurementRecord` buffers into the dataset
    in canonical fleet order.  Because fault and retry schedules are
    scoped per measurement window, every record is byte-identical to what
    the serial collector would have produced — so the frozen dataset,
    checkpoint, and collection stats match a serial run exactly, under
    every fault profile.

    **Interruption is prefix-consistent**: if any shard fails terminally,
    only records *before* the earliest failing measurement (in canonical
    order) are merged and checkpointed; completed work past the failure
    is discarded so the carried checkpoint + partial dataset are exactly
    a serial run's interruption state, and a resume reproduces the serial
    byte stream.

    ``executor`` selects ``"process"`` (fork-based, true parallelism —
    the default where :func:`os.fork` exists) or ``"thread"`` (portable;
    identical output, little speedup under the GIL).
    """

    def __init__(self, campaign: Campaign, workers=None, executor: str = "auto"):
        self.campaign = campaign
        self.workers = resolve_workers("auto" if workers is None else workers)
        if executor == "auto":
            executor = "process" if hasattr(os, "fork") else "thread"
        if executor not in ("process", "thread"):
            raise CampaignError(f"unknown executor {executor!r}")
        if executor == "process" and not hasattr(os, "fork"):
            # Catch this here, not as a pickle error from deep inside a
            # spawn-context pool: forked workers inherit the campaign by
            # copy-on-write, and no other start method can.
            raise CampaignError(
                "executor='process' needs os.fork (unavailable on this "
                "platform); use executor='thread'"
            )
        self.executor = executor

    def collect(
        self,
        start: int = None,
        stop: int = None,
        checkpoint: CollectionCheckpoint = None,
        dataset: CampaignDataset = None,
    ) -> CampaignDataset:
        """Parallel counterpart of :meth:`Campaign.collect`."""
        campaign = self.campaign
        if not campaign.measurement_ids:
            raise CampaignError("create_measurements() must run first")
        if dataset is None:
            dataset = CampaignDataset(
                campaign.platform.probes, campaign.platform.fleet, obs=campaign.obs
            )
        self.collect_into(dataset, start=start, stop=stop, checkpoint=checkpoint)
        dataset.freeze()
        return dataset

    def collect_into(
        self,
        dataset: CampaignDataset,
        start: int = None,
        stop: int = None,
        checkpoint: CollectionCheckpoint = None,
    ) -> None:
        """Parallel counterpart of :meth:`Campaign.collect_into`."""
        campaign = self.campaign
        if not campaign.measurement_ids:
            raise CampaignError("create_measurements() must run first")
        window_start = campaign.start_time if start is None else int(start)
        window_stop = campaign.stop_time if stop is None else int(stop)
        pending = campaign._pending(window_start, window_stop, checkpoint)
        if not pending:
            return
        if self.workers <= 1 or len(pending) <= 1:
            campaign.collect_into(
                dataset, start=window_start, stop=window_stop, checkpoint=checkpoint
            )
            return
        shards = [
            [pending[i] for i in shard]
            for shard in plan_shards(len(pending), self.workers)
        ]
        skipped = len(campaign.measurement_ids) - len(pending)
        with campaign.obs.span(
            "campaign.collect",
            workers=len(shards),
            executor=self.executor,
            measurements=len(pending),
        ):
            if skipped:
                campaign.obs.event("campaign.resume_skip", measurements=skipped)
            outcomes = self._run_shards(shards, window_stop)
            records: List[MeasurementRecord] = []
            failures: List[_ShardFailure] = []
            # Worker contexts merge in shard (canonical) order, which is
            # what keeps the combined snapshot deterministic at a fixed
            # worker count.
            for shard_records, transport_stats, failure, obs_export in outcomes:
                records.extend(shard_records)
                campaign._worker_transport_stats.append(transport_stats)
                campaign.obs.merge(obs_export)
                if failure is not None:
                    failures.append(failure)
            first_failure = min(failures, key=lambda f: f.index, default=None)
            for record in sorted(records, key=lambda r: r.index):
                if first_failure is not None and record.index > first_failure.index:
                    break
                campaign._merge_record(dataset, record, checkpoint, window_stop)
            if first_failure is not None:
                campaign.collection_stats.interruptions += 1
                campaign.obs.inc("campaign_interruptions_total")
                _log.warning(
                    "parallel collection interrupted at measurement %d (%s): %s",
                    first_failure.msm_id,
                    first_failure.target_key,
                    first_failure.detail,
                )
                raise CollectionInterruptedError(
                    f"measurement {first_failure.msm_id} "
                    f"({first_failure.target_key}): {first_failure.detail}",
                    checkpoint=checkpoint,
                    dataset=dataset,
                    msm_id=first_failure.msm_id,
                )

    def _run_shards(self, shards, window_stop):
        if self.executor == "thread":
            pool = ThreadPoolExecutor(max_workers=len(shards))
            try:
                futures = [
                    pool.submit(
                        _collect_shard, self.campaign, shard, window_stop, number
                    )
                    for number, shard in enumerate(shards)
                ]
                return self._drain(futures)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
        import multiprocessing

        global _FORK_CAMPAIGN
        context = multiprocessing.get_context("fork")
        _FORK_CAMPAIGN = self.campaign
        try:
            pool = ProcessPoolExecutor(
                max_workers=len(shards), mp_context=context
            )
            try:
                futures = [
                    pool.submit(_forked_shard, shard, window_stop, number)
                    for number, shard in enumerate(shards)
                ]
                return self._drain(futures)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
        finally:
            # Clear even when submission itself raises — a dangling
            # campaign here would pin the whole platform in memory and
            # leak into the next collection's forks.
            _FORK_CAMPAIGN = None

    @staticmethod
    def _drain(futures):
        """Collect shard outcomes in shard order, failing fast.

        Shards are contiguous in canonical order, so once shard ``k``
        reports a terminal failure every record a *later* shard would
        return lies past the failure index and is discarded by the
        prefix-consistent merge anyway — cancel those siblings instead of
        waiting for them.  Shards before ``k`` still complete (their
        records are the prefix).  A cancelled shard simply yields no
        outcome.
        """
        index_of = {future: number for number, future in enumerate(futures)}
        outcomes: Dict[int, object] = {}
        cutoff = len(futures)
        pending = set(futures)
        while pending:
            done, pending = futures_wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                if future.cancelled():
                    continue
                number = index_of[future]
                outcome = future.result()
                outcomes[number] = outcome
                if outcome[2] is not None and number < cutoff:
                    cutoff = number
                    for later, later_number in index_of.items():
                        if later_number > cutoff:
                            later.cancel()
            # Stop waiting on shards past the cutoff outright — cancel
            # only reaches futures the pool has not started yet.
            pending = {f for f in pending if index_of[f] <= cutoff}
        return [outcomes[n] for n in sorted(outcomes) if n <= cutoff]


#: Exit codes a direct-to-store worker dies with under injected chaos.
#: Distinct from any real Python exit so the parent can tell a scheduled
#: casualty from an actual bug (which sends an ``("error", …)`` payload).
DIRECT_CRASH_EXIT = 86
DIRECT_HANG_EXIT = 87


def _direct_range_worker(
    conn,
    campaign: Campaign,
    entries: Sequence[Tuple[int, int, int, int]],
    row_start: int,
    window_stop: int,
    store_path,
    rows_per_shard: int,
    fs,
    worker_index: int,
    chaos,
    deadline_s: float,
) -> None:
    """Forked worker body: synthesize one row range straight into shards.

    The shared-nothing hot loop — no pickled sample buffers, no parent
    merge.  Each window comes from :meth:`Campaign._fetch_measurement`,
    the fetch every collector uses, and its columns go straight into a
    :class:`~repro.store.writer.ShardRangeWriter` that cuts full interior
    shards under their final global names; only the manifest fragment
    (shard metadata + boundary partials) and per-worker stats return over
    the pipe.  Chaos deaths exit abruptly via :func:`os._exit` — no
    cleanup, exactly like a real crash — leaving partially-written chunks
    for the respawn to overwrite idempotently (same bytes, atomic
    rename).
    """
    import resource
    import time

    from repro.store.writer import ShardRangeWriter

    try:
        started = time.perf_counter()
        transport = campaign.transport.worker_clone()
        obs = transport.obs
        writer = ShardRangeWriter(
            store_path,
            row_start=row_start,
            rows_per_shard=rows_per_shard,
            obs=obs,
            fs=fs,
            durable=True,
        )
        hangs_recovered = 0
        with obs.span(
            "campaign.direct_range",
            worker=worker_index,
            measurements=len(entries),
            row_start=row_start,
        ):
            for index, msm_id, fetch_from, attempt in entries:
                vm = campaign.platform.fleet[index]
                if chaos is not None:
                    fate = chaos.decide(msm_id, fetch_from, window_stop, attempt)
                    if fate == "crash":
                        os._exit(DIRECT_CRASH_EXIT)
                    if fate == "hang":
                        hang_s = chaos.profile.hang_duration_s
                        transport.clock.sleep(hang_s)
                        if hang_s >= deadline_s:
                            os._exit(DIRECT_HANG_EXIT)
                        hangs_recovered += 1
                        obs.inc("supervisor_hangs_recovered_total")
                record = campaign._fetch_measurement(
                    transport, index, msm_id, vm, fetch_from, window_stop
                )
                writer.append_batch(
                    record.probe_ids,
                    index,
                    record.timestamps,
                    record.rtt_min,
                    record.rtt_avg,
                    record.sent,
                    record.rcvd,
                )
        fragment = writer.finish()
        wall_s = time.perf_counter() - started
        proc_stats = {
            "worker": worker_index,
            "pid": os.getpid(),
            "rows": fragment.rows,
            "bytes_written": fragment.bytes_written,
            "interior_shards": len(fragment.shards),
            "wall_s": round(wall_s, 4),
            "rows_per_s": round(fragment.rows / wall_s) if wall_s > 0 else 0,
            "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "hangs_recovered": hangs_recovered,
        }
        payload = ("ok", fragment, transport.stats(), obs.export(), proc_stats)
    except BaseException as exc:  # noqa: BLE001 — must cross the process boundary
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
        conn.close()
        os._exit(1)
    conn.send(payload)
    conn.close()
    os._exit(0)


class DirectStoreCollector:
    """Shared-nothing multiprocess collection straight into a store.

    The parent plans contiguous row ranges (:func:`plan_row_shards`) from
    exact precomputed window row counts
    (:meth:`~repro.atlas.api.transport.Transport.results_count`), forks
    one worker per range, and afterwards only *stitches*: workers stream
    full interior shards to disk themselves and hand back boundary
    partials small enough for a pipe.  The committed manifest is
    byte-identical to a serial write because the shard layout is a pure
    function of the row stream and every worker knows its global row
    offset.

    **Failure is all-or-nothing.**  The manifest is the commit point: a
    worker or parent death at any moment leaves an uncommitted directory
    (invisible to readers, swept eagerly here and by gc).  Worker chaos
    (``worker_faults``) is decided per window-and-attempt exactly like
    :class:`~repro.core.supervisor.Supervisor` — the parent replays the
    same seeded schedule to identify the casualty from its exit code,
    respawns the range with the fatal window's attempt bumped, and past
    ``max_attempts`` quarantines it: the store is *never* committed
    degraded, and the dataset falls back to an in-process collection of
    the surviving windows.
    """

    def __init__(
        self,
        campaign: Campaign,
        catalog,
        workers=None,
        worker_faults=None,
        deadline_s: float = None,
        max_attempts: int = None,
        worker_timeout_s: float = 600.0,
    ):
        import repro.core.supervisor as supervisor_module

        self.campaign = campaign
        self.catalog = catalog
        self.workers = resolve_workers("auto" if workers is None else workers)
        # Resolve the chaos policy through a Supervisor so the two
        # collection paths can never disagree on deadlines, attempt
        # budgets, or the seeded fault schedule.
        policy = supervisor_module.Supervisor(
            campaign,
            workers=self.workers,
            worker_faults="steady" if worker_faults is None else worker_faults,
        )
        self.deadline_s = (
            policy.deadline_s if deadline_s is None else float(deadline_s)
        )
        self.max_attempts = (
            policy.max_attempts if max_attempts is None else int(max_attempts)
        )
        self.worker_timeout_s = float(worker_timeout_s)
        self.chaos = None
        if worker_faults is not None and not policy.chaos.profile.is_noop:
            self.chaos = policy.chaos

    def collect(self) -> CampaignDataset:
        """Run the full campaign window direct-to-store; return the dataset.

        On success the dataset is re-opened from the committed store
        (verified, zero-copy) — the parent never materializes the samples
        it did not itself stitch.
        """
        import multiprocessing

        from repro.core.supervisor import SupervisionReport
        from repro.store.catalog import campaign_fingerprint, campaign_provenance
        from repro.store.writer import assemble_direct_store

        campaign = self.campaign
        catalog = self.catalog
        window_start, window_stop = campaign.start_time, campaign.stop_time
        pending = campaign._pending(window_start, window_stop, None)
        counts: List[int] = []
        for _, msm_id, fetch_from in pending:
            count = campaign.transport.results_count(
                msm_id, start=fetch_from, stop=window_stop
            )
            if count is None:
                raise CampaignError(
                    f"direct store path needs precomputable row counts; "
                    f"measurement {msm_id} has no columnar path"
                )
            counts.append(count)
        plan = plan_row_shards(counts, self.workers, catalog.rows_per_shard)
        provenance = campaign_provenance(campaign)
        fingerprint = campaign_fingerprint(provenance)
        path = catalog.path_for(fingerprint)
        catalog.root.mkdir(parents=True, exist_ok=True)
        report = None
        if self.chaos is not None:
            report = SupervisionReport(
                profile=self.chaos.profile.name,
                workers=len(plan),
                deadline_s=self.deadline_s,
                max_attempts=self.max_attempts,
                windows=len(pending),
            )
        campaign.worker_process_stats = []
        # Per-range work lists carry a per-window attempt counter, bumped
        # only for the window the chaos schedule actually killed.
        ranges = [
            [(i, m, f, 0) for i, m, f in pending[shard.entries[0]:shard.entries[1]]]
            for shard in plan
        ]
        fragments: List[Optional[object]] = [None] * len(plan)
        stats: List[Optional[tuple]] = [None] * len(plan)
        context = multiprocessing.get_context("fork")
        live: Dict[int, tuple] = {}

        def spawn(rid: int) -> None:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_direct_range_worker,
                args=(
                    sender,
                    campaign,
                    ranges[rid],
                    plan[rid].row_start,
                    window_stop,
                    path,
                    catalog.rows_per_shard,
                    catalog.fs,
                    rid,
                    self.chaos,
                    self.deadline_s,
                ),
            )
            process.start()
            sender.close()
            live[rid] = (process, receiver)

        degraded = False
        with campaign.obs.span(
            "campaign.collect",
            workers=len(plan),
            executor="process",
            direct=True,
            measurements=len(pending),
        ):
            try:
                for rid in range(len(plan)):
                    spawn(rid)
                rid = 0
                while rid < len(plan) and not degraded:
                    process, receiver = live.pop(rid)
                    payload = None
                    timed_out = False
                    try:
                        if receiver.poll(self.worker_timeout_s):
                            payload = receiver.recv()
                        else:
                            timed_out = True
                            process.terminate()
                    except EOFError:
                        payload = None
                    process.join()
                    receiver.close()
                    if payload is not None and payload[0] == "ok":
                        _, fragment, tstats, obs_export, proc_stats = payload
                        fragments[rid] = fragment
                        stats[rid] = (tstats, obs_export, proc_stats)
                        rid += 1
                        continue
                    if payload is not None and payload[0] == "error":
                        raise CampaignError(
                            f"direct worker {rid} failed: {payload[1]}"
                        )
                    if timed_out:
                        raise CampaignError(
                            f"direct worker {rid} produced nothing within "
                            f"{self.worker_timeout_s:.0f}s; terminated"
                        )
                    degraded = self._handle_death(
                        rid, process.exitcode, ranges[rid], window_stop, report
                    )
                    if not degraded:
                        report.respawns += 1
                        campaign.obs.inc("supervisor_respawns_total")
                        spawn(rid)
            except BaseException:
                self._abort(live, path)
                raise
            if degraded:
                self._abort(live, path)
                campaign.supervision = report
                campaign.obs.event(
                    "supervisor.degraded",
                    quarantined=len(report.quarantined),
                    collected=report.windows - len(report.quarantined),
                )
                _log.warning(
                    "degraded direct collection: store NOT committed "
                    "(%d windows quarantined)",
                    len(report.quarantined),
                )
                return self._degraded_dataset(pending, window_stop, report)
            # All ranges landed: merge worker stats in shard order, then
            # stitch the boundary shards and commit.
            for tstats, obs_export, proc_stats in stats:
                campaign._worker_transport_stats.append(tstats)
                campaign.obs.merge(obs_export)
                campaign.worker_process_stats.append(proc_stats)
                if report is not None:
                    report.hangs_recovered += proc_stats["hangs_recovered"]
            manifest = assemble_direct_store(
                path,
                [fragment for fragment in fragments if fragment is not None],
                provenance=provenance,
                rows_per_shard=catalog.rows_per_shard,
                obs=campaign.obs,
                fs=catalog.fs,
                durable=True,
            )
        campaign.collection_stats.measurements_collected += len(pending)
        campaign.collection_stats.samples_appended += manifest.rows
        if report is not None:
            report.collected = len(pending)
            campaign.supervision = report
        _log.info(
            "store committed (direct): %s (%d rows, %d workers)",
            path, manifest.rows, len(plan),
        )
        reader = catalog.open(fingerprint, obs=campaign.obs)
        return reader.dataset(
            campaign.platform.probes, campaign.platform.fleet, obs=campaign.obs
        )

    def _handle_death(
        self, rid: int, exitcode, entries, window_stop: int, report
    ) -> bool:
        """Account one worker casualty; returns True when it quarantines.

        The worker died without a payload, so the parent *replays* the
        deterministic chaos schedule over the range to locate the fatal
        window — the same ``(msm_id, window, attempt)``-keyed draw the
        worker made — and cross-checks the exit code against the expected
        fate.  A mismatch means a real bug, not scheduled chaos, and
        raises.
        """
        campaign = self.campaign
        position, kind = self._expected_fate(entries, window_stop)
        expected_exit = {
            "crash": DIRECT_CRASH_EXIT, "hung": DIRECT_HANG_EXIT
        }.get(kind)
        if position is None or exitcode != expected_exit:
            raise CampaignError(
                f"direct worker {rid} died unexpectedly (exit {exitcode}, "
                f"expected fate {kind or 'none'})"
            )
        if kind == "crash":
            report.crashes += 1
            campaign.obs.inc("supervisor_crashes_total")
        else:
            report.hangs += 1
            campaign.obs.inc("supervisor_hangs_total")
        index, msm_id, fetch_from, attempt = entries[position]
        _log.warning(
            "direct worker %d died (%s) at measurement %d, attempt %d",
            rid, kind, msm_id, attempt + 1,
        )
        if attempt + 1 >= self.max_attempts:
            target = campaign.platform.fleet[index].key
            report.quarantined.append((msm_id, target))
            campaign.obs.inc("supervisor_quarantined_total")
            _log.warning(
                "window quarantined after %d attempts: measurement %d (%s)",
                attempt + 1, msm_id, target,
            )
            return True
        entries[position] = (index, msm_id, fetch_from, attempt + 1)
        return False

    def _expected_fate(self, entries, window_stop: int):
        """First scheduled death in a range: ``(position, kind)`` or Nones."""
        if self.chaos is None:
            return None, None
        for position, (_, msm_id, fetch_from, attempt) in enumerate(entries):
            fate = self.chaos.decide(msm_id, fetch_from, window_stop, attempt)
            if fate == "crash":
                return position, "crash"
            if (
                fate == "hang"
                and self.chaos.profile.hang_duration_s >= self.deadline_s
            ):
                return position, "hung"
        return None, None

    def _abort(self, live: Dict[int, tuple], path) -> None:
        """Kill surviving workers and sweep the uncommitted directory.

        Never touches a committed store: if a manifest exists the
        directory is someone's live data, not this collection's debris.
        """
        import shutil

        from repro.store.format import is_store_dir

        for process, receiver in live.values():
            process.terminate()
            process.join()
            receiver.close()
        live.clear()
        if not is_store_dir(path):
            shutil.rmtree(path, ignore_errors=True)

    def _degraded_dataset(
        self, pending, window_stop: int, report
    ) -> CampaignDataset:
        """In-process fallback dataset for a degraded direct collection.

        The store was discarded, but the wire is clean (direct mode only
        runs without transport chaos), so the surviving windows are
        re-synthesized serially through the same window fetch — the same
        bytes the workers wrote, minus the quarantined windows, matching
        the supervised record path's degraded contract.
        """
        campaign = self.campaign
        quarantined = {msm_id for msm_id, _ in report.quarantined}
        dataset = CampaignDataset(
            campaign.platform.probes, campaign.platform.fleet, obs=campaign.obs
        )
        for index, msm_id, fetch_from in pending:
            if msm_id in quarantined:
                continue
            vm = campaign.platform.fleet[index]
            record = campaign._fetch_measurement(
                campaign.transport, index, msm_id, vm, fetch_from, window_stop
            )
            campaign._merge_record(dataset, record, None, window_stop)
        dataset.freeze()
        report.collected = report.windows - len(quarantined)
        return dataset

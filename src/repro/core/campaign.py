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
import itertools
import json
import logging
import os
import threading
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
from repro.errors import CampaignError
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


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    exposes one (taskset and cpusets shrink it below :func:`os.cpu_count`,
    which counts every CPU of the machine)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers) -> int:
    """Resolve a worker-count spec to a concrete positive integer.

    ``None`` and ``1`` mean serial; ``"auto"`` sizes to the CPUs this
    process may use (capped — collection ranges are coarse, so more than
    8 workers mostly buys merge overhead); any other value must be a
    positive integer.
    """
    if workers is None:
        return 1
    if workers == "auto":
        return max(1, min(8, usable_cpus()))
    count = int(workers)
    if count < 1:
        raise CampaignError(f"workers must be positive: {workers!r}")
    return count


@dataclass(frozen=True)
class RowShard:
    """One range of a collection plan: what one worker walks.

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
    :meth:`~repro.atlas.api.transport.Transport.results_count`), or ``1``
    for every window when row counts are unknown, which balances the
    slices by window count instead.  Cuts
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
        #: Fault/retry accounting of forked range workers' transports,
        #: folded into :meth:`transport_stats`.
        self._worker_transport_stats: List[Dict[str, object]] = []
        #: Per-range *process* metrics of the most recent collection —
        #: sink, rows, bytes written, wall-clock rows/s, peak RSS — in the
        #: order ranges were received.  Wall-clock numbers live here,
        #: out-of-band, precisely so the deterministic obs snapshot stays
        #: byte-stable.
        self.worker_process_stats: List[Dict[str, object]] = []
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
    ) -> CampaignDataset:
        """Fetch and parse results into a dataset.

        ``start``/``stop`` bound the collection window (Unix seconds),
        supporting the paper's mode of operation — "our measurements are
        ongoing" — where analysis runs on the data gathered so far.
        Omitted bounds default to the campaign's own window.

        Pass the ``checkpoint`` and partial ``dataset`` carried by a
        :class:`~repro.errors.CollectionInterruptedError` to resume an
        interrupted collection without duplicating samples.

        ``workers`` (an int, ``"auto"``, or ``None`` for serial) splits the
        window into that many ranges, each walked by its own forked
        worker (:class:`~repro.core.supervisor.Supervisor`); the frozen
        dataset is byte-identical to a serial run either way.

        ``store`` (a directory path or
        :class:`~repro.store.CampaignCatalog`) makes the collection
        collect-once/analyze-many: when the catalog already holds a
        committed store for this campaign's fingerprint, the dataset is
        re-opened from it (verified, zero-copy) without touching the
        platform; otherwise the collection runs normally and commits a
        new store only when the whole window landed.

        ``worker_faults`` (a :class:`~repro.atlas.faults.WorkerFaultProfile`
        or its name) injects seeded worker crashes and hangs on the
        simulated clock: a watchdog reaps them, their windows are
        requeued, and a degraded completion is reported instead of
        raised.
        """
        if store is not None:
            return self._collect_stored(
                store, workers=workers, worker_faults=worker_faults
            )
        if not self.measurement_ids:
            raise CampaignError("create_measurements() must run first")
        if dataset is None:
            dataset = CampaignDataset(
                self.platform.probes, self.platform.fleet, obs=self.obs
            )
        self.collect_into(
            dataset, start=start, stop=stop, checkpoint=checkpoint,
            workers=workers, worker_faults=worker_faults,
        )
        dataset.freeze()
        return dataset

    def _collect_stored(
        self, store, workers=None, worker_faults=None
    ) -> CampaignDataset:
        """Store-backed collection: cache hit or collect-and-commit.

        Full-window collections only — the fingerprint names the whole
        campaign, so partial windows, resumes, and pre-seeded datasets
        take the plain :meth:`collect` path and persist with
        :meth:`~repro.core.dataset.CampaignDataset.save` afterwards.

        When :meth:`~repro.atlas.api.transport.Transport.results_count`
        knows every pending window's rows — a clean wire — and no window
        is doomed by the chaos schedule
        (:meth:`~repro.core.supervisor.Supervisor.quarantines`), the
        ranges write shards themselves (:class:`DirectStoreCollector`).
        Otherwise the frozen dataset is written once
        (:func:`~repro.store.writer.write_dataset`), or not at all after
        a quarantine.  Both sinks commit identical bytes.
        """
        import repro.core.supervisor as supervisor_module
        from repro.store import (
            CampaignCatalog,
            campaign_fingerprint,
            campaign_provenance,
            write_dataset,
        )

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
        pending = self._pending(self.start_time, self.stop_time, None)
        supervisor = supervisor_module.Supervisor(
            self, workers=workers, worker_faults=worker_faults
        )
        if not supervisor.quarantines(pending, self.stop_time):
            count = self.transport.results_count
            counts = [count(m, start=f, stop=self.stop_time) for _, m, f in pending]
            if None not in counts:
                return DirectStoreCollector(self, catalog, supervisor).collect(
                    pending, counts
                )
        dataset = self.collect(workers=workers, worker_faults=worker_faults)
        if self.supervision is not None and self.supervision.degraded:
            # A degraded window is not this fingerprint's dataset:
            # committing it would poison every future cache hit.
            return dataset
        provenance = campaign_provenance(self)
        path = catalog.path_for(campaign_fingerprint(provenance))
        write_dataset(
            dataset, path, provenance=provenance,
            rows_per_shard=catalog.rows_per_shard, obs=self.obs, fs=catalog.fs,
        )
        _log.info(
            "store committed: %s (%d rows, provenance %s)",
            path, len(dataset), provenance,
        )
        return dataset

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
    ) -> None:
        """Append one collection window into an existing (unfrozen) dataset.

        Without a checkpoint, windows must not overlap across calls or
        samples will duplicate — the platform regenerates results
        deterministically per window.  With one, each measurement's
        high-water mark guards against exactly that: re-collecting an
        already-covered window is a no-op.

        Hardened for chaos collection: samples land only once a whole
        window arrived, so an interruption (a
        :class:`~repro.errors.CollectionInterruptedError` carrying the
        checkpoint, partial dataset, and failing measurement id) never
        leaves a half-collected measurement behind.

        Runs the one collection loop (record sink), looked up at call
        time: :meth:`repro.core.supervisor.Supervisor.collect_into`.
        """
        import repro.core.supervisor as supervisor_module

        supervisor_module.Supervisor(
            self, workers=workers, worker_faults=worker_faults
        ).collect_into(dataset, start=start, stop=stop, checkpoint=checkpoint)

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

        The one unit of work of the collection loop — every range, in
        either sink — and of store repair; raises
        :class:`~repro.errors.TransportError` when the transport gives
        out terminally.  Touches no campaign state beyond read-only
        platform data and the passed-in transport.

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
        back in range order), one span and one path counter per window —
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
        any forked range worker's transport clone.

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

    def run(self, workers=None, store=None, worker_faults=None) -> CampaignDataset:
        """Create measurements and collect everything.

        With ``store`` a cache hit skips measurement creation entirely —
        the store already holds the campaign's full frozen dataset.
        """
        if store is None:
            self.create_measurements()
        return self.collect(
            workers=workers, store=store, worker_faults=worker_faults
        )

    # -- reporting convenience ---------------------------------------------------

    def headline_report(self, dataset: CampaignDataset):
        """Shortcut to :func:`repro.core.report.headline_report`."""
        from repro.core.report import headline_report

        return headline_report(dataset)


class DirectStoreCollector:
    """Store-backed collection through the shard sink.

    Used when the transport knows every pending window's exact row count
    (a clean wire).  The ranges are planned by rows and stream their
    windows straight into store shards at their global row offsets
    (:class:`~repro.core.supervisor.ShardSink`); the parent only
    stitches the boundary partials and commits — byte-identical to a
    one-pass write, because the shard layout is a pure function of the
    row stream — and re-opens the dataset from the committed store.

    **A degraded run never commits.**  The manifest is the commit point:
    a failure leaves an uncommitted directory, swept eagerly here and by
    gc.  A run the chaos schedule would degrade never gets here; it takes
    the record sink, exactly as a store-less run does.
    """

    def __init__(self, campaign: Campaign, catalog, supervisor):
        self.campaign = campaign
        self.catalog = catalog
        self.supervisor = supervisor

    def collect(self, pending, counts: Sequence[int]) -> CampaignDataset:
        """Collect ``pending`` (with their exact row ``counts``), commit,
        and return the dataset."""
        from repro.core.supervisor import ShardSink
        from repro.store.catalog import campaign_fingerprint, campaign_provenance
        from repro.store.writer import assemble_direct_store

        campaign, catalog, supervisor = self.campaign, self.catalog, self.supervisor
        window_stop = campaign.stop_time
        provenance = campaign_provenance(campaign)
        fingerprint = campaign_fingerprint(provenance)
        catalog.root.mkdir(parents=True, exist_ok=True)
        starts = itertools.accumulate(counts, initial=0)
        offsets = {index: start for (index, _, _), start in zip(pending, starts)}
        sink = ShardSink(
            catalog.path_for(fingerprint), catalog.rows_per_shard, catalog.fs, offsets
        )
        with campaign.obs.span(
            "store.write", path=str(sink.path), fingerprint=fingerprint
        ):
            fragments, failure = supervisor.run(pending, window_stop, counts, sink)
            report = supervisor.report
            if failure is not None or (report is not None and report.degraded):
                # A clean wire loses windows only to the chaos quarantines()
                # foresaw, so this guards the commit rather than a real run.
                sink.discard()
                raise CampaignError("shard sink lost a window; nothing committed")
            manifest = assemble_direct_store(
                sink.path,
                fragments,
                provenance=provenance,
                rows_per_shard=catalog.rows_per_shard,
                obs=campaign.obs,
                fs=catalog.fs,
                durable=True,
            )
        campaign.collection_stats.measurements_collected += len(pending)
        campaign.collection_stats.samples_appended += manifest.rows
        _log.info(
            "store committed (direct): %s (%d rows, %d workers)",
            sink.path, manifest.rows, supervisor.workers,
        )
        reader = catalog.open(fingerprint, obs=campaign.obs)
        return reader.dataset(
            campaign.platform.probes, campaign.platform.fleet, obs=campaign.obs
        )

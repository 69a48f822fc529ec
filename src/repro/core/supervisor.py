"""The collection loop: planned window ranges under one supervision policy.

Every collection — serial or parallel, into memory or straight into a
store, with or without injected worker chaos — runs through one
:class:`Supervisor`.  It cuts the pending measurement windows into
contiguous ranges (:func:`~repro.core.campaign.plan_row_shards`, balanced
by exact row counts when the transport knows them, by window count
otherwise) and walks each range in canonical order: as one in-process
range on the campaign's own transport with one worker (or without
:func:`os.fork`), otherwise in a forked worker per range that reports
back over a pipe.  The *record sink* returns one
:class:`~repro.core.campaign.MeasurementRecord` per window, merged into
the dataset in fleet order; the *shard sink* (:class:`ShardSink`) streams
each window into store shards and returns only the manifest fragment.

**One failure policy for every range.**  A seeded :class:`WorkerChaos`
kills or wedges a range's worker *before* a window's fetch; a watchdog
deadline on the simulated clock reaps hangs that outlast it.  A death
hands back the windows finished so far; only the fatal window is requeued
(its attempt bumped, quarantined past ``max_attempts``), together with
the untouched rest of the range, as a new range.  With worker chaos a
terminal :class:`~repro.errors.TransportError` is one more death; without
it the run stops there and :meth:`Supervisor.collect_into` raises a
prefix-consistent :class:`~repro.errors.CollectionInterruptedError`.

**Determinism is the whole design.**  A chaos decision is drawn from
:func:`repro.net.rng.stream` keyed by ``(seed, "worker-chaos", msm_id,
window, attempt)`` — keyed by the *measurement window*, not the worker
or range, so the same windows die under every worker count; keyed by the
*respawn attempt*, so a respawned range re-rolls instead of dying at the
same spot forever.  Combined with the transport's scoped fault
schedules, a supervised collection that eventually completes every
window produces a dataset byte-identical to an unsupervised run.

Quarantined windows are not fatal: collection completes in **degraded
mode**, the checkpoint never advances past them (a later resume
re-attempts them), and the gap is surfaced through
:class:`SupervisionReport` / :func:`repro.core.completeness.health_report`
instead of an exception.  A degraded run never commits a store — a
partial dataset must never become a fingerprint's cached truth.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
from collections import deque
# Unused here: perfbench/tests/test_spans.py patches and restores it.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.campaign import plan_row_shards, resolve_workers
from repro.errors import (
    CampaignError,
    CollectionInterruptedError,
    TransportError,
    WorkerCrashError,
    WorkerHungError,
)
from repro.net.rng import stream

_log = logging.getLogger("repro.supervisor")

#: Simulated seconds a range may spend on one window before the watchdog
#: reaps its worker.  Sized between a slow-but-live fetch (retry backoff
#: rarely accumulates more than ~2 minutes per window) and the injected
#: hang durations (10+ minutes), so hangs are reaped and mere slowness
#: is not.
DEFAULT_DEADLINE_S = 300.0

#: Attempts (1 initial + respawns) a window gets before quarantine.
DEFAULT_MAX_ATTEMPTS = 4

#: Wall-clock seconds the parent waits for a forked range's payload
#: before it terminates the worker and fails the collection.
WORKER_TIMEOUT_S = 600.0

#: A pending window as the loop tracks it: ``(index, msm_id, fetch_from, attempt)``.
Entry = Tuple[int, int, int, int]


class WorkerChaos:
    """Seeded per-window worker-fault decisions (crash / hang / none)."""

    def __init__(self, seed: int, profile):
        from repro.atlas.faults import get_worker_profile

        self.seed = int(seed)
        self.profile = get_worker_profile(profile)

    def decide(
        self, msm_id: int, fetch_from: int, stop: int, attempt: int
    ) -> Optional[str]:
        """The fault (if any) hitting this window's ``attempt``-th try."""
        profile = self.profile
        if profile.is_noop:
            return None
        rng = stream(
            self.seed, "worker-chaos", msm_id, fetch_from, stop, attempt
        )
        draw = float(rng.random())
        if draw < profile.crash:
            return "crash"
        if draw < profile.crash + profile.hang:
            return "hang"
        return None


@dataclass
class SupervisionReport:
    """What a supervised collection survived (and what it gave up on)."""

    profile: str
    workers: int
    deadline_s: float
    max_attempts: int
    windows: int = 0
    collected: int = 0
    crashes: int = 0
    hangs: int = 0
    hangs_recovered: int = 0
    #: Ranges started again: one per death that left windows to collect.
    respawns: int = 0
    #: ``(msm_id, target_key)`` abandoned past ``max_attempts``, fleet order.
    quarantined: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined)

    def as_dict(self) -> Dict[str, object]:
        out = {key: value for key, value in vars(self).items() if key != "quarantined"}
        out["degraded"] = self.degraded
        out["quarantined"] = [
            {"msm_id": msm_id, "target": target} for msm_id, target in self.quarantined
        ]
        return out


@dataclass
class ShardSink:
    """Where shard-sink ranges write: one uncommitted store directory.

    ``offsets`` maps a window's fleet index to its first row in the
    global row stream, so a range — or the requeued rest of a dead one —
    starts its :class:`~repro.store.writer.ShardRangeWriter` exactly
    where a single-pass writer would be, and interior shards land under
    their final global names.
    """

    path: object
    rows_per_shard: int
    fs: object
    offsets: Dict[int, int]

    def writer(self, first_index: int, obs):
        from repro.store.writer import ShardRangeWriter

        return ShardRangeWriter(
            self.path,
            row_start=self.offsets[first_index],
            rows_per_shard=self.rows_per_shard,
            obs=obs,
            fs=self.fs,
            durable=True,
        )

    def discard(self) -> None:
        """Sweep the uncommitted directory.

        Never touches a committed store: if a manifest exists the
        directory is someone's live data, not this collection's debris.
        """
        import shutil

        from repro.store.format import is_store_dir

        if not is_store_dir(self.path):
            shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class RangeOutcome:
    """What one walk of a range produced, in-process or over the pipe."""

    #: The finished windows' ``MeasurementRecord`` list (record sink) or
    #: their ``ShardRange`` fragment (shard sink).
    output: object
    #: Windows finished — on a death, the position of the fatal window.
    done: int
    #: ``(kind, detail)`` of the death — ``"crash"``, ``"hung"`` or
    #: ``"transport"`` — or ``None`` when the range ran to its end.
    death: Optional[Tuple[str, str]]
    #: Process metrics (wall-clock ones off the determinism surface).
    process: Dict[str, object]


class Supervisor:
    """The one collection loop: planned ranges under one failure policy.

    ``worker_faults`` (a :class:`~repro.atlas.faults.WorkerFaultProfile`
    or its name; ``None`` or ``"steady"`` for none) turns on seeded
    worker chaos and with it the :class:`SupervisionReport`, which lands
    on ``campaign.supervision``.  Each forked range works on a fresh
    :meth:`~repro.atlas.api.transport.Transport.worker_clone`; its
    transport stats and obs export merge back in the order ranges are
    received — planned ranges first, in canonical order, then respawns —
    which keeps the merged snapshot deterministic at a fixed worker
    count.
    """

    def __init__(
        self,
        campaign,
        workers=None,
        worker_faults=None,
        deadline_s: float = DEFAULT_DEADLINE_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        self.campaign = campaign
        self.workers = resolve_workers(workers)
        self.chaos = WorkerChaos(campaign.platform.seed, worker_faults or "steady")
        self.deadline_s = float(deadline_s)
        self.max_attempts = int(max_attempts)
        #: One range runs in this process, on ``campaign.transport``
        #: itself, so a serial run's retry budget and breaker state carry
        #: across calls; otherwise every range gets a forked worker.
        self.inline = self.workers == 1 or not hasattr(os, "fork")
        self.report: Optional[SupervisionReport] = None

    def collect_into(
        self, dataset, start=None, stop=None, checkpoint=None
    ) -> Optional[SupervisionReport]:
        """Record sink: collect one window into an (unfrozen) dataset.

        Records merge in canonical fleet order — an in-process range's as
        they land, forked ranges' once every range is in — and the
        checkpoint advances per merged window, so the dataset and
        checkpoint are byte-identical to a one-range run at any worker
        count.  A terminal transport failure without worker chaos
        merges only the windows before it and raises
        :class:`~repro.errors.CollectionInterruptedError` carrying the
        checkpoint, the partial dataset and the failing measurement —
        exactly the state a one-range run leaves, which a resume
        continues.  Returns the :class:`SupervisionReport` (``None``
        without worker chaos).
        """
        campaign = self.campaign
        window_start = campaign.start_time if start is None else int(start)
        window_stop = campaign.stop_time if stop is None else int(stop)
        pending = campaign._pending(window_start, window_stop, checkpoint)
        skipped = len(campaign.measurement_ids) - len(pending)
        if skipped:
            campaign.obs.event("campaign.resume_skip", measurements=skipped)

        def merge(record):
            campaign._merge_record(dataset, record, checkpoint, window_stop)

        outputs, failure = self.run(pending, window_stop, merge=merge)
        records = [record for output in outputs for record in output]
        for record in sorted(records, key=lambda record: record.index):
            merge(record)
        if failure is not None:
            (index, msm_id, _, _), detail = failure
            target = campaign.platform.fleet[index].key
            campaign.collection_stats.interruptions += 1
            campaign.obs.inc("campaign_interruptions_total")
            _log.warning(
                "collection interrupted at measurement %d (%s): %s",
                msm_id, target, detail,
            )
            raise CollectionInterruptedError(
                f"measurement {msm_id} ({target}): {detail}",
                checkpoint=checkpoint,
                dataset=dataset,
                msm_id=msm_id,
            )
        return self.report

    def run(
        self, pending, window_stop: int, counts=None, sink: ShardSink = None,
        merge=None,
    ):
        """Walk ``pending`` as planned ranges until every window landed or
        was quarantined, or a terminal transport failure stopped the run.

        ``counts`` (exact rows per pending window) balance the plan by
        rows; without them every window weighs one.  The in-process range
        hands each record to ``merge`` as it lands, in canonical order, as
        does its respawn.  Returns the range outputs in the order they
        were received and the failure — the fatal entry and its detail —
        or ``None``.  Ranges are received in launch order, so on a failure
        every earlier range is in and the later ones, whose windows lie
        past it, are terminated.  Any exception terminates the live
        workers and sweeps a shard sink's uncommitted directory before it
        propagates.
        """
        campaign = self.campaign
        obs = campaign.obs
        plan = plan_row_shards(
            [1] * len(pending) if counts is None else counts,
            1 if self.inline else self.workers,
            1 if sink is None else sink.rows_per_shard,
        )
        if not self.chaos.profile.is_noop:
            self.report = SupervisionReport(
                profile=self.chaos.profile.name,
                workers=self.workers,
                deadline_s=self.deadline_s,
                max_attempts=self.max_attempts,
                windows=len(pending),
            )
        campaign.worker_process_stats = []
        launched = deque()
        rids = itertools.count()
        outputs: List[object] = []
        failure = None
        with obs.span(
            "campaign.collect", workers=len(plan), measurements=len(pending)
        ):
            try:
                for shard in plan:
                    lo, hi = shard.entries
                    entries = [(i, m, f, 0) for i, m, f in pending[lo:hi]]
                    launched.append(self._launch(next(rids), entries, window_stop, sink))
                while launched:
                    outcome = self._receive(*launched[0], window_stop, sink, merge)
                    _, entries, _ = launched.popleft()
                    outputs.append(outcome.output)
                    campaign.worker_process_stats.append(outcome.process)
                    if self.report is not None:
                        self.report.hangs_recovered += outcome.process["hangs_recovered"]
                    if outcome.death is None:
                        continue
                    if self.report is None:
                        failure = (entries[outcome.done], outcome.death[1])
                        self._abort(launched, sink)
                        break
                    rest = self._requeue(entries, outcome)
                    if rest:
                        self.report.respawns += 1
                        obs.inc("supervisor_respawns_total")
                        launched.append(
                            self._launch(next(rids), rest, window_stop, sink)
                        )
            except BaseException:
                self._abort(launched, sink)
                raise
        report = self.report
        if report is not None:
            report.quarantined.sort()
            report.collected = report.windows - len(report.quarantined)
            campaign.supervision = report
            if report.degraded:
                obs.event(
                    "supervisor.degraded",
                    quarantined=len(report.quarantined), collected=report.collected,
                )
                _log.warning(
                    "degraded collection: %d of %d windows quarantined "
                    "(never committed to a store)",
                    len(report.quarantined), report.windows,
                )
        return outputs, failure

    def quarantines(self, pending, window_stop: int) -> bool:
        """Whether seeded chaos will quarantine a window of ``pending``: all
        its ``max_attempts`` attempts draw a crash or a hang the watchdog
        reaps.  On a clean wire, where no other death exists, this tells
        before any fetch whether a run will end degraded."""
        fatal = {"crash"}
        if self.chaos.profile.hang_duration_s >= self.deadline_s:
            fatal.add("hang")
        return any(
            all(
                self.chaos.decide(msm_id, fetch_from, window_stop, attempt) in fatal
                for attempt in range(self.max_attempts)
            )
            for _, msm_id, fetch_from in pending
        )

    def _requeue(self, entries: List[Entry], outcome: RangeOutcome) -> List[Entry]:
        """Account one death; returns the windows the respawn must walk."""
        report, obs = self.report, self.campaign.obs
        kind, detail = outcome.death
        if kind == "hung":
            report.hangs += 1
            obs.inc("supervisor_hangs_total")
        elif kind == "crash":
            report.crashes += 1
            obs.inc("supervisor_crashes_total")
        else:
            report.crashes += 1
            obs.inc("supervisor_crashes_total", kind="transport")
        _log.warning("worker died (%s): %s", kind, detail)
        index, msm_id, fetch_from, attempt = entries[outcome.done]
        # The untouched rest keeps its attempt counts: the death was the
        # fatal window's, not theirs.
        rest = entries[outcome.done + 1:]
        if attempt + 1 < self.max_attempts:
            return [(index, msm_id, fetch_from, attempt + 1)] + rest
        target = self.campaign.platform.fleet[index].key
        report.quarantined.append((msm_id, target))
        obs.inc("supervisor_quarantined_total")
        _log.warning(
            "window quarantined after %d attempts: measurement %d (%s)",
            attempt + 1, msm_id, target,
        )
        return rest

    # -- where a range runs ---------------------------------------------------

    def _launch(self, rid: int, entries: List[Entry], window_stop: int, sink):
        """Start one range: fork its worker, or defer the in-process walk
        to :meth:`_receive`."""
        if self.inline:
            return rid, entries, None
        import multiprocessing

        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=self._worker, args=(sender, rid, entries, window_stop, sink)
        )
        process.start()
        sender.close()
        return rid, entries, (process, receiver)

    def _receive(
        self, rid: int, entries: List[Entry], handle, window_stop: int, sink,
        merge,
    ) -> RangeOutcome:
        """One range's outcome; a forked worker's payload arrives before
        the worker is joined (a large payload would otherwise block it)."""
        campaign = self.campaign
        if handle is None:
            return self._walk(rid, entries, window_stop, sink, campaign.transport, merge)
        process, receiver = handle
        if not receiver.poll(WORKER_TIMEOUT_S):
            # run() terminates this worker with the rest and sweeps the sink.
            raise CampaignError(
                f"range worker {rid} sent nothing in {WORKER_TIMEOUT_S:.0f} s"
            )
        try:
            payload = receiver.recv()
        except EOFError:
            payload = None
        process.join()
        receiver.close()
        if payload is None:
            raise CampaignError(
                f"range worker {rid} exited (code {process.exitcode}) "
                f"without a payload"
            )
        if payload[0] == "error":
            raise CampaignError(f"range worker {rid} failed: {payload[1]}")
        _, outcome, transport_stats, obs_export = payload
        campaign._worker_transport_stats.append(transport_stats)
        campaign.obs.merge(obs_export)
        return outcome

    def _abort(self, launched, sink: Optional[ShardSink]) -> None:
        """Terminate the ranges still out and sweep a shard sink's
        uncommitted directory."""
        for _, _, handle in launched:
            if handle is not None:
                process, receiver = handle
                process.terminate()
                process.join()
                receiver.close()
        launched.clear()
        if sink is not None:
            sink.discard()

    def _worker(self, conn, rid: int, entries: List[Entry], window_stop: int, sink):
        """Forked worker body: walk one range on a transport clone, send
        the outcome, and leave through :func:`os._exit` — no inherited
        finalizer or atexit handler of the parent runs in the child."""
        try:
            transport = self.campaign.transport.worker_clone()
            with transport.obs.span(
                "campaign.shard", shard=rid, measurements=len(entries)
            ):
                outcome = self._walk(rid, entries, window_stop, sink, transport)
            payload = ("ok", outcome, transport.stats(), transport.obs.export())
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

    def _walk(
        self, rid: int, entries: List[Entry], window_stop: int, sink, transport,
        merge=None,
    ) -> RangeOutcome:
        """One range's life: its windows in canonical order, to the end or
        to a death.

        Chaos strikes *before* a window's fetch, so a respawned attempt
        replays the identical scoped transport schedule and yields the
        identical bytes, and a finished window is never fetched again.
        Each window comes from :meth:`~repro.core.campaign.Campaign.
        _fetch_measurement`, the fetch store repair uses too.
        """
        campaign = self.campaign
        obs = transport.obs
        started = time.perf_counter()
        writer = None if sink is None else sink.writer(entries[0][0], obs)
        records = []
        put = records.append if merge is None else merge
        death = None
        recovered = done = rows = 0
        for index, msm_id, fetch_from, attempt in entries:
            fate = self.chaos.decide(msm_id, fetch_from, window_stop, attempt)
            if fate == "crash":
                death = ("crash", str(WorkerCrashError(rid, msm_id)))
                break
            if fate == "hang":
                hang_s = self.chaos.profile.hang_duration_s
                transport.clock.sleep(hang_s)
                if hang_s >= self.deadline_s:
                    death = (
                        "hung",
                        str(WorkerHungError(rid, msm_id, hang_s, self.deadline_s)),
                    )
                    break
            try:
                record = campaign._fetch_measurement(
                    transport, index, msm_id, campaign.platform.fleet[index],
                    fetch_from, window_stop,
                )
            except TransportError as exc:
                death = ("transport", str(exc))
                break
            rows += record.sample_count
            if writer is None:
                put(record)
            else:
                writer.append_batch(
                    record.probe_ids, index, record.timestamps, record.rtt_min,
                    record.rtt_avg, record.sent, record.rcvd,
                )
            if fate == "hang":
                # Slow but under the deadline: the watchdog let it live.
                recovered += 1
                obs.inc("supervisor_hangs_recovered_total")
            done += 1
        output = records if writer is None else writer.finish()
        wall_s = time.perf_counter() - started
        try:
            import resource

            max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        except ImportError:  # POSIX only; fork-less platforms may lack it
            max_rss_kb = None
        process = {
            "worker": rid,
            "pid": os.getpid(),
            "sink": "record" if writer is None else "shard",
            "rows": rows,
            "bytes_written": 0 if writer is None else output.bytes_written,
            "wall_s": round(wall_s, 4),
            "rows_per_s": round(rows / wall_s) if wall_s > 0 else 0,
            "max_rss_kb": max_rss_kb,
            "hangs_recovered": recovered,
        }
        return RangeOutcome(output, done, death, process)

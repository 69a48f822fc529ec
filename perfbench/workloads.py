"""The three batch workloads: set-up, one timed job, and its checks.

Each workload is a closed loop driven from one process: the next job
starts only after the previous one finished.  Program functions are
looked up through their modules at call time, so the traced run's
patches apply to them.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.checks import (
    SAMPLE_COLUMNS,
    TARGET_WINDOW,
    Checks,
    check_queries,
    check_report,
    store_checks,
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "ingest" | "analyze"
    scale: str  # a CampaignScale label
    faults: str = "none"  # transport fault profile
    worker_faults: str = "steady"  # worker fault profile; steady = none
    workers: int = 2


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("ingest_clean", "ingest", "medium"),
        Workload("ingest_chaos", "ingest", "tiny", "flaky", "crashy"),
        Workload("analyze_store", "analyze", "medium"),
    )
}


@dataclass
class Job:
    """One timed job: its cost, its operations and its outputs."""

    wall_s: float
    cpu_s: float
    samples: int
    operations: int
    error: Optional[str] = None
    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    store: Optional[Path] = None
    store_bytes: int = 0
    peak_rss_mb: float = 0.0
    outputs: Dict[str, object] = field(default_factory=dict)

    # A job that produced nothing reads 0 on every rate; its checks fail.
    @property
    def samples_per_s(self) -> float:
        return self.samples / self.wall_s if self.samples else 0.0

    @property
    def cpu_s_per_msample(self) -> float:
        return self.cpu_s / (self.samples / 1e6) if self.samples else 0.0

    @property
    def bytes_per_sample(self) -> float:
        return self.store_bytes / self.samples if self.samples else 0.0


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark, so a job's peak excludes the
    checks that ran before it (Linux; elsewhere the mark keeps rising)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(worker_stats=()) -> float:
    """Peak RSS of this process since the last reset, or of any forked
    worker that reported one, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = [stats["max_rss_kb"] for stats in worker_stats]
    return max([own, *workers]) / 1024.0


def counter_totals(obs) -> Dict[str, float]:
    """Each obs counter summed over its labels."""
    totals: Dict[str, float] = defaultdict(float)
    for name, _labels, value in obs.registry.export()["counters"]:
        totals[name] += value
    return totals


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _failure(exc: BaseException) -> str:
    traceback.print_exc()
    return f"{type(exc).__name__}: {exc}"


# -- set-up -------------------------------------------------------------------------


def _scale(workload: Workload):
    from repro.core.campaign import CampaignScale

    return next(scale for scale in CampaignScale if scale.label == workload.scale)


def make_campaign(workload: Workload, seed: int):
    """The campaign as the CLI builds it, with its measurements created."""
    from repro.core.campaign import Campaign
    from repro.obs import Obs

    campaign = Campaign.from_paper(
        scale=_scale(workload), seed=seed, faults=workload.faults, obs=Obs()
    )
    campaign.create_measurements()
    return campaign


def collect(workload: Workload, campaign, catalog_root: Path):
    worker_faults = None if workload.worker_faults == "steady" else workload.worker_faults
    return campaign.collect(
        store=catalog_root, workers=workload.workers, worker_faults=worker_faults
    )


def committed_store(catalog_root: Path) -> Optional[Path]:
    from repro.store import CampaignCatalog

    entries = CampaignCatalog(catalog_root).entries()
    return Path(catalog_root) / entries[0] if len(entries) == 1 else None


def store_rows(path: Path) -> int:
    from repro.store.format import Manifest

    return Manifest.load(path).rows


def store_bytes(path: Path) -> int:
    """Bytes of every file of a committed store."""
    return sum(entry.stat().st_size for entry in Path(path).rglob("*") if entry.is_file())


def clean_reference(workload: Workload, seed: int) -> Dict[str, np.ndarray]:
    """Columns of an untimed, fault-free in-memory collection."""
    from repro.core.campaign import Campaign

    dataset = Campaign.from_paper(scale=_scale(workload), seed=seed).run()
    return {name: np.array(dataset.column(name)) for name in SAMPLE_COLUMNS}


# -- ingest -------------------------------------------------------------------------


def ingest_job(workload: Workload, campaign, catalog_root: Path,
               around=contextlib.nullcontext) -> Job:
    """Collect the whole campaign into a fresh catalog, direct to store."""
    before = counter_totals(campaign.obs)
    error = None
    reset_peak_rss()
    with around():
        cpu0, start = cpu_seconds(), time.perf_counter()
        try:
            collect(workload, campaign, catalog_root)
        except Exception as exc:  # a failed job is a measured outcome
            error = _failure(exc)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
    workers = list(campaign.worker_process_stats)
    peak = peak_rss_mb(workers)
    store = committed_store(catalog_root)
    return Job(
        wall_s=wall,
        cpu_s=cpu,
        samples=store_rows(store) if store is not None else 0,
        operations=len(campaign.measurement_ids),
        error=error,
        counters=_delta(counter_totals(campaign.obs), before),
        store=store,
        store_bytes=store_bytes(store) if store is not None else 0,
        peak_rss_mb=peak,
        outputs={"worker_stats": workers, "supervision": campaign.supervision},
    )


def check_ingest(job: Job, workload: Workload, seed: int, checks: Checks,
                 reference=None) -> int:
    """Run the ingest checks; returns the failed windows."""
    if job.error is not None:
        checks.add("job_completed", False, job.error)
        return job.operations
    if store_checks(checks, job.store, workload.name, seed, reference):
        return 0
    return job.operations


# -- analyze ------------------------------------------------------------------------

#: ``rtt_min`` bounds of the count queries, in ms (the query names carry
#: them, which is how the numpy checks read them back).
RTT_BOUNDS_MS = (20, 100, 250)


def query_window(campaign) -> Tuple[int, int]:
    """The middle tenth of the campaign's time span."""
    span = campaign.stop_time - campaign.start_time
    return (campaign.start_time + 45 * span // 100,
            campaign.start_time + 55 * span // 100)


def queries(scan, window: Tuple[int, int]):
    """The fixed query mix, in order, as ``(name, thunk)`` pairs."""
    finite = scan.filter("rtt_min", ">=", 0.0)
    windowed = scan.filter("timestamp", ">=", window[0]).filter("timestamp", "<", window[1])
    # Rows arrive grouped by target, so every shard spans the whole
    # campaign and zone maps cannot prune a time window; a target window
    # is the one they prune.
    targeted = (scan.filter("target_index", ">=", TARGET_WINDOW[0])
                .filter("target_index", "<", TARGET_WINDOW[1]))
    mix: List[Tuple[str, object]] = [
        (f"count_rtt_min_le_{bound}",
         lambda bound=bound: scan.filter("rtt_min", "<=", float(bound)).count())
        for bound in RTT_BOUNDS_MS
    ]
    mix += [
        ("summary_rtt_min", lambda: finite.summarize("rtt_min")),
        ("summary_rtt_min_cached", lambda: finite.summarize("rtt_min")),
        ("summary_rtt_avg_le_100",
         lambda: scan.filter("rtt_avg", "<=", 100.0).summarize("rtt_avg")),
        ("ecdf_rtt_min", lambda: scan.ecdf("rtt_min")),
        ("p95_rtt_avg_exact", lambda: scan.quantile("rtt_avg", 0.95, exact=True)),
        ("group_by_target", lambda: finite.group_by(
            ["target_index"],
            {"median": ("rtt_min", "median"), "p95": ("rtt_min", "p95"),
             "count": ("rtt_min", "count")},
        )),
        ("window_count", lambda: windowed.count()),
        ("window_summary",
         lambda: windowed.filter("rtt_min", ">=", 0.0).summarize("rtt_min")),
        ("target_window_count", lambda: targeted.count()),
        ("target_window_summary",
         lambda: targeted.filter("rtt_min", ">=", 0.0).summarize("rtt_min")),
    ]
    return mix


QUERY_NAMES = (
    *(f"count_rtt_min_le_{bound}" for bound in RTT_BOUNDS_MS),
    "summary_rtt_min",
    "summary_rtt_min_cached",
    "summary_rtt_avg_le_100",
    "ecdf_rtt_min",
    "p95_rtt_avg_exact",
    "group_by_target",
    "window_count",
    "window_summary",
    "target_window_count",
    "target_window_summary",
)

#: Operations of one analyze job: the report plus each query.
ANALYZE_OPERATIONS = 1 + len(QUERY_NAMES)


def analyze_job(campaign, catalog_root: Path, store: Path, seed: int,
                around=contextlib.nullcontext) -> Job:
    """Render the full report from the store, then run the query mix."""
    import repro.core.paper_report as paper_report
    import repro.store.reader as reader
    from repro.store.catalog import AGGREGATE_CACHE_DIR

    # Every job starts with an empty aggregate cache.
    shutil.rmtree(Path(catalog_root) / AGGREGATE_CACHE_DIR, ignore_errors=True)
    before = counter_totals(campaign.obs)
    answers: Dict[str, object] = {}
    reset_peak_rss()
    with around():
        cpu0, start = cpu_seconds(), time.perf_counter()
        try:
            dataset = reader.open_dataset(store, verify="full", obs=campaign.obs)
            report = paper_report.generate_report(dataset, seed=seed)
        except Exception as exc:  # a failed report is a measured outcome
            report = RuntimeError(_failure(exc))
        report_s = time.perf_counter() - start
        try:
            mix = queries(campaign.scan(catalog_root), query_window(campaign))
        except Exception as exc:  # no scan: every query fails
            failure = RuntimeError(_failure(exc))
            mix, answers = [], {name: failure for name in QUERY_NAMES}
        for name, query in mix:
            try:
                answers[name] = query()
            except Exception as exc:  # a failed query is a measured outcome
                answers[name] = RuntimeError(_failure(exc))
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
    return Job(
        wall_s=wall,
        cpu_s=cpu,
        samples=store_rows(store),
        operations=ANALYZE_OPERATIONS,
        phases={"report_s": report_s, "query_s": wall - report_s},
        counters=_delta(counter_totals(campaign.obs), before),
        store=store,
        store_bytes=store_bytes(store),
        peak_rss_mb=peak_rss_mb(),
        outputs={"report": report, "answers": answers,
                 "window": query_window(campaign)},
    )


def check_analyze(job: Job, seed: int, checks: Checks) -> int:
    """Run the report and query checks; returns the failed operations."""
    from repro.frame.streaming import DEFAULT_COMPRESSION, digest_rank_eps
    from repro.store import StoreReader

    failed = 0
    report = job.outputs["report"]
    if isinstance(report, Exception):
        checks.add("report_rendered", False, str(report))
        failed += 1
    elif not check_report(checks, report, seed):
        failed += 1
    reader = StoreReader(job.store, verify="off")
    columns = {name: np.array(reader.column(name))
               for name in ("rtt_min", "rtt_avg", "timestamp", "target_index")}
    outcome = check_queries(
        checks,
        job.outputs["answers"],
        columns,
        job.outputs["window"],
        lambda count: digest_rank_eps(DEFAULT_COMPRESSION, count),
    )
    return failed + sum(1 for passed in outcome.values() if not passed)

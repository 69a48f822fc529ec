"""What the benchmark measures, and why: the source of ``BENCHMARK.json``.

``BENCHMARK.json`` carries only the keys its contract allows.  The rest
of each entry's explanation (definition, the workloads that report it,
the end-to-end metric a layer metric should move) lives here and in
``perfbench/README.md``; ``python3 perfbench/spec.py`` prints the JSON
this module describes, and a test keeps the file equal to it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

COMMAND = ("python3", "perfbench/run.py")
PATHS = ("perfbench",)
RUN_SECONDS = 20

ALL = ("ingest_clean", "ingest_chaos", "analyze_store")
INGEST = ("ingest_clean", "ingest_chaos")


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


@dataclass(frozen=True)
class WorkloadDoc:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    definition: str
    bound: Optional[float] = None  # end-to-end metrics only
    moves: Tuple[str, ...] = ()  # end-to-end metrics a layer metric moves
    on: Tuple[str, ...] = ALL  # workloads where it should move / is meaningful


WORKLOADS = (
    WorkloadDoc(
        "ingest_clean",
        "MEDIUM scale (3.9M samples), seed 7, 2 forked workers, no faults: the main "
        "user job and the CLI default on a 2-core host, direct-to-store collection",
    ),
    WorkloadDoc(
        "ingest_chaos",
        "TINY scale (37k samples, ~5 s a job), seed 7, 2 supervisor threads, faults "
        "flaky, worker faults crashy: the only path through transport retry and "
        "faults, result parsing and the supervisor",
    ),
    WorkloadDoc(
        "analyze_store",
        "MEDIUM store (3.9M samples) collected in set-up, seed 7, 2 workers, no "
        "faults: full report plus a fixed scan query mix, so reads, scans and report "
        "code run without synthesis or writes",
    ),
)

END_TO_END = (
    Metric("setup_s", "s", "lower",
           "fresh interpreter to inputs ready (imports, Campaign.from_paper, "
           "create_measurements), median of the run and two probe interpreters; "
           "analyze_store adds collecting its store", bound=0.25),
    Metric("samples_per_s", "samples/s", "higher",
           "samples through the timed job per second of its wall time: committed by "
           "Campaign.collect(store=...) up to the manifest commit (ingest), or read by "
           "open_dataset(verify=full) + generate_report + the query mix (analyze_store)",
           bound=0.24),
    Metric("cpu_s_per_msample", "cpu_s/Msample", "lower",
           "user+sys CPU of the parent and its reaped workers during the timed job, "
           "per million of those samples", bound=0.24),
    Metric("store_bytes_per_sample", "B", "lower",
           "bytes of every file of the committed store divided by its rows (the store "
           "the job wrote, or read on analyze_store)", bound=0.02),
    Metric("peak_rss_mb", "MB", "lower",
           "peak RSS of the parent or any forked worker during the timed job (the "
           "parent's includes everything set up before it)", bound=0.15),
)


def _layer(name, unit, better, definition, moves, on=ALL):
    return Metric(name, unit, better, definition, moves=moves, on=on)


_RATE = ("samples_per_s",)
_RATE_CPU = ("samples_per_s", "cpu_s_per_msample")
_STORE = ("samples_per_s", "store_bytes_per_sample")

PER_LAYER = (
    _layer("net.self_s", "s", "lower", "self time in LatencyModel.ping/ping_batch",
           _RATE_CPU, INGEST),
    _layer("net.calls", "count", "lower", "ping and ping_batch calls",
           _RATE_CPU, INGEST),
    _layer("net.synth_per_committed", "ratio", "lower",
           "samples synthesized / samples committed", _RATE_CPU, INGEST),
    _layer("atlas.platform.self_s", "s", "lower",
           "self time in AtlasPlatform.results/results_columns/results_count",
           _RATE, ("ingest_clean",)),
    _layer("atlas.platform.rows_served", "count", "lower",
           "rows served (obs platform_results_served_total)", _RATE, INGEST),
    _layer("atlas.platform.count_s", "s", "lower",
           "inclusive time in results_count (serial, before the fork)",
           _RATE, ("ingest_clean",)),
    _layer("atlas.transport.self_s", "s", "lower",
           "self time in Transport.results/results_columns/results_count",
           _RATE, ("ingest_chaos",)),
    _layer("atlas.transport.window_s.p50", "s", "lower",
           "median window fetch (Transport.results/results_columns span)",
           _RATE, INGEST),
    _layer("atlas.transport.window_s.p90", "s", "lower",
           "90th percentile window fetch", _RATE, INGEST),
    _layer("atlas.transport.retries_per_call", "ratio", "lower",
           "retries (obs retries_total) / window fetches", _RATE, ("ingest_chaos",)),
    _layer("atlas.faults.injected", "count", "lower",
           "faults injected (obs faults_injected_total)", _RATE, ("ingest_chaos",)),
    _layer("atlas.results.self_s", "s", "lower", "self time in Result.get",
           _RATE, ("ingest_chaos",)),
    _layer("atlas.results.parsed", "count", "lower", "Result.get calls",
           _RATE, ("ingest_chaos",)),
    _layer("atlas.results.duplicates_dropped", "count", "lower",
           "duplicate entries dropped (obs campaign_duplicates_dropped_total)",
           _RATE, ("ingest_chaos",)),
    _layer("core.campaign.self_s", "s", "lower",
           "self time in Campaign.collect/_fetch_measurement, DirectStoreCollector.collect",
           _RATE, ("ingest_clean",)),
    _layer("core.campaign.worker_skew", "ratio", "lower",
           "slowest / mean worker wall time (forked workers, or the first "
           "supervisor round's threads)", _RATE, ("ingest_clean",)),
    _layer("core.supervisor.self_s", "s", "lower", "self time in Supervisor.collect_into",
           _RATE_CPU, ("ingest_chaos",)),
    _layer("core.supervisor.crashes", "count", "lower", "worker crashes",
           _RATE_CPU, ("ingest_chaos",)),
    _layer("core.supervisor.respawns", "count", "lower", "respawn rounds",
           _RATE_CPU, ("ingest_chaos",)),
    _layer("core.supervisor.windows_retried", "count", "lower",
           "windows requeued after a worker death", _RATE_CPU, ("ingest_chaos",)),
    _layer("core.dataset.self_s", "s", "lower",
           "self time in CampaignDataset.extend_samples/freeze",
           ("samples_per_s", "peak_rss_mb"), ("ingest_chaos",)),
    _layer("core.dataset.reallocs", "count", "lower",
           "sample buffer reallocations (obs dataset_buffer_reallocs_total)",
           ("samples_per_s", "peak_rss_mb"), ("ingest_chaos",)),
    _layer("store.writer.self_s", "s", "lower",
           "self time in StoreWriter/ShardRangeWriter appends and commits, "
           "assemble_direct_store", _STORE, INGEST),
    _layer("store.writer.shards", "count", "lower",
           "shards written (obs store_shards_written_total)", _STORE, INGEST),
    _layer("store.writer.bytes", "B", "lower",
           "chunk bytes written (obs store_bytes_written_total)", _STORE, INGEST),
    _layer("store.format.self_s", "s", "lower", "self time in sha256_hex and Manifest.save",
           _STORE, INGEST),
    _layer("store.format.sha256_s", "s", "lower", "inclusive time in sha256_hex",
           _STORE, INGEST),
    _layer("store.format.commit_s", "s", "lower", "inclusive time in Manifest.save",
           _STORE, INGEST),
    _layer("store.fsim.self_s", "s", "lower",
           "self time in RealFS write/fsync/replace", _STORE, INGEST),
    _layer("store.fsim.writes", "count", "lower", "RealFS.write_bytes calls", _STORE, INGEST),
    _layer("store.fsim.fsyncs", "count", "lower", "RealFS.fsync_path/fsync_dir calls",
           _STORE, INGEST),
    _layer("store.fsim.fsync_s", "s", "lower", "inclusive time in fsync calls",
           _STORE, INGEST),
    _layer("store.fsim.write_amplification", "ratio", "lower",
           "bytes the writes carry / committed store bytes", _STORE, INGEST),
    _layer("store.reader.self_s", "s", "lower", "self time in open_dataset, StoreReader.verify",
           _RATE, ("analyze_store",)),
    _layer("store.reader.bytes_verified", "B", "lower",
           "bytes re-hashed (obs store_bytes_verified_total)", _RATE, ("analyze_store",)),
    _layer("store.scan.self_s", "s", "lower",
           "self time in Scan.count/summarize/quantile/ecdf/group_by",
           _RATE, ("analyze_store",)),
    _layer("store.scan.rows_scanned", "count", "lower",
           "rows read (obs scan_rows_scanned_total)", _RATE, ("analyze_store",)),
    _layer("store.scan.rows_pruned", "count", "higher",
           "rows skipped by zone maps (obs scan_rows_pruned_total)",
           _RATE, ("analyze_store",)),
    _layer("store.scan.selectivity", "ratio", "higher",
           "rows selected / rows scanned", _RATE, ("analyze_store",)),
    _layer("store.scan.aggcache_hit_ratio", "ratio", "higher",
           "aggregate cache hits / lookups", _RATE, ("analyze_store",)),
    _layer("frame.self_s", "s", "lower",
           "self time in streaming reducers and frame.stats functions",
           _RATE, ("analyze_store",)),
    _layer("core.filtering.self_s", "s", "lower", "self time in cohort_masks",
           _RATE, ("analyze_store",)),
    _layer("core.filtering.calls", "count", "lower", "cohort_masks calls",
           _RATE, ("analyze_store",)),
    _layer("core.nearest.self_s", "s", "lower", "self time in nearest_target_by_probe",
           _RATE, ("analyze_store",)),
    _layer("core.nearest.calls", "count", "lower", "nearest_target_by_probe calls",
           _RATE, ("analyze_store",)),
    _layer("core.report.self_s", "s", "lower",
           "self time in generate_report, headline_report, figure and threshold "
           "helpers, validate", _RATE, ("analyze_store",)),
    _layer("viz.self_s", "s", "lower", "self time in the viz renderers",
           _RATE, ("analyze_store",)),
    _layer("trace.wall_s", "s", "lower",
           "traced wall time summed over every thread and process", ()),
    _layer("trace.unaccounted_s", "s", "lower",
           "traced wall time outside every layer's self time: gaps between layer "
           "calls plus waiting on other threads", ()),
    _layer("trace.wait_s", "s", "lower",
           "the part of trace.unaccounted_s spent waiting on other threads or "
           "processes", ()),
    _layer("trace.overhead_share", "ratio", "lower",
           "traced job wall / untraced job wall - 1, same run", ()),
)


def benchmark_json() -> Dict[str, object]:
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))

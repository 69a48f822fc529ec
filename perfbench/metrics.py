"""Per-layer metrics of one traced job."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from perfbench.selftime import Attribution


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _skew(walls: Sequence[float]) -> float:
    if len(walls) < 2:
        return 0.0
    return max(walls) / (sum(walls) / len(walls))


def thread_rounds(roots: Sequence[Dict[str, object]]) -> List[List[Dict[str, object]]]:
    """Thread-pool task roots grouped into rounds that overlap in time."""
    rounds: List[List[Dict[str, object]]] = []
    end = float("-inf")
    for root in sorted((r for r in roots if r["name"] == "trace.thread"),
                       key=lambda r: r["start"]):
        if root["start"] >= end:
            rounds.append([])
        rounds[-1].append(root)
        end = max(end, root["end"])
    return rounds


def worker_skew(worker_stats: Sequence[Dict[str, object]], attr: Attribution) -> float:
    """Slowest / mean worker wall: forked workers, else the first
    thread round with at least two workers."""
    walls = [stats["wall_s"] for stats in worker_stats]
    if len(walls) < 2:
        first = next((r for r in thread_rounds(attr.roots) if len(r) >= 2), [])
        walls = [root["end"] - root["start"] for root in first]
    return _skew(walls)


def layer_metrics(
    attr: Attribution,
    counters: Dict[str, float],
    outputs: Dict[str, object],
    committed_rows: int,
    committed_bytes: int,
    overhead_share: float,
) -> Dict[str, float]:
    """Every per-layer metric; 0 where the job does not use the layer."""
    own, calls, seconds, units = attr.layer_self, attr.calls, attr.seconds, attr.units
    count = lambda name: float(counters.get(name, 0))  # noqa: E731
    windows = (attr.durations.get("atlas.transport|Transport.results", [])
               + attr.durations.get("atlas.transport|Transport.results_columns", []))
    # A ping is one sample; a batch carries its sample count as units.
    synthesized = (calls.get("net|LatencyModel.ping", 0)
                   + units.get("net|LatencyModel.ping_batch", 0))
    supervision = outputs.get("supervision")
    crashes = supervision.crashes if supervision else 0
    fsync = ("store.fsim|RealFS.fsync_path", "store.fsim|RealFS.fsync_dir")
    scanned = count("scan_rows_scanned_total")
    lookups = count("scan_aggcache_hits_total") + count("scan_aggcache_misses_total")
    metrics = {
        "net.self_s": own.get("net", 0.0),
        "net.calls": calls.get("net|LatencyModel.ping", 0)
        + calls.get("net|LatencyModel.ping_batch", 0),
        "net.synth_per_committed": _ratio(synthesized, committed_rows),
        "atlas.platform.self_s": own.get("atlas.platform", 0.0),
        "atlas.platform.rows_served": count("platform_results_served_total"),
        "atlas.platform.count_s": seconds.get("atlas.platform|AtlasPlatform.results_count", 0.0),
        "atlas.transport.self_s": own.get("atlas.transport", 0.0),
        "atlas.transport.window_s.p50": _percentile(windows, 50),
        "atlas.transport.window_s.p90": _percentile(windows, 90),
        "atlas.transport.retries_per_call": _ratio(count("retries_total"), len(windows)),
        "atlas.faults.injected": count("faults_injected_total"),
        "atlas.results.self_s": own.get("atlas.results", 0.0),
        "atlas.results.parsed": calls.get("atlas.results|Result.get", 0),
        "atlas.results.duplicates_dropped": count("campaign_duplicates_dropped_total"),
        "core.campaign.self_s": own.get("core.campaign", 0.0),
        "core.campaign.worker_skew": worker_skew(outputs.get("worker_stats", ()), attr),
        "core.supervisor.self_s": own.get("core.supervisor", 0.0),
        "core.supervisor.crashes": crashes,
        "core.supervisor.respawns": supervision.respawns if supervision else 0,
        "core.supervisor.windows_retried": (
            crashes + supervision.hangs - len(supervision.quarantined) if supervision else 0
        ),
        "core.dataset.self_s": own.get("core.dataset", 0.0),
        "core.dataset.reallocs": count("dataset_buffer_reallocs_total"),
        "store.writer.self_s": own.get("store.writer", 0.0),
        "store.writer.shards": count("store_shards_written_total"),
        "store.writer.bytes": count("store_bytes_written_total"),
        "store.format.self_s": own.get("store.format", 0.0),
        "store.format.sha256_s": seconds.get("store.format|sha256_hex", 0.0),
        "store.format.commit_s": seconds.get("store.format|Manifest.save", 0.0),
        "store.fsim.self_s": own.get("store.fsim", 0.0),
        "store.fsim.writes": calls.get("store.fsim|RealFS.write_bytes", 0),
        "store.fsim.fsyncs": sum(calls.get(key, 0) for key in fsync),
        "store.fsim.fsync_s": sum(seconds.get(key, 0.0) for key in fsync),
        "store.fsim.write_amplification": _ratio(
            units.get("store.fsim|RealFS.write_bytes", 0), committed_bytes
        ),
        "store.reader.self_s": own.get("store.reader", 0.0),
        "store.reader.bytes_verified": count("store_bytes_verified_total"),
        "store.scan.self_s": own.get("store.scan", 0.0),
        "store.scan.rows_scanned": scanned,
        "store.scan.rows_pruned": count("scan_rows_pruned_total"),
        "store.scan.selectivity": _ratio(count("scan_rows_selected_total"), scanned),
        "store.scan.aggcache_hit_ratio": _ratio(count("scan_aggcache_hits_total"), lookups),
        "frame.self_s": own.get("frame", 0.0),
        "core.filtering.self_s": own.get("core.filtering", 0.0),
        "core.filtering.calls": calls.get("core.filtering|cohort_masks", 0),
        "core.nearest.self_s": own.get("core.nearest", 0.0),
        "core.nearest.calls": calls.get("core.nearest|nearest_target_by_probe", 0),
        "core.report.self_s": own.get("core.report", 0.0),
        "viz.self_s": own.get("viz", 0.0),
        "trace.wall_s": attr.wall_s,
        "trace.unaccounted_s": attr.unaccounted_s,
        "trace.wait_s": attr.wait_s,
        "trace.overhead_share": overhead_share,
    }
    return {name: float(value) for name, value in metrics.items()}

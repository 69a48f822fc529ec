"""The program calls the traced run times, each under its layer's name.

``SPAN`` calls record one span each.  ``LEAF`` calls are per-sample or
per-chunk and fold into the enclosing span (see :mod:`perfbench.spans`).
A units function gives the work one call did where its count of calls
does not (samples of a batch, bytes of a write).
"""

from __future__ import annotations

import concurrent.futures
import importlib

from perfbench.spans import Patches, Recorder, traced_executor

SPAN, LEAF = "span", "leaf"


def _batch_samples(args, kwargs, result) -> int:
    return len(result.rtt_min)


def _bytes_written(args, kwargs, result) -> int:
    data = args[2] if len(args) > 2 else kwargs["data"]
    return len(data)


_REPORT_HELPERS = (
    ("repro.core.paper_report", "generate_report"),
    ("repro.core.report", "headline_report"),
    ("repro.core.proximity", "country_min_latency"),
    ("repro.core.proximity", "bucket_counts"),
    ("repro.core.proximity", "min_rtt_cdf_by_continent"),
    ("repro.core.distributions", "all_samples_cdf_by_continent"),
    ("repro.core.distributions", "threshold_table"),
    ("repro.core.lastmile", "cohort_timeseries"),
    ("repro.core.lastmile", "wireless_penalty"),
    ("repro.core.trends", "collect_figure1"),
    ("repro.core.trends", "detect_eras"),
    ("repro.core.whatif", "scenario_report"),
    ("repro.core.validation", "validate"),
    ("repro.core.validation", "summary_text"),
)

#: ``(module, attribute, layer, mode, units)``; ``Class.method`` patches
#: the class, a bare name patches every binding of the function.
TARGETS = (
    ("repro.net.pathmodel", "LatencyModel.ping", "net", LEAF, None),
    ("repro.net.pathmodel", "LatencyModel.ping_batch", "net", LEAF, _batch_samples),
    ("repro.atlas.platform", "AtlasPlatform.results", "atlas.platform", SPAN, None),
    ("repro.atlas.platform", "AtlasPlatform.results_columns", "atlas.platform", SPAN, None),
    ("repro.atlas.platform", "AtlasPlatform.results_count", "atlas.platform", SPAN, None),
    ("repro.atlas.api.transport", "Transport.results", "atlas.transport", SPAN, None),
    ("repro.atlas.api.transport", "Transport.results_columns", "atlas.transport", SPAN, None),
    ("repro.atlas.api.transport", "Transport.results_count", "atlas.transport", SPAN, None),
    ("repro.atlas.results.base", "Result.get", "atlas.results", LEAF, None),
    ("repro.core.campaign", "Campaign.collect", "core.campaign", SPAN, None),
    ("repro.core.campaign", "Campaign._fetch_measurement", "core.campaign", SPAN, None),
    ("repro.core.campaign", "DirectStoreCollector.collect", "core.campaign", SPAN, None),
    ("repro.core.supervisor", "Supervisor.collect_into", "core.supervisor", SPAN, None),
    ("repro.core.dataset", "CampaignDataset.extend_samples", "core.dataset", SPAN, None),
    ("repro.core.dataset", "CampaignDataset.freeze", "core.dataset", SPAN, None),
    ("repro.store.writer", "StoreWriter.append_batch", "store.writer", SPAN, None),
    ("repro.store.writer", "StoreWriter.finalize", "store.writer", SPAN, None),
    ("repro.store.writer", "ShardRangeWriter.append_batch", "store.writer", SPAN, None),
    ("repro.store.writer", "ShardRangeWriter.finish", "store.writer", SPAN, None),
    ("repro.store.writer", "assemble_direct_store", "store.writer", SPAN, None),
    ("repro.store.format", "sha256_hex", "store.format", LEAF, None),
    ("repro.store.format", "Manifest.save", "store.format", SPAN, None),
    ("repro.store.fsim", "RealFS.write_bytes", "store.fsim", LEAF, _bytes_written),
    ("repro.store.fsim", "RealFS.fsync_path", "store.fsim", LEAF, None),
    ("repro.store.fsim", "RealFS.fsync_dir", "store.fsim", LEAF, None),
    ("repro.store.fsim", "RealFS.replace", "store.fsim", LEAF, None),
    ("repro.store.reader", "open_dataset", "store.reader", SPAN, None),
    ("repro.store.reader", "StoreReader.verify", "store.reader", SPAN, None),
    ("repro.store.scan", "Scan.count", "store.scan", SPAN, None),
    ("repro.store.scan", "Scan.summarize", "store.scan", SPAN, None),
    ("repro.store.scan", "Scan.quantile", "store.scan", SPAN, None),
    ("repro.store.scan", "Scan.ecdf", "store.scan", SPAN, None),
    ("repro.store.scan", "Scan.group_by", "store.scan", SPAN, None),
    ("repro.frame.streaming", "StreamingSummary.update", "frame", LEAF, None),
    ("repro.frame.streaming", "StreamingSummary.merge", "frame", LEAF, None),
    ("repro.frame.streaming", "StreamingGroupBy.update", "frame", LEAF, None),
    ("repro.frame.stats", "ecdf", "frame", LEAF, None),
    ("repro.frame.stats", "summarize", "frame", LEAF, None),
    ("repro.frame.stats", "fraction_below", "frame", LEAF, None),
    ("repro.frame.stats", "bucketize", "frame", LEAF, None),
    ("repro.core.filtering", "cohort_masks", "core.filtering", SPAN, None),
    ("repro.core.nearest", "nearest_target_by_probe", "core.nearest", SPAN, None),
    *((module, name, "core.report", SPAN, None) for module, name in _REPORT_HELPERS),
    ("repro.viz.choropleth", "world_map", "viz", SPAN, None),
    ("repro.viz.choropleth", "bucket_listing", "viz", SPAN, None),
    ("repro.viz.ascii", "cdf_plot", "viz", SPAN, None),
    ("repro.viz.ascii", "table", "viz", SPAN, None),
)

#: Every layer a target names, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _, _ in TARGETS))


def install(recorder: Recorder) -> Patches:
    """Wrap every target and link thread-pool tasks; returns the undo log."""
    patches = Patches()
    for module_name, attribute, layer, mode, units in TARGETS:
        module = importlib.import_module(module_name)
        make = recorder.span if mode == SPAN else recorder.leaf

        def wrap(fn, make=make, layer=layer, name=attribute, units=units):
            return make(fn, layer, name, units)

        owner, _, member = attribute.rpartition(".")
        if owner:
            patches.method(getattr(module, owner), member, wrap)
        else:
            patches.function(module, member, wrap)
    patches.binding(
        concurrent.futures.ThreadPoolExecutor, traced_executor(recorder)
    )
    return patches

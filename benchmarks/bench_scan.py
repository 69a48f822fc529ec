"""Out-of-core scan engine — pruning speedup and bounded memory.

A synthetic store 10x the paper-scale MEDIUM campaign (32M rows,
monotone timestamps — the natural layout of an append-only collection)
is written once, then queried three ways:

* **pruned** — a <=10%-selective timestamp window with zone maps: the
  scan engine skips every shard the predicate cannot match.
* **unpruned** — the identical query against a version-1 copy of the
  same rows (raw chunks, no zone maps, as a build before zone maps
  wrote it): every shard is read and masked.
* **full** — an unpredicated streaming summary of a whole column.

Pruned vs unpruned measures what zone maps buy over the layout that
had none.  The floor
(5x) is asserted on the windowed row count, where scanning *is* the
query; the windowed summary is timed too, for the record — its t-digest
runs on the same selected rows either way, so pruning helps it less.
The full streaming pass runs in a subprocess whose peak RSS must stay
under 100 MB — the raw rows are ~1.15 GB, so staying bounded *is* the
out-of-core property.  Measurements land in ``BENCH_scan.json`` for
the CI artifact.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import print_banner

from repro.store import StoreWriter, scan_store
from repro.store.writer import legacy_copy

BENCH_SEED = 7

#: 10x the MEDIUM campaign's ~3.2M samples (override to iterate locally).
ROWS = int(os.environ.get("REPRO_BENCH_SCAN_ROWS", 32_000_000))

#: Rows written per batch — bounds the writer's memory, not the store's.
BATCH = 1 << 20

#: Acceptance floors.
SPEEDUP_FLOOR = 5.0
RSS_CEILING_MB = 100.0

#: Fraction of the timestamp range the selective predicate admits.
SELECTIVITY = 0.10

ARTIFACT = Path(os.environ.get("REPRO_BENCH_ARTIFACT", "BENCH_scan.json"))

#: Subprocess body: one full streaming pass, reporting its own peak RSS.
#: Runs in a fresh interpreter so the measurement starts from a clean
#: baseline instead of inheriting the parent's allocations.
_RSS_PROBE = """
import json, sys

def peak_rss_mb():
    # VmHWM, not ru_maxrss: getrusage's high-water mark survives the
    # fork from a large parent, VmHWM restarts with this interpreter.
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM"):
            return int(line.split()[1]) / 1024.0
    raise SystemExit("no VmHWM in /proc/self/status")

from repro.store import scan_store
scan = scan_store(sys.argv[1])
summary = scan.summarize("rtt_min")
grid = scan.streaming_ecdf("rtt_min", bins=512)
print(json.dumps({
    "rows": summary.count,
    "p95_below": grid.fraction_below(grid.edges[-1]),
    "peak_rss_mb": peak_rss_mb(),
}))
"""


def _build_store(path):
    """Write the synthetic store in bounded batches.

    Timestamps are globally monotone (one sample per simulated tick),
    so shard zone maps partition the time axis — the layout every
    append-only collection produces for free.
    """
    rng = np.random.default_rng(BENCH_SEED)
    writer = StoreWriter(path, provenance={"seed": BENCH_SEED})
    written = 0
    while written < ROWS:
        n = min(BATCH, ROWS - written)
        rtt = np.round(rng.uniform(1.0, 300.0, n), 3)
        writer.append_columns({
            "probe_id": rng.integers(1, 12000, n).astype("<i4"),
            # Target-clustered, like real collection: the manifest's
            # (target, rows) windows stay run-length compact.
            "target_index": np.sort(
                rng.integers(0, 101, n).astype("<i4")
            ),
            "timestamp": 1_500_000_000 + np.arange(
                written, written + n, dtype="<i8"
            ),
            "rtt_min": rtt.astype("<f8"),
            "rtt_avg": (rtt * 1.1).astype("<f8"),
            "sent": np.full(n, 3, dtype="<i2"),
            "rcvd": rng.integers(0, 4, n).astype("<i2"),
        })
        written += n
    return writer.finalize()


def _window_count(path, cutoff):
    start = time.perf_counter()
    count = scan_store(path).filter("timestamp", "<", cutoff).count()
    return count, time.perf_counter() - start


def _window_summary(path, cutoff):
    start = time.perf_counter()
    summary = (
        scan_store(path)
        .filter("timestamp", "<", cutoff)
        .summarize("rtt_min")
    )
    return summary, time.perf_counter() - start


def test_scan_pruning_speedup_and_bounded_rss(benchmark, tmp_path):
    zoned = tmp_path / "zoned"
    manifest = _build_store(zoned)
    store_bytes = sum(p.stat().st_size for p in zoned.iterdir())
    unzoned = tmp_path / "unzoned"
    legacy_copy(zoned, unzoned, version=1)

    cutoff = 1_500_000_000 + int(ROWS * SELECTIVITY)
    expected_rows = int(ROWS * SELECTIVITY)

    # Warm the page cache on both sides so the comparison is pure CPU +
    # chunk-skipping, not first-touch IO order.
    _window_count(zoned, cutoff)
    _window_count(unzoned, cutoff)

    pruned_count, _ = _window_count(zoned, cutoff)
    pruned_s = benchmark.pedantic(
        lambda: _window_count(zoned, cutoff)[1], rounds=1, iterations=1
    )
    unpruned_count, unpruned_s = _window_count(unzoned, cutoff)
    speedup = unpruned_s / pruned_s

    pruned_summary, pruned_sum_s = _window_summary(zoned, cutoff)
    unpruned_summary, unpruned_sum_s = _window_summary(unzoned, cutoff)
    identical = (
        pruned_count == unpruned_count
        and pruned_summary.as_dict() == unpruned_summary.as_dict()
    )

    # The full streaming pass, in its own interpreter, for a clean RSS.
    probe = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(zoned)],
        capture_output=True, text=True, check=True,
    )
    full = json.loads(probe.stdout)

    print_banner(
        f"Out-of-core scan: {ROWS:,} rows, {store_bytes / 1e6:.0f} MB on "
        f"disk, {len(manifest.shards)} shards"
    )
    print(f"{'query':>38s} {'wall':>9s}")
    print("-" * 50)
    print(f"{'10% window count, zone maps':>38s} {pruned_s:>8.2f}s")
    print(f"{'10% window count, no zone maps (v1)':>38s} {unpruned_s:>8.2f}s")
    print(f"{'10% window summary, zone maps':>38s} {pruned_sum_s:>8.2f}s")
    print(f"{'10% window summary, no zone maps':>38s} {unpruned_sum_s:>8.2f}s")
    print(f"pruning speedup: {speedup:.1f}x  (floor {SPEEDUP_FLOOR:.0f}x)")
    print(f"full-pass subprocess peak RSS: {full['peak_rss_mb']:.1f} MB "
          f"(ceiling {RSS_CEILING_MB:.0f} MB)")
    print(f"answers identical: {'yes' if identical else 'NO'}")

    ARTIFACT.write_text(json.dumps({
        "seed": BENCH_SEED,
        "cpus": os.cpu_count(),
        "rows": ROWS,
        "store_bytes": store_bytes,
        "shards": len(manifest.shards),
        "selectivity": SELECTIVITY,
        "pruned_count_s": round(pruned_s, 3),
        "unpruned_count_s": round(unpruned_s, 3),
        "pruned_summary_s": round(pruned_sum_s, 3),
        "unpruned_summary_s": round(unpruned_sum_s, 3),
        "pruning_speedup": round(speedup, 2),
        "full_pass_rows": full["rows"],
        "peak_rss_mb": round(full["peak_rss_mb"], 1),
        "answers_identical": identical,
        "speedup_floor": SPEEDUP_FLOOR,
        "rss_ceiling_mb": RSS_CEILING_MB,
    }, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")

    assert identical, "pruned and unpruned scans disagreed"
    assert pruned_count == expected_rows
    assert pruned_summary.count == expected_rows
    assert full["rows"] == ROWS
    assert speedup >= SPEEDUP_FLOOR, (
        f"pruning speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )
    assert full["peak_rss_mb"] < RSS_CEILING_MB, (
        f"full streaming pass peaked at {full['peak_rss_mb']:.1f} MB"
    )

"""Vectorized ingest — speedup, byte-parity, and paper-scale budget.

The SMALL campaign is collected twice under the ``flaky`` fault profile
— once through the dict-path reference (``Transport.results`` plus
``PingColumns.from_raw`` per window, the per-sample work the collector
no longer does) and once through ``Campaign.collect``, which builds
every window from columns even under chaos — and the two frozen
datasets must fingerprint byte-identically while the collector clears a
>=5x speedup floor.  The floor is a property of vectorization, not of
core count, so it is asserted on every machine.  A MEDIUM (paper-scale,
~3.2M-sample) run then has to land inside a ten-minute budget.

A second stage benchmarks the shared-nothing **direct-to-store** ingest:
a MEDIUM campaign collected by forked workers streaming store shards
straight to disk (committed, scrub-clean), plus the isolated write plane
— pre-synthesized columns through :class:`ShardRangeWriter` ranges and
the boundary-stitch commit.  The write-plane floor is >=1M samples/s;
the end-to-end floor only applies with enough cores to feed it (window
synthesis is CPU-bound and the container may have a single core).  The
measured table is written to ``BENCH_ingest.json`` for the CI artifact.
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
from conftest import print_banner

from repro.atlas.results.ping import PingColumns
from repro.core.campaign import Campaign, CampaignScale, usable_cpus
from repro.core.dataset import CampaignDataset

BENCH_SEED = 7

#: Transport fault profile of the SMALL speedup stage.
SMALL_FAULTS = "flaky"

#: All frozen sample columns, in schema order (matches the parity suite).
SAMPLE_COLUMNS = (
    "probe_id", "target_index", "timestamp",
    "rtt_min", "rtt_avg", "sent", "rcvd",
)

#: Acceptance floor: the collector must beat the dict-path reference by
#: at least this factor on SMALL.
SPEEDUP_FLOOR = 5.0

#: Wall-clock budget for the paper-scale MEDIUM collection (seconds).
MEDIUM_BUDGET_S = 600.0

ARTIFACT = Path(os.environ.get("REPRO_BENCH_ARTIFACT", "BENCH_ingest.json"))


def _fingerprint(dataset) -> bytes:
    return b"".join(dataset.column(name).tobytes() for name in SAMPLE_COLUMNS)


def _campaign(scale: CampaignScale, faults=None) -> Campaign:
    campaign = Campaign.from_paper(scale=scale, seed=BENCH_SEED, faults=faults)
    campaign.create_measurements()
    return campaign


def _collect(scale: CampaignScale, faults=None):
    campaign = _campaign(scale, faults)
    start = time.perf_counter()
    dataset = campaign.collect()
    return dataset, time.perf_counter() - start


def _reference(scale: CampaignScale, faults=None):
    """The dict path: each window fetched as dicts, then cleaned and
    parsed per sample by ``PingColumns.from_raw``, in fleet order."""
    campaign = _campaign(scale, faults)
    start = time.perf_counter()
    dataset = CampaignDataset(campaign.platform.probes, campaign.platform.fleet)
    for msm_id, vm in zip(campaign.measurement_ids, campaign.platform.fleet):
        raws = campaign.transport.results(
            msm_id, start=campaign.start_time, stop=campaign.stop_time
        )
        columns = PingColumns.from_raw(raws).columns
        dataset.extend_samples(
            vm.key,
            columns.probe_ids,
            columns.timestamps,
            columns.rtt_min,
            columns.rtt_avg,
            columns.sent,
            columns.rcvd,
        )
    dataset.freeze()
    return dataset, time.perf_counter() - start


def test_ingest_speedup(benchmark):
    """Dict-path reference vs the collector on the same chaotic SMALL campaign."""
    # Untimed warm-up: imports, fleet construction, route caches.
    _collect(CampaignScale.SMALL, SMALL_FAULTS)

    fast, fast_s = _collect(CampaignScale.SMALL, SMALL_FAULTS)
    fast_s = benchmark.pedantic(
        lambda: _collect(CampaignScale.SMALL, SMALL_FAULTS)[1],
        rounds=1,
        iterations=1,
    )
    reference, reference_s = _reference(CampaignScale.SMALL, SMALL_FAULTS)
    identical = _fingerprint(fast) == _fingerprint(reference)
    speedup = reference_s / fast_s

    medium, medium_s = _collect(CampaignScale.MEDIUM)

    print_banner(
        f"Vectorized ingest: SMALL {len(fast):,} samples ({SMALL_FAULTS}), "
        f"MEDIUM {len(medium):,} samples"
    )
    print(f"{'path':>22s} {'wall':>9s} {'speedup':>8s}")
    print("-" * 42)
    print(f"{'SMALL dict reference':>22s} {reference_s:>8.2f}s {1.0:>7.2f}x")
    print(f"{'SMALL collect':>22s} {fast_s:>8.2f}s {speedup:>7.2f}x")
    print(f"{'MEDIUM collect':>22s} {medium_s:>8.2f}s {'':>8s}")
    print(f"byte-identical: {'yes' if identical else 'NO'}")

    ARTIFACT.write_text(json.dumps({
        "seed": BENCH_SEED,
        "cpus": usable_cpus(),
        "small_faults": SMALL_FAULTS,
        "small_samples": len(fast),
        "small_reference_s": round(reference_s, 3),
        "small_collect_s": round(fast_s, 3),
        "small_speedup": round(speedup, 2),
        "byte_identical": identical,
        "medium_samples": len(medium),
        "medium_collect_s": round(medium_s, 3),
        "medium_budget_s": MEDIUM_BUDGET_S,
    }, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")

    assert identical, "collected SMALL dataset diverged from the dict-path bytes"
    assert speedup >= SPEEDUP_FLOOR, (
        f"collector speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )
    assert medium_s <= MEDIUM_BUDGET_S, (
        f"MEDIUM collection took {medium_s:.0f}s, over the "
        f"{MEDIUM_BUDGET_S:.0f}s budget"
    )


#: Worker count for the direct-to-store stage.
DIRECT_WORKERS = 4

#: Write-plane floor: rows/s through the shard-range writers plus the
#: boundary-stitch commit, synthesis excluded.  Pure numpy-and-IO, so it
#: holds on a single core — halved there as a margin for tiny machines.
WRITE_PLANE_FLOOR = 1_000_000
WRITE_PLANE_FLOOR_1CPU = 500_000

#: End-to-end floor: the full campaign (window synthesis included) can
#: only sustain >=1M samples/s when enough cores feed the workers —
#: synthesis is CPU-bound at roughly 200k rows/s/core.
E2E_FLOOR = 1_000_000
E2E_FLOOR_MIN_CPUS = 8

WRITE_PLANE_ROWS = 2_000_000


def _write_plane_columns(rows):
    """Canonical-order sample columns: long target runs, like a campaign."""
    rng = np.random.default_rng(BENCH_SEED)
    rtt = np.round(rng.uniform(1.0, 300.0, rows), 3)
    return {
        "probe_id": rng.integers(1, 5000, rows).astype("<i4"),
        "target_index": np.repeat(
            np.arange(101, dtype="<i4"), -(-rows // 101)
        )[:rows],
        "timestamp": 1_500_000_000 + np.arange(rows, dtype="<i8") * 60,
        "rtt_min": rtt.astype("<f8"),
        "rtt_avg": (rtt * 1.1).astype("<f8"),
        "sent": np.full(rows, 3, dtype="<i2"),
        "rcvd": rng.integers(0, 4, rows).astype("<i2"),
    }


def _write_plane_pass(path, columns, workers):
    """One worker-split direct write: range writers + stitch commit."""
    from repro.store.writer import ShardRangeWriter, assemble_direct_store

    rows = len(columns["probe_id"])
    cuts = [rows * k // workers for k in range(workers + 1)]
    fragments = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        writer = ShardRangeWriter(path, row_start=lo, durable=True)
        writer.append_columns(
            {name: array[lo:hi] for name, array in columns.items()}
        )
        fragments.append(writer.finish())
    return assemble_direct_store(path, fragments)


def test_direct_store_ingest(benchmark):
    """Shared-nothing multiprocess ingest into a committed, verified store."""
    from repro.store import CampaignCatalog, StoreReader
    from repro.store.scrub import scrub

    cpus = usable_cpus()
    workers = DIRECT_WORKERS if hasattr(os, "fork") else 1
    scratch = Path(tempfile.mkdtemp(prefix="bench-direct-"))
    try:
        # -- end to end: MEDIUM campaign, forked workers, committed store ------
        campaign = Campaign.from_paper(scale=CampaignScale.MEDIUM, seed=BENCH_SEED)
        campaign.create_measurements()
        catalog_root = scratch / "catalog"
        start = time.perf_counter()
        dataset = campaign.collect(store=catalog_root, workers=workers)
        e2e_s = time.perf_counter() - start
        e2e_rate = len(dataset) / e2e_s
        (fingerprint,) = CampaignCatalog(catalog_root).entries()
        store_path = catalog_root / fingerprint
        assert scrub(store_path).intact
        StoreReader(store_path, verify="full")
        worker_stats = campaign.worker_process_stats

        # -- write plane: synthesis excluded, shard streaming + stitch ---------
        columns = _write_plane_columns(WRITE_PLANE_ROWS)
        _write_plane_pass(scratch / "warmup", columns, max(workers, 2))

        def timed_pass(run=[0]):
            run[0] += 1
            path = scratch / f"plane-{run[0]}"
            begin = time.perf_counter()
            manifest = _write_plane_pass(path, columns, max(workers, 2))
            elapsed = time.perf_counter() - begin
            assert manifest.rows == WRITE_PLANE_ROWS
            shutil.rmtree(path)
            return elapsed

        plane_s = benchmark.pedantic(timed_pass, rounds=1, iterations=1)
        plane_rate = WRITE_PLANE_ROWS / plane_s

        print_banner(
            f"Direct-to-store ingest: MEDIUM {len(dataset):,} samples, "
            f"{workers} workers, {cpus} cpu(s)"
        )
        print(f"{'stage':>28s} {'wall':>9s} {'samples/s':>12s}")
        print("-" * 52)
        print(f"{'MEDIUM end-to-end':>28s} {e2e_s:>8.2f}s {e2e_rate:>12,.0f}")
        print(f"{'write plane (2M rows)':>28s} {plane_s:>8.2f}s {plane_rate:>12,.0f}")
        for entry in worker_stats:
            print(
                f"{'worker %d' % entry['worker']:>28s} "
                f"{entry['wall_s']:>8.2f}s {entry['rows_per_s']:>12,.0f}"
            )

        artifact = {}
        if ARTIFACT.exists():
            artifact = json.loads(ARTIFACT.read_text())
        artifact.update({
            "direct_workers": workers,
            "direct_cpus": cpus,
            "direct_medium_samples": len(dataset),
            "direct_medium_s": round(e2e_s, 3),
            "direct_medium_samples_per_s": round(e2e_rate),
            "direct_store_intact": True,
            "write_plane_rows": WRITE_PLANE_ROWS,
            "write_plane_s": round(plane_s, 3),
            "write_plane_samples_per_s": round(plane_rate),
            "write_plane_floor": (
                WRITE_PLANE_FLOOR if cpus >= 2 else WRITE_PLANE_FLOOR_1CPU
            ),
            "e2e_floor_applies": cpus >= E2E_FLOOR_MIN_CPUS,
            "worker_process_stats": [
                {k: v for k, v in entry.items()} for entry in worker_stats
            ],
        })
        ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"wrote {ARTIFACT}")

        floor = WRITE_PLANE_FLOOR if cpus >= 2 else WRITE_PLANE_FLOOR_1CPU
        assert plane_rate >= floor, (
            f"write plane {plane_rate:,.0f} samples/s below the "
            f"{floor:,} floor"
        )
        assert e2e_s <= MEDIUM_BUDGET_S, (
            f"direct MEDIUM collection took {e2e_s:.0f}s, over the "
            f"{MEDIUM_BUDGET_S:.0f}s budget"
        )
        if cpus >= E2E_FLOOR_MIN_CPUS:
            assert e2e_rate >= E2E_FLOOR, (
                f"end-to-end {e2e_rate:,.0f} samples/s below the "
                f"{E2E_FLOOR:,} floor on a {cpus}-core machine"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

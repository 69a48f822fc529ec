"""Parallel collection — speedup and byte-parity on one table.

A SMALL campaign is collected serially and with 2, 4, and 8 workers;
each parallel run's frozen dataset must fingerprint byte-identically to
the serial baseline, and the wall-clock table shows what the sharded
engine buys.  The >=2.5x-at-4-workers assertion only fires when this
process may run on at least 4 CPUs (its affinity set, not the machine's
count) — on fewer cores the workers time-slice one another and the
table documents overhead instead of speedup.
"""

import time

from conftest import print_banner

from repro.core.campaign import Campaign, CampaignScale, usable_cpus

BENCH_SEED = 7

#: All frozen sample columns, in schema order (matches the parity suite).
SAMPLE_COLUMNS = (
    "probe_id", "target_index", "timestamp",
    "rtt_min", "rtt_avg", "sent", "rcvd",
)

WORKER_COUNTS = (2, 4, 8)

#: Acceptance floor for 4 workers — only meaningful with >= 4 real CPUs.
SPEEDUP_FLOOR = 2.5


def _fingerprint(dataset) -> bytes:
    return b"".join(dataset.column(name).tobytes() for name in SAMPLE_COLUMNS)


def _collect(workers=None):
    campaign = Campaign.from_paper(scale=CampaignScale.SMALL, seed=BENCH_SEED)
    campaign.create_measurements()
    start = time.perf_counter()
    dataset = campaign.collect(workers=workers)
    return dataset, time.perf_counter() - start


def test_parallel_speedup(benchmark):
    """Serial vs 2/4/8-worker collection of the same SMALL campaign."""
    cpus = usable_cpus()

    # Untimed warm-up run: fills OS caches and takes the one-time costs
    # (imports, fleet construction) out of the comparison.
    _collect()

    baseline, serial_s = _collect()
    serial_s = benchmark.pedantic(
        lambda: _collect()[1], rounds=1, iterations=1
    )

    rows = []
    for workers in WORKER_COUNTS:
        dataset, elapsed = _collect(workers=workers)
        identical = _fingerprint(dataset) == _fingerprint(baseline)
        rows.append((workers, elapsed, serial_s / elapsed, identical))

    print_banner(f"Parallel collection: SMALL campaign, {cpus} CPU(s)")
    print(f"{'workers':>8s} {'wall':>8s} {'speedup':>8s} {'byte-identical':>15s}")
    print("-" * 44)
    print(f"{'serial':>8s} {serial_s:>7.2f}s {1.0:>7.2f}x {'(baseline)':>15s}")
    for workers, elapsed, speedup, identical in rows:
        print(f"{workers:>8d} {elapsed:>7.2f}s {speedup:>7.2f}x "
              f"{'yes' if identical else 'NO':>15s}")

    # Parity holds at every worker count, on every machine.
    assert all(identical for *_, identical in rows)

    speedup_at_4 = next(s for w, _, s, _ in rows if w == 4)
    if cpus >= 4:
        assert speedup_at_4 >= SPEEDUP_FLOOR, (
            f"4-worker speedup {speedup_at_4:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor on a {cpus}-CPU machine"
        )
    else:
        print(f"\n{cpus} CPU(s): speedup floor not asserted "
              f"(needs >= 4; measured {speedup_at_4:.2f}x)")

"""Golden digests: fixed truths that no path-vs-path parity test can see.

Every parity suite compares one path against another, so a change to the
shared synthesis kernel moves both sides at once and passes.  These
digests were computed once and pinned:

- the decoded sample columns of TINY and SMALL seed-7 collections,
  hashed exactly as ``perfbench.checks.column_digest`` hashes a committed
  store (the function is imported from there, so the two cannot
  disagree; TINY under ``none``, ``flaky`` and ``outage`` is perfbench's
  pinned ``ingest_chaos`` digest; SMALL under ``flaky`` and ``outage``
  keeps the fault-free digest);
- the raw kernel output (received counts, per-packet RTTs, reduced
  min/avg) of one fixed window of 28 flows, every access technology on
  every infrastructure tier;
- the committed store manifest (``manifest.json``, store format v4) of
  TINY seed 7 under ``none`` and ``flaky`` and of SMALL seed 7: it pins
  every chunk's encoding, byte length and checksum, the zone maps, the
  window index and the provenance;
- the rendered reproduction report (``generate_report(dataset, seed=7)``)
  of the shared TINY and SMALL seed-7 datasets: every figure, the
  headline statistics and the validation verdicts the analysis kernels
  compute from those columns;
- the scan reducers' answers over the SMALL seed-7 store written in
  several shards (so per-shard partials merge): the ``rtt_min`` ECDF
  grid counts, the exact p95 of ``rtt_avg``, the ``target_index``
  group-by and the ``rtt_min`` summary, bit for bit.

A failing golden prints the digest the code now produces.  Moving one is
a data revision and belongs in CHANGES.md, never in a speed-up; a store
format change moves the manifest digests and never a column digest.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

import repro.atlas.platform as platform_module
import repro.store.scan as scan_module
from perfbench.checks import SAMPLE_COLUMNS, column_digest
from repro.core.campaign import Campaign, CampaignScale
from repro.core.completeness import collection_health
from repro.core.paper_report import generate_report
from repro.geo.countries import get_country
from repro.net.lastmile import AccessTechnology
from repro.net.pathmodel import EndpointAdjustment, LatencyModel, PingFlow
from repro.store import (
    MANIFEST_NAME,
    campaign_fingerprint,
    campaign_provenance,
    scan_store,
    write_dataset,
)

SEED = 7

#: ``(rows, column digest)`` of a TINY seed-7 collection per fault profile.
#: ``none``, ``flaky`` and ``outage`` keep every row; ``hostile``
#: quarantines four malformed results.
TINY_GOLDENS = {
    "none": (36_928, "56d157e270b8ba4911eefa854251cdd1eade11dce534bdefeea81848e67eb7c5"),
    "flaky": (36_928, "56d157e270b8ba4911eefa854251cdd1eade11dce534bdefeea81848e67eb7c5"),
    "outage": (36_928, "56d157e270b8ba4911eefa854251cdd1eade11dce534bdefeea81848e67eb7c5"),
    "hostile": (36_924, "a47b972e30921c604979e5d0eb21c356daa604f1664cfca2499664e502f666b5"),
}

#: ``(rows, column digest)`` of the fault-free SMALL seed-7 collection.
SMALL_GOLDEN = (274_740, "143fdd34513e4a0fb53b6fd3bd25243fa8bdfdb39f9d8a9b36391a04207cde4f")

#: SHA-256 of the committed ``manifest.json`` per (scale, fault profile).
MANIFEST_GOLDENS = {
    ("tiny", "none"): "6f0afa31e0da0389b2ac87fe920d4b8f0487b08b404c6ed59639851e886f0bbc",
    ("tiny", "flaky"): "e6c42d4f41c0af9fd08d9223663d014ebc20671b2bbbc79ffc244a519d0e2811",
    ("small", "none"): "02f2b0cd449ee2e1ba0fe042e85792e68eb23813054aecc019845fc406e10af3",
}

#: ``(rows, SHA-256 of generate_report(dataset, seed=7))`` of the shared
#: seed-7 datasets.
REPORT_GOLDENS = {
    "tiny": (36_928, "48e828d052bdb3a013715d689d5aa827f034db7f5c95215980150680c8069b89"),
    "small": (274_740, "0af8a26b9ebdfa81e91fe53a6109a12c953e824e8bc54ecac99d0ebb41a19d35"),
}

#: SHA-256 of each scan answer over the SMALL seed-7 store cut into
#: ``SCAN_ROWS_PER_SHARD``-row shards (see :func:`scan_answers`).
SCAN_GOLDENS = {
    "ecdf_rtt_min": "4180b88e01dae231be0fb7a72219f87c5b2673d95bce45dd4be039c5e1e847cc",
    "p95_rtt_avg_exact": "1a922af6925d6a6eb90c2f61280cfadae954cdddcf77ac527dccc6a646305029",
    "group_by_target": "1b80ae834e6e35e09fbbe01951d34408ab1b32c46d17e97462ce727ea1680f2c",
    "summary_rtt_min": "296f4df4ecfbaafc46af4094e711a36f676cf4cf5d405c09ad91c23f459d5e28",
}

#: Six shards of SMALL's 274,740 rows.
SCAN_ROWS_PER_SHARD = 50_000

#: SHA-256 of the kernel window below.
KERNEL_GOLDEN = "4f7c8a5caf4378f7459f4d28a805f36bdcb7f46e2c553610c0f093b4af70758b"


def _digest_of(dataset) -> str:
    return column_digest({name: np.array(dataset.column(name)) for name in SAMPLE_COLUMNS})


def _assert_golden(what: str, rows: int, digest: str, golden) -> None:
    assert (rows, digest) == golden, (
        f"{what} moved: now {rows:,} rows, sha256 {digest} "
        f"(pinned {golden[0]:,} rows, {golden[1]})"
    )


@pytest.mark.parametrize("faults", sorted(TINY_GOLDENS))
def test_tiny_columns(faults):
    dataset = Campaign.from_paper(
        scale=CampaignScale.TINY, seed=SEED, faults=faults
    ).run()
    _assert_golden(
        f"TINY seed {SEED} faults={faults}",
        len(dataset), _digest_of(dataset), TINY_GOLDENS[faults],
    )


def test_tiny_columns_in_small_kernel_blocks(monkeypatch):
    """Cutting every window into blocks of a few dozen rows — several
    kernel calls per window — leaves every byte where it was."""
    calls = []
    original = LatencyModel.ping_batch

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(platform_module, "KERNEL_BLOCK_ROWS", 48)
    monkeypatch.setattr(LatencyModel, "ping_batch", counting)
    campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=SEED)
    dataset = campaign.run()
    assert len(calls) > 2 * len(campaign.measurement_ids)
    _assert_golden(
        "TINY in 48-row kernel blocks",
        len(dataset), _digest_of(dataset), TINY_GOLDENS["none"],
    )


def test_small_columns(small_dataset):
    _assert_golden(
        f"SMALL seed {SEED}", len(small_dataset), _digest_of(small_dataset), SMALL_GOLDEN
    )


@pytest.mark.parametrize("faults", ["flaky", "outage"])
def test_small_columns_under_faults(faults):
    """Retried faults leave SMALL's bytes where the clean wire puts them."""
    campaign = Campaign.from_paper(scale=CampaignScale.SMALL, seed=SEED, faults=faults)
    dataset = campaign.run()
    assert sum(collection_health(campaign)["transport"]["faults"].values()) > 0
    _assert_golden(
        f"SMALL seed {SEED} faults={faults}", len(dataset), _digest_of(dataset), SMALL_GOLDEN
    )


@pytest.mark.parametrize("scale", sorted(REPORT_GOLDENS))
def test_report(scale, request):
    """The paper's headline products, rendered: the Fig 4 minima, the
    Fig 5-6 distributions, the Fig 7 wired/wireless penalty and every
    validation verdict, as one document."""
    dataset = request.getfixturevalue(f"{scale}_dataset")
    report = generate_report(dataset, seed=SEED)
    _assert_golden(
        f"{scale.upper()} seed {SEED} report",
        len(dataset), hashlib.sha256(report.encode()).hexdigest(), REPORT_GOLDENS[scale],
    )


def _assert_manifest(key, store) -> None:
    digest = hashlib.sha256((store / MANIFEST_NAME).read_bytes()).hexdigest()
    assert digest == MANIFEST_GOLDENS[key], (
        f"{key[0].upper()} seed {SEED} faults={key[1]} manifest moved: now sha256 {digest}"
    )


@pytest.mark.parametrize("faults", ["none", "flaky"])
def test_tiny_committed_manifest(faults, tmp_path):
    """The store a TINY collection commits, byte for byte."""
    campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=SEED, faults=faults)
    campaign.run(store=tmp_path / "catalog")
    entry = tmp_path / "catalog" / campaign_fingerprint(campaign_provenance(campaign))
    _assert_manifest(("tiny", faults), entry)


def test_small_committed_manifest(small_dataset, tmp_path):
    """The shared SMALL collection committed as a store-backed run
    commits it: ``write_dataset`` under the campaign's provenance is the
    record sink's one write, byte-identical to the shard sink's."""
    provenance = campaign_provenance(
        Campaign.from_paper(scale=CampaignScale.SMALL, seed=SEED)
    )
    write_dataset(small_dataset, tmp_path / "store", provenance=provenance)
    _assert_manifest(("small", "none"), tmp_path / "store")


# -- the scan reducers --------------------------------------------------------------


def array_digest(arrays) -> str:
    """SHA-256 of each array's dtype, shape and bytes, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}:{array.shape}\n".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def scan_answers(scan):
    """The reducer outputs of the analyze query mix, as arrays per answer."""
    finite = scan.filter("rtt_min", ">=", 0.0)
    grid = scan.streaming_ecdf("rtt_min")
    groups = finite.group_by(
        ["target_index"],
        {"median": ("rtt_min", "median"), "p95": ("rtt_min", "p95"),
         "count": ("rtt_min", "count")},
    )
    summary = finite.summarize("rtt_min")
    return {
        "ecdf_rtt_min": (grid.edges, grid.counts, np.int64(grid.total)),
        "p95_rtt_avg_exact": (np.float64(scan.quantile("rtt_avg", 0.95, exact=True)),),
        "group_by_target": tuple(
            np.asarray(groups[name]) for name in ("target_index", "median", "p95", "count")
        ),
        "summary_rtt_min": (
            np.int64(summary.count),
            np.asarray(dataclasses.astuple(summary)[1:], dtype=np.float64),
        ),
    }


def test_scan_answers(small_dataset, tmp_path, monkeypatch):
    """The streaming reducers over a many-shard store, bit for bit: grid
    counts, the exact quantile's histogram passes, group splits and the
    merged digests and moments behind every quantile and summary."""
    write_dataset(small_dataset, tmp_path / "store", rows_per_shard=SCAN_ROWS_PER_SHARD)
    scan = scan_store(tmp_path / "store")
    assert len(scan.reader.manifest.shards) == 6
    # SMALL's rows fit under the exact quantile's sort ceiling; a small
    # ceiling makes it narrow through histogram passes to the same value.
    sorted_once = scan.quantile("rtt_avg", 0.95, exact=True)
    monkeypatch.setattr(scan_module, "_EXACT_QUANTILE_MATERIALIZE", 1 << 6)
    answers = scan_answers(scan)
    assert answers["p95_rtt_avg_exact"] == (sorted_once,)
    digests = {name: array_digest(arrays) for name, arrays in answers.items()}
    moved = {name: digest for name, digest in digests.items() if digest != SCAN_GOLDENS[name]}
    assert not moved, f"scan answers moved: now {moved}"


# -- the kernel ---------------------------------------------------------------------

#: One country per infrastructure tier.
TIER_COUNTRIES = {1: "DE", 2: "PL", 3: "BR", 4: "NG"}

T0 = 1_567_296_000

#: An IPv6-style target adjustment, as the platform applies for af=6.
V6 = EndpointAdjustment(path_factor=1.03, peering_factor=1.20, extra_ms=1.5)


def kernel_window():
    """28 flows (7 technologies x tiers 1-4) towards Frankfurt: the flows,
    their flow-major timestamps and the rows of each."""
    frankfurt = get_country("DE")
    flows, stamps = [], []
    techs = list(AccessTechnology)
    for index, (tier, tech) in enumerate(
        (tier, tech) for tier in sorted(TIER_COUNTRIES) for tech in techs
    ):
        country = get_country(TIER_COUNTRIES[tier])
        flows.append(
            PingFlow(
                origin=country.centroid,
                origin_country=country,
                tech=tech,
                target=frankfurt.centroid,
                target_country=frankfurt,
                origin_id=1_000 + index,
                target_id="aws:eu-central-1",
                adjustment=V6 if index % 3 == 0 else EndpointAdjustment(),
            )
        )
        ticks = 6 + index % 7
        stamps.append(T0 + 137 * index + 5_400 * np.arange(ticks, dtype=np.int64))
    return flows, np.concatenate(stamps), [len(ts) for ts in stamps]


def kernel_columns(model):
    """The window's kernel output, flow-major, from one call."""
    flows, timestamps, counts = kernel_window()
    batch = model.ping_batch(flows, timestamps, counts, packets=3)
    return {
        name: getattr(batch, name)
        for name in ("received", "rtts_ms", "rtt_min", "rtt_avg")
    }


def kernel_digest(columns) -> str:
    digest = hashlib.sha256()
    for name in ("received", "rtts_ms", "rtt_min", "rtt_avg"):
        values = np.ascontiguousarray(columns[name])
        digest.update(f"{name}:{values.dtype.str}:{values.shape}\n".encode())
        digest.update(values.tobytes())
    return digest.hexdigest()


def test_kernel_window():
    columns = kernel_columns(LatencyModel(seed=SEED))
    assert len(columns["rtt_min"]) == sum(kernel_window()[2])
    digest = kernel_digest(columns)
    assert digest == KERNEL_GOLDEN, f"kernel window moved: now sha256 {digest}"

"""Direct-to-store multiprocess ingest: byte parity with serial writes.

On a clean wire a store-backed collection takes the shard sink
(:class:`~repro.core.campaign.DirectStoreCollector`): its ranges stream
interior store shards straight to disk.  Its entire correctness story
is *byte identity*: for every fault profile and worker count — whichever
sink actually engages (shards for a clean wire, records under chaos) —
the committed store files are identical to a serial write, worker
crashes and hangs included.  A degraded collection must never commit at
all.
"""

import os

import pytest

from repro.core.campaign import Campaign, CampaignScale
from repro.errors import CampaignError
from repro.obs import Obs
from repro.store import CampaignCatalog

from .conftest import PARITY_WORKERS, deterministic_process_stats, hold_first_range

FIXTURE_SEED = 7

PROFILES = ("none", "flaky", "outage")

HAS_FORK = hasattr(os, "fork")


def build_campaign(profile="none"):
    return Campaign.from_paper(
        scale=CampaignScale.TINY,
        seed=FIXTURE_SEED,
        faults=None if profile == "none" else profile,
    )


def store_files(root):
    """name -> bytes for the single catalog entry under ``root``."""
    (fingerprint,) = CampaignCatalog(root).entries()
    return {
        p.name: p.read_bytes() for p in sorted((root / fingerprint).iterdir())
    }


@pytest.fixture(scope="module")
def serial_files(tmp_path_factory):
    """Serial store bytes, one entry per profile — the parity baseline."""
    out = {}
    for profile in PROFILES:
        root = tmp_path_factory.mktemp(f"serial-{profile}")
        build_campaign(profile).run(store=root)
        out[profile] = store_files(root)
    return out


class TestDirectStoreByteParity:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_store_bytes_identical_across_paths(
        self, serial_files, tmp_path, profile, workers
    ):
        """Every (profile, workers) combination commits the serial bytes.

        A clean wire takes the shard sink at any worker count; a chaos
        wire cannot precompute its row counts and takes the record sink
        — either way the files must match.
        """
        campaign = build_campaign(profile)
        campaign.run(workers=workers, store=tmp_path / "catalog")
        assert store_files(tmp_path / "catalog") == serial_files[profile]
        sinks = {stats["sink"] for stats in campaign.worker_process_stats}
        assert sinks == {"shard" if profile == "none" else "record"}

    @pytest.mark.skipif(not HAS_FORK, reason="forked workers require os.fork")
    def test_direct_on_commits_and_reports_worker_stats(
        self, serial_files, tmp_path
    ):
        campaign = build_campaign("none")
        dataset = campaign.run(workers=2, store=tmp_path / "catalog")
        assert store_files(tmp_path / "catalog") == serial_files["none"]
        stats = campaign.worker_process_stats
        assert len(stats) == 2
        assert sum(s["rows"] for s in stats) == len(dataset)
        for entry in stats:
            assert entry["pid"] != os.getpid()  # really another process
            assert entry["rows_per_s"] > 0

    def test_cache_hit_after_direct_commit(self, serial_files, tmp_path):
        """A second run against the committed catalog opens, not collects."""
        build_campaign("none").run(workers=4, store=tmp_path / "catalog")
        reopening = build_campaign("none")
        reopening.run(store=tmp_path / "catalog")
        assert reopening.collection_stats.measurements_collected == 0
        assert store_files(tmp_path / "catalog") == serial_files["none"]


@pytest.mark.skipif(not HAS_FORK, reason="forked workers require os.fork")
class TestDirectStoreUnderWorkerChaos:
    def test_crashes_and_respawns_still_commit_serial_bytes(
        self, serial_files, tmp_path
    ):
        """Worker deaths mid-stream never leak into the committed bytes:
        respawned ranges rewrite identical chunks."""
        campaign = build_campaign("none")
        campaign.run(
            workers=2,
            store=tmp_path / "catalog",
            worker_faults="pathological",
        )
        report = campaign.supervision
        assert report.crashes + report.hangs > 0
        assert report.respawns == report.crashes + report.hangs
        assert not report.degraded
        assert store_files(tmp_path / "catalog") == serial_files["none"]

    def test_deaths_never_refetch_finished_windows(
        self, serial_files, tmp_path, monkeypatch
    ):
        """A dead range hands back what it finished: across every forked
        worker, each window is fetched exactly once."""
        log = tmp_path / "fetches.log"
        original = Campaign._fetch_measurement

        def counted(self, *args, **kwargs):
            # One O_APPEND write per call: atomic across processes.
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, b"fetch\n")
            finally:
                os.close(fd)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Campaign, "_fetch_measurement", counted)
        campaign = build_campaign("none")
        campaign.run(
            workers=2, store=tmp_path / "catalog", worker_faults="crashy"
        )
        assert campaign.supervision.crashes > 0
        assert not campaign.supervision.degraded
        windows = len(campaign.measurement_ids)
        assert windows == 101
        assert len(log.read_bytes().splitlines()) == windows
        assert store_files(tmp_path / "catalog") == serial_files["none"]

    def test_worker_exit_without_payload_sweeps_then_raises(
        self, tmp_path, monkeypatch
    ):
        """A worker that dies for real — no payload, not scheduled chaos —
        fails the collection, after its partly written store is swept."""

        def die(self, *args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(Campaign, "_fetch_measurement", die)
        catalog_root = tmp_path / "catalog"
        with pytest.raises(CampaignError, match="without a payload"):
            build_campaign("none").run(workers=2, store=catalog_root)
        assert list(catalog_root.iterdir()) == []

    def test_failed_assembly_sweeps_then_raises(self, tmp_path, monkeypatch):
        """A commit that fails after every range landed leaves no
        uncommitted entry behind: the workers' chunks are swept."""
        import repro.store.writer as writer_module
        from repro.errors import StoreError

        def fail(*args, **kwargs):
            raise StoreError("injected assembly failure")

        monkeypatch.setattr(writer_module, "assemble_direct_store", fail)
        catalog = CampaignCatalog(tmp_path / "catalog", rows_per_shard=4096)
        with pytest.raises(StoreError, match="injected assembly failure"):
            build_campaign("none").run(workers=2, store=catalog)
        assert list(catalog.root.iterdir()) == []

    def test_wedged_worker_times_out_sweeps_then_raises(
        self, tmp_path, monkeypatch
    ):
        """A worker that really wedges — it never sends, never exits —
        is terminated once the parent's wait runs out, and the collection
        fails after its partly written store is swept."""
        import time

        import repro.core.supervisor as supervisor_module

        def wedge(self, *args, **kwargs):
            time.sleep(60)

        monkeypatch.setattr(supervisor_module, "WORKER_TIMEOUT_S", 0.5)
        monkeypatch.setattr(Campaign, "_fetch_measurement", wedge)
        catalog_root = tmp_path / "catalog"
        started = time.monotonic()
        with pytest.raises(CampaignError, match="sent nothing"):
            build_campaign("none").run(workers=2, store=catalog_root)
        assert time.monotonic() - started < 30
        assert list(catalog_root.iterdir()) == []

    def test_wedged_range_beside_a_healthy_one_still_times_out(
        self, tmp_path, monkeypatch
    ):
        """Only range 0 wedges.  Range 1 finishes and is received, and
        the wedged range still fails the run once its own wait, counted
        from its launch, runs out."""
        import time

        import repro.core.supervisor as supervisor_module

        fetch = Campaign._fetch_measurement
        receive = supervisor_module.Supervisor._receive
        arrivals = []

        def wedge_first(self, transport, index, *args):
            if index == 0:
                time.sleep(60)
            return fetch(self, transport, index, *args)

        def recorded(self, rid, *args):
            outcome = receive(self, rid, *args)
            arrivals.append(rid)
            return outcome

        monkeypatch.setattr(supervisor_module, "WORKER_TIMEOUT_S", 5.0)
        monkeypatch.setattr(Campaign, "_fetch_measurement", wedge_first)
        monkeypatch.setattr(supervisor_module.Supervisor, "_receive", recorded)
        catalog_root = tmp_path / "catalog"
        started = time.monotonic()
        with pytest.raises(CampaignError, match="range worker 0 sent nothing"):
            build_campaign("none").run(workers=2, store=catalog_root)
        assert time.monotonic() - started < 30
        assert arrivals == [1]
        assert list(catalog_root.iterdir()) == []

    def test_later_range_first_under_crashy_commits_the_same(
        self, serial_files, tmp_path, monkeypatch
    ):
        """Range 0 held back until another range is in: the shard sink
        commits the serial bytes, and the transport stats, obs snapshot,
        span order, supervision report and worker stats equal an
        unheld run's."""

        def crashy_run(root):
            campaign = Campaign.from_paper(
                scale=CampaignScale.TINY, seed=FIXTURE_SEED, obs=Obs()
            )
            campaign.run(
                workers=PARITY_WORKERS, store=root, worker_faults="crashy"
            )
            assert campaign.supervision.crashes > 0
            assert store_files(root) == serial_files["none"]
            stats = campaign.worker_process_stats
            assert {entry["sink"] for entry in stats} == {"shard"}
            return {
                "transport": campaign.transport_stats(),
                "snapshot": campaign.obs.registry.snapshot(),
                "shards": [
                    span["attrs"]["shard"]
                    for span in campaign.obs.tracer.finished
                    if span["name"] == "campaign.shard"
                ],
                "supervision": campaign.supervision.as_dict(),
                "processes": deterministic_process_stats(stats),
            }

        expected = crashy_run(tmp_path / "plain")
        arrivals = hold_first_range(monkeypatch, tmp_path / "received")
        held = crashy_run(tmp_path / "held")
        assert arrivals != sorted(arrivals)  # a later range really came first
        assert held == expected

    def test_degraded_run_never_commits_then_clean_rerun_does(
        self, serial_files, tmp_path, monkeypatch
    ):
        """Interruption + resume: a quarantine-degraded direct run leaves
        the catalog empty; the clean retry commits the serial bytes."""
        import repro.core.supervisor as supervisor_module

        original = supervisor_module.Supervisor

        class OneStrike(original):
            def __init__(self, campaign, **kwargs):
                kwargs["max_attempts"] = 1
                super().__init__(campaign, **kwargs)

        monkeypatch.setattr(supervisor_module, "Supervisor", OneStrike)
        catalog_root = tmp_path / "catalog"
        degraded = build_campaign("none")
        dataset = degraded.run(
            workers=2, store=catalog_root, worker_faults="pathological"
        )
        assert degraded.supervision.degraded
        assert degraded.supervision.quarantined
        assert CampaignCatalog(catalog_root).entries() == []
        # The fallback dataset still served the surviving windows.
        assert len(dataset) > 0
        monkeypatch.setattr(supervisor_module, "Supervisor", original)
        build_campaign("none").run(workers=2, store=catalog_root)
        assert store_files(catalog_root) == serial_files["none"]

    def test_degraded_run_is_the_same_with_and_without_a_store(
        self, tmp_path, monkeypatch
    ):
        """One policy for every sink: a degraded run quarantines the same
        windows, fetches each window as often, accounts the same transport
        stats and counters, and freezes the same bytes whether or not it
        has a store; the store run commits nothing."""
        import repro.core.supervisor as supervisor_module
        from repro.obs import Obs

        from tests.integration.conftest import dataset_fingerprint

        original = supervisor_module.Supervisor

        class OneStrike(original):
            def __init__(self, campaign, **kwargs):
                kwargs["max_attempts"] = 1
                super().__init__(campaign, **kwargs)

        log = tmp_path / "fetches.log"
        fetch = Campaign._fetch_measurement

        def counted(self, *args, **kwargs):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, b"fetch\n")
            finally:
                os.close(fd)
            return fetch(self, *args, **kwargs)

        def degraded_run(**kwargs):
            log.write_bytes(b"")
            campaign = Campaign.from_paper(
                scale=CampaignScale.TINY, seed=FIXTURE_SEED, obs=Obs()
            )
            dataset = campaign.run(
                workers=2, worker_faults="pathological", **kwargs
            )
            counters = {
                (name, tuple(labels)): value
                for name, labels, value in campaign.obs.registry.export()["counters"]
                if not name.startswith("store_")
            }
            fetches = len(log.read_bytes().splitlines())
            return campaign, dataset, counters, fetches

        monkeypatch.setattr(supervisor_module, "Supervisor", OneStrike)
        monkeypatch.setattr(Campaign, "_fetch_measurement", counted)
        catalog_root = tmp_path / "catalog"
        stored, stored_dataset, stored_counters, stored_fetches = degraded_run(
            store=catalog_root
        )
        plain, plain_dataset, plain_counters, plain_fetches = degraded_run()
        assert plain.supervision.degraded
        assert len(plain.supervision.quarantined) > 1
        assert stored.supervision.quarantined == plain.supervision.quarantined
        assert dataset_fingerprint(stored_dataset) == dataset_fingerprint(
            plain_dataset
        )
        windows = len(plain.measurement_ids)
        assert stored_fetches == plain_fetches
        assert plain_fetches == windows - len(plain.supervision.quarantined)
        assert stored.transport_stats() == plain.transport_stats()
        assert stored_counters == plain_counters
        assert CampaignCatalog(catalog_root).entries() == []

"""Supervised collection: chaos determinism, the watchdog, degraded mode.

The supervisor's contract: seeded worker chaos is a pure function of
``(seed, window, attempt)`` — never of worker count — hangs are reaped
or survived by the deadline alone, respawned attempts eventually
complete the dataset, and windows that keep dying are quarantined into
an explicit degraded mode that surfaces in the health report and never
commits to a store.
"""

from __future__ import annotations

import pytest

from repro.atlas.faults import WORKER_PROFILES, get_worker_profile
from repro.core.campaign import Campaign, CampaignScale, CollectionCheckpoint
from repro.core.dataset import CampaignDataset
from repro.core.completeness import health_report
from repro.core.supervisor import Supervisor, WorkerChaos
from repro.errors import AtlasError


def _tiny(seed=7, **kwargs):
    return Campaign.from_paper(scale=CampaignScale.TINY, seed=seed, **kwargs)


class TestWorkerProfiles:
    def test_registry_and_lookup(self):
        assert get_worker_profile("steady").is_noop
        assert not get_worker_profile("crashy").is_noop
        assert get_worker_profile(WORKER_PROFILES["wedged"]).name == "wedged"

    def test_unknown_profile_rejected(self):
        with pytest.raises(AtlasError, match="unknown worker fault profile"):
            get_worker_profile("immortal")


class TestWorkerChaos:
    def test_decisions_are_deterministic(self):
        left = WorkerChaos(7, "pathological")
        right = WorkerChaos(7, "pathological")
        args = (100042, 1_500_000_000, 1_500_600_000)
        decisions = [left.decide(*args, attempt) for attempt in range(8)]
        assert decisions == [right.decide(*args, attempt) for attempt in range(8)]

    def test_attempt_rerolls_the_fate(self):
        """A window that dies on one attempt must not die identically
        forever — the attempt number is part of the key."""
        chaos = WorkerChaos(7, "pathological")
        fates = {
            chaos.decide(100000 + w, 1_500_000_000, 1_500_600_000, attempt)
            for w in range(40)
            for attempt in range(4)
        }
        assert None in fates  # survival is reachable on some attempt

    def test_noop_profile_never_strikes(self):
        chaos = WorkerChaos(7, "steady")
        assert all(
            chaos.decide(100000 + w, 0, 1, 0) is None for w in range(200)
        )


class TestSupervisedCollection:
    def test_chaos_survives_to_a_complete_dataset(self):
        campaign = _tiny()
        baseline = campaign.run()
        supervised = _tiny()
        dataset = supervised.run(workers=2, worker_faults="crashy")
        report = supervised.supervision
        assert report is not None
        assert report.crashes > 0 and report.respawns > 0
        assert not report.degraded
        assert report.collected == report.windows
        assert dataset.num_samples == baseline.num_samples

    def test_casualty_counts_are_worker_count_invariant(self):
        reports = []
        for workers in (1, 4):
            campaign = _tiny()
            campaign.run(workers=workers, worker_faults="pathological")
            reports.append(campaign.supervision)
        assert reports[0].crashes == reports[1].crashes
        assert reports[0].hangs == reports[1].hangs

    def test_steady_profile_bypasses_the_supervisor(self):
        campaign = _tiny()
        campaign.run(workers=2, worker_faults="steady")
        assert campaign.supervision is None

    def test_hang_under_deadline_is_recovered_not_reaped(self):
        campaign = _tiny()
        campaign.create_measurements()
        dataset = CampaignDataset(campaign.platform.probes, campaign.platform.fleet)
        supervisor = Supervisor(
            campaign, workers=2, worker_faults="wedged", deadline_s=1200.0
        )
        report = supervisor.collect_into(dataset)
        assert report.hangs == 0  # nothing reaped: 600s < 1200s deadline
        assert report.hangs_recovered > 0
        assert report.collected == report.windows

    def test_hang_past_deadline_is_reaped(self):
        campaign = _tiny()
        campaign.create_measurements()
        dataset = CampaignDataset(campaign.platform.probes, campaign.platform.fleet)
        supervisor = Supervisor(
            campaign, workers=2, worker_faults="wedged", deadline_s=300.0
        )
        report = supervisor.collect_into(dataset)
        assert report.hangs > 0 and report.hangs_recovered == 0
        assert report.collected == report.windows


class TestDegradedMode:
    def _degraded_run(self, **collect_kwargs):
        """One attempt per window: any strike quarantines immediately."""
        campaign = _tiny()
        campaign.create_measurements()
        dataset = CampaignDataset(campaign.platform.probes, campaign.platform.fleet)
        supervisor = Supervisor(
            campaign, workers=2, worker_faults="pathological", max_attempts=1
        )
        report = supervisor.collect_into(dataset, **collect_kwargs)
        dataset.freeze()
        return campaign, dataset, report

    def test_quarantine_past_max_attempts(self):
        campaign, dataset, report = self._degraded_run()
        assert report.degraded
        # Respawns still happen (a dead range's untouched remainder
        # needs a new worker) but every quarantined window died on its
        # one and only attempt.
        assert report.collected + len(report.quarantined) == report.windows
        assert dataset.num_samples < _tiny().run().num_samples

    def test_checkpoint_never_advances_past_a_quarantined_window(self):
        checkpoint = CollectionCheckpoint()
        campaign, _, report = self._degraded_run(checkpoint=checkpoint)
        for msm_id, _ in report.quarantined:
            assert checkpoint.collected_through(
                msm_id, campaign.start_time
            ) < campaign.stop_time

    def test_health_report_surfaces_the_supervision_section(self):
        campaign, dataset, report = self._degraded_run()
        health = health_report(campaign, dataset)
        section = health["supervision"]
        assert section["degraded"] is True
        assert section["quarantined"][0]["msm_id"] == report.quarantined[0][0]

    def test_degraded_collection_never_commits_to_the_store(
        self, tmp_path, monkeypatch
    ):
        import repro.core.supervisor as supervisor_module
        from repro.store import CampaignCatalog

        original = supervisor_module.Supervisor

        class OneStrike(original):
            def __init__(self, campaign, **kwargs):
                kwargs["max_attempts"] = 1
                super().__init__(campaign, **kwargs)

        monkeypatch.setattr(supervisor_module, "Supervisor", OneStrike)
        catalog = CampaignCatalog(tmp_path / "catalog")
        campaign = _tiny()
        campaign.run(store=catalog, workers=2, worker_faults="pathological")
        assert campaign.supervision.degraded
        assert catalog.entries() == []  # a partial dataset is never cached

    def test_resume_after_degraded_run_completes_the_dataset(self):
        """The quarantined windows stay pending: a later supervised run
        with working workers picks them up and finishes byte-identically."""
        checkpoint = CollectionCheckpoint()
        campaign = _tiny()
        campaign.create_measurements()
        dataset = CampaignDataset(campaign.platform.probes, campaign.platform.fleet)
        Supervisor(
            campaign, workers=2, worker_faults="pathological", max_attempts=1
        ).collect_into(dataset, checkpoint=checkpoint)
        assert campaign.supervision.degraded

        # The outage ends: resume over the same checkpoint, no faults.
        campaign.collect_into(dataset, checkpoint=checkpoint)
        dataset.freeze()
        baseline = _tiny().run()
        assert dataset.num_samples == baseline.num_samples

"""Tests for repro.atlas.faults — the deterministic fault injector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas.api.retry import SimulatedClock
from repro.atlas.faults import PROFILES, FaultInjector, FaultProfile, get_profile
from repro.errors import (
    AtlasError,
    MaintenanceError,
    TransientTransportError,
    TruncatedPageError,
)


def fault_schedule(seed, profile, calls=200, endpoint="results"):
    """Record which call indices fault, and with what, for a fresh injector."""
    injector = FaultInjector(seed, profile, clock=SimulatedClock())
    schedule = []
    for index in range(calls):
        try:
            injector.before_call(endpoint)
        except TransientTransportError as fault:
            schedule.append((index, type(fault).__name__))
    return schedule


class TestProfiles:
    def test_registry_levels(self):
        assert set(PROFILES) == {"none", "flaky", "outage", "hostile"}

    def test_none_is_noop(self):
        assert PROFILES["none"].is_noop
        assert not PROFILES["flaky"].is_noop

    def test_get_profile_by_name_and_passthrough(self):
        assert get_profile("flaky") is PROFILES["flaky"]
        custom = FaultProfile(name="custom", timeout=0.5)
        assert get_profile(custom) is custom

    def test_unknown_profile_rejected(self):
        with pytest.raises(AtlasError):
            get_profile("apocalypse")

    def test_flaky_never_corrupts_data(self):
        # The chaos identity guarantee rests on this: flaky faults are all
        # recoverable, so the collector can converge to the exact
        # fault-free dataset.
        assert PROFILES["flaky"].malformed == 0.0
        assert PROFILES["flaky"].maintenance == 0.0


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = fault_schedule(11, "flaky")
        b = fault_schedule(11, "flaky")
        assert a == b
        assert a  # the profile actually fires at these rates

    def test_different_seed_different_schedule(self):
        assert fault_schedule(11, "flaky") != fault_schedule(12, "flaky")

    def test_mangle_deterministic(self):
        page = [{"prb_id": i, "timestamp": i, "type": "ping"} for i in range(50)]
        outs = []
        for _ in range(2):
            injector = FaultInjector(3, "hostile", clock=SimulatedClock())
            mangled = []
            for _call in range(40):
                try:
                    mangled.append(injector.mangle_page(list(page)))
                except TruncatedPageError as exc:
                    mangled.append(("truncated", exc.got))
            outs.append(mangled)
        assert outs[0] == outs[1]


class TestDataFaults:
    def test_duplicates_are_copies_of_real_entries(self):
        page = [{"prb_id": i, "timestamp": i, "type": "ping"} for i in range(30)]
        injector = FaultInjector(
            0, FaultProfile(name="dup", duplicate_page=1.0), clock=SimulatedClock()
        )
        mangled = injector.mangle_page(list(page))
        assert len(mangled) > len(page)
        for entry in mangled:
            assert entry in page  # every entry equals a canonical one
        assert mangled[: len(page)] == page  # originals keep their order

    def test_malformed_blob_unparseable(self):
        from repro.atlas.results.base import Result
        from repro.errors import ResultParseError

        page = [
            {
                "type": "ping", "msm_id": 1, "prb_id": i, "timestamp": 100 + i,
                "sent": 3, "rcvd": 3,
                "result": [{"rtt": 10.0}, {"rtt": 11.0}, {"rtt": 12.0}],
            }
            for i in range(10)
        ]
        injector = FaultInjector(
            0, FaultProfile(name="bad", malformed=1.0), clock=SimulatedClock()
        )
        for _ in range(12):
            bad = 0
            for entry in injector.mangle_page(list(page)):
                try:
                    Result.get(entry)
                except ResultParseError:
                    bad += 1
            assert bad == 1  # exactly one corruption per page, unparseable

    def test_mangle_never_mutates_canonical_page(self):
        page = [{"prb_id": i, "timestamp": i, "type": "ping"} for i in range(10)]
        pristine = [dict(entry) for entry in page]
        injector = FaultInjector(
            0,
            FaultProfile(name="bad", malformed=1.0, duplicate_page=1.0),
            clock=SimulatedClock(),
        )
        for _ in range(10):
            injector.mangle_page(page)
        assert page == pristine


class TestMaintenance:
    def test_window_opens_and_clears_with_clock(self):
        clock = SimulatedClock()
        profile = FaultProfile(
            name="outage-only", maintenance=1.0, maintenance_duration_s=600.0
        )
        injector = FaultInjector(0, profile, clock=clock)
        with pytest.raises(MaintenanceError) as excinfo:
            injector.before_call("results")
        assert excinfo.value.retry_after == 600.0
        # Still inside the window: every call 503s with the remaining time.
        clock.sleep(300)
        with pytest.raises(MaintenanceError) as excinfo:
            injector.before_call("results")
        assert excinfo.value.retry_after == pytest.approx(300.0)
        # Window passed: the next draw opens a fresh one (p=1.0 here), but
        # the old window no longer blocks.
        clock.sleep(301)
        with pytest.raises(MaintenanceError) as excinfo:
            injector.before_call("results")
        assert excinfo.value.retry_after == 600.0

    def test_counts_accumulate(self):
        schedule = fault_schedule(5, "hostile", calls=300)
        injector = FaultInjector(5, "hostile", clock=SimulatedClock())
        for _ in range(300):
            try:
                injector.before_call("results")
            except TransientTransportError:
                pass
        assert sum(injector.counts.values()) == len(schedule)
        assert injector.stats() == {k: injector.counts[k] for k in sorted(injector.counts)}


# -- the page plan ------------------------------------------------------------

#: Every page duplicates a slice and corrupts one delivered entry.
FORCED_OVERLAP = FaultProfile(name="overlap", duplicate_page=1.0, malformed=1.0)


def tagged_page(first_row, size):
    """Parseable ping dicts, each tagged with its row index."""
    return [
        {
            "type": "ping", "msm_id": 1, "prb_id": 1 + row % 5,
            "timestamp": 1_000 + row, "sent": 1, "rcvd": 1,
            "result": [{"rtt": 1.0 + row}], "row": row,
        }
        for row in range(first_row, first_row + size)
    ]


def intact(entry, row):
    return isinstance(entry, dict) and entry == tagged_page(row, 1)[0]


class TestPagePlan:
    """``plan_page`` decides what ``mangle_page`` does to a page, from its
    length alone: the columnar fetch replays chaos from the plan."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        profile=st.sampled_from(
            [PROFILES["flaky"], PROFILES["outage"], PROFILES["hostile"],
             FORCED_OVERLAP]
        ),
        rows=st.integers(min_value=0, max_value=1_200),
        page_size=st.integers(min_value=1, max_value=600),
    )
    def test_plan_agrees_with_mangle_page(self, seed, profile, rows, page_size):
        from repro.atlas.faults import surviving_rows
        from repro.atlas.results.ping import PingColumns
        from repro.obs import Obs

        planner = FaultInjector(seed, profile, clock=SimulatedClock(), obs=Obs())
        mangler = FaultInjector(seed, profile, clock=SimulatedClock(), obs=Obs())
        pages, delivered = [], []
        for first_row in range(0, rows, page_size) if rows else (0,):
            page = tagged_page(first_row, min(page_size, rows - first_row))
            while True:  # re-fetch a truncated page, as the transport does
                try:
                    plan = planner.plan_page(len(page))
                except TruncatedPageError as truncated:
                    with pytest.raises(TruncatedPageError) as mangled_truncated:
                        mangler.mangle_page(page)
                    assert mangled_truncated.value.got == truncated.got
                    assert mangled_truncated.value.declared == len(page)
                    continue
                break
            mangled = mangler.mangle_page(page)
            order = plan.order() + first_row
            assert len(mangled) == len(order)
            corrupted = [
                position
                for position, (row, entry) in enumerate(zip(order, mangled))
                if not intact(entry, row)
            ]
            assert corrupted == ([] if plan.corrupt is None else [plan.corrupt])
            pages.append((first_row, plan))
            delivered.extend(mangled)
        assert planner.stats() == mangler.stats()
        assert (
            planner.obs.registry.snapshot()["counters"]
            == mangler.obs.registry.snapshot()["counters"]
        )
        # Replaying the plans over row indices keeps exactly the rows the
        # dict-path reference keeps from the mangled dicts, in its order.
        kept, quarantined, duplicates = surviving_rows(pages)
        reference = PingColumns.from_raw(delivered)
        assert np.array_equal(reference.columns.timestamps - 1_000, kept)
        assert (quarantined, duplicates) == (
            reference.quarantined, reference.duplicates
        )

    def test_empty_page_plans_nothing(self):
        injector = FaultInjector(0, FORCED_OVERLAP, clock=SimulatedClock())
        plan = injector.plan_page(0)
        assert len(plan.order()) == 0 and plan.corrupt is None
        assert plan.apply([]) == []
        assert injector.stats() == {}

"""Property-based tests for the collection range planner.

``plan_row_shards`` carries the exactly-once guarantee the whole parity
contract rests on: if an index were dropped or doubled, the merged
dataset would silently diverge from a serial run.  Hypothesis sweeps
arbitrary (fleet size, worker count) combinations instead of a handful
of hand-picked ones — with unit weights, the plan the record sink walks
when row counts are unknown, and with exact row counts, the plan the
shard sink writes.
"""

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import plan_row_shards, resolve_workers
from repro.errors import CampaignError


def plan_shards(count, workers):
    """A unit-weight plan as the list of each range's window indices."""
    return [
        list(range(*shard.entries))
        for shard in plan_row_shards([1] * count, workers, 1)
    ]


class TestPlanShardsProperties:
    """Unit weights: ranges balanced by window count."""

    @given(count=st.integers(0, 600), workers=st.integers(1, 64))
    @settings(max_examples=200)
    def test_every_measurement_assigned_exactly_once_in_order(
        self, count, workers
    ):
        shards = plan_shards(count, workers)
        flat = [index for shard in shards for index in shard]
        # Concatenating the shards reproduces range(count) exactly:
        # every index once, canonical order, contiguous shards.
        assert flat == list(range(count))

    @given(count=st.integers(0, 600), workers=st.integers(1, 64))
    @settings(max_examples=200)
    def test_shards_are_balanced_and_never_empty(self, count, workers):
        shards = plan_shards(count, workers)
        assert len(shards) == min(workers, count)
        assert all(shard for shard in shards)
        if shards:
            sizes = [len(shard) for shard in shards]
            assert max(sizes) - min(sizes) <= 1

    @given(count=st.integers(0, 40), workers=st.integers(1, 1000))
    @settings(max_examples=100)
    def test_more_workers_than_measurements(self, count, workers):
        """Oversubscription degrades to one-measurement shards, never
        empty ones."""
        shards = plan_shards(count, workers)
        if workers >= count:
            assert shards == [[index] for index in range(count)]

    @given(count=st.integers(0, 600))
    @settings(max_examples=100)
    def test_single_worker_degenerates_to_serial(self, count):
        shards = plan_shards(count, 1)
        if count == 0:
            assert shards == []
        else:
            assert shards == [list(range(count))]


ROW_PLANS = st.tuples(
    st.lists(st.integers(0, 5000), max_size=60),
    st.integers(1, 16),
    st.integers(1, 4096),
)


class TestPlanRowShardsProperties:
    """Store-aware plans: the direct-write invariants, swept broadly.

    A :class:`~repro.core.campaign.RowShard` slice is writable
    shared-nothing only if its geometry is *exactly* consistent with the
    global row stream — its interior shards must land on global
    ``rows_per_shard`` boundaries, under their final indices, with the
    head/tail partials accounting for every remaining row.  These
    properties are what make direct-store manifest concatenation
    byte-identical to a serial write.
    """

    @given(plan_input=ROW_PLANS)
    @settings(max_examples=200)
    def test_slices_tile_measurements_and_rows_exactly(self, plan_input):
        counts, workers, rows_per_shard = plan_input
        plan = plan_row_shards(counts, workers, rows_per_shard)
        # Entry ranges concatenate to range(len(counts)): exactly once,
        # canonical order, no gaps.
        flat = [
            index for shard in plan for index in range(*shard.entries)
        ]
        assert flat == list(range(len(counts)))
        # Row offsets are the prefix sums of the entry counts — each
        # slice knows its true global position in the row stream.
        cursor = 0
        for shard in plan:
            lo, hi = shard.entries
            assert shard.row_start == cursor
            assert shard.rows == sum(counts[lo:hi])
            cursor += shard.rows
        assert cursor == sum(counts)

    @given(plan_input=ROW_PLANS)
    @settings(max_examples=200)
    def test_interior_shards_land_on_exact_global_boundaries(
        self, plan_input
    ):
        counts, workers, rows_per_shard = plan_input
        total = sum(counts)
        for shard in plan_row_shards(counts, workers, rows_per_shard):
            head = shard.head_rows(rows_per_shard)
            interior = shard.interior_shards(rows_per_shard)
            tail = shard.tail_rows(rows_per_shard)
            # The three segments account for every row in the slice.
            assert head + interior * rows_per_shard + tail == shard.rows
            assert 0 <= tail < rows_per_shard
            first_interior_row = shard.row_start + head
            if head < shard.rows:
                # The head fills up to the first global boundary …
                assert first_interior_row % rows_per_shard == 0
            # … and every interior shard is a whole global shard: its
            # final index times rows_per_shard is its global row span,
            # entirely inside this slice.
            first = shard.first_shard_index(rows_per_shard)
            for offset in range(interior):
                lo = (first + offset) * rows_per_shard
                assert lo == first_interior_row + offset * rows_per_shard
                assert shard.row_start <= lo
                assert lo + rows_per_shard <= shard.row_start + shard.rows
                assert lo + rows_per_shard <= total

    @given(plan_input=ROW_PLANS)
    @settings(max_examples=200)
    def test_interior_shard_indices_are_disjoint_across_workers(
        self, plan_input
    ):
        counts, workers, rows_per_shard = plan_input
        plan = plan_row_shards(counts, workers, rows_per_shard)
        claimed = []
        for shard in plan:
            first = shard.first_shard_index(rows_per_shard)
            claimed.extend(
                range(first, first + shard.interior_shards(rows_per_shard))
            )
        # No two workers ever write the same global shard file, and
        # claims arrive in ascending global order.
        assert claimed == sorted(set(claimed))

    @given(counts=st.lists(st.integers(0, 5000), max_size=60))
    @settings(max_examples=100)
    def test_single_worker_single_slice(self, counts):
        plan = plan_row_shards(counts, 1, 64)
        if not counts:
            assert plan == []
        else:
            (only,) = plan
            assert only.entries == (0, len(counts))
            assert only.row_start == 0
            assert only.rows == sum(counts)

    @given(plan_input=ROW_PLANS)
    @settings(max_examples=100)
    def test_row_balance_cuts_at_proportional_targets(self, plan_input):
        """No slice overshoots its balanced target by more than one
        window — the planner cuts as soon as the target is crossed."""
        counts, workers, rows_per_shard = plan_input
        total = sum(counts)
        plan = plan_row_shards(counts, workers, rows_per_shard)
        for shard in plan[:-1]:
            end = shard.row_start + shard.rows
            lo, hi = shard.entries
            last_window = counts[hi - 1]
            # Before its last window the slice was under *some* target.
            assert any(
                end - last_window < (total * k) // workers <= end
                or end == (total * k) // workers
                for k in range(1, workers + 1)
            )


class TestPlanRowShardsValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(CampaignError):
            plan_row_shards([10, -1], 2, 64)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(CampaignError):
            plan_row_shards([10], workers, 64)

    @pytest.mark.parametrize("rows_per_shard", [0, -64])
    def test_nonpositive_rows_per_shard_rejected(self, rows_per_shard):
        with pytest.raises(CampaignError):
            plan_row_shards([10], 2, rows_per_shard)


class TestPlanShardsValidation:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(CampaignError):
            plan_shards(10, workers)


class TestResolveWorkers:
    def test_none_and_one_mean_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_auto_is_positive_and_capped(self):
        assert 1 <= resolve_workers("auto") <= 8

    def test_auto_counts_only_the_cpus_this_process_may_use(self, monkeypatch):
        """A process pinned to one CPU of a 64-CPU machine gets one
        worker, not eight."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers("auto") == 1

    def test_explicit_count_passes_through(self):
        assert resolve_workers(6) == 6

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_rejected(self, workers):
        with pytest.raises(CampaignError):
            resolve_workers(workers)

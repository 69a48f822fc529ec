"""Zone-map and scan-engine correctness.

The load-bearing property: **pruning is invisible**.  For any store and
any predicate set, the scan with zone-map skipping yields exactly the
rows a full (skip-free) scan yields — row for row, byte for byte.
Hypothesis drives randomized predicates over randomized stores
(including NaN-heavy columns, where the ``!=`` edge cases live).

Plus the v1 back-compat contract: a pre-zone-map manifest still opens,
scans (pruning nothing), passes verification, and is upgraded in place
by ``backfill_zone_maps`` without changing a data byte.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError, StoreError, StoreIntegrityError
from repro.frame.stats import ecdf, summarize
from repro.frame.streaming import (
    DEFAULT_COMPRESSION,
    DIGEST_REVISION,
    StreamingSummary,
)
from repro.obs import Obs
from repro.store import (
    Manifest,
    Predicate,
    StoreReader,
    StoreWriter,
    ZoneMap,
    backfill_zone_maps,
    scan_store,
)
from repro.store.format import FORMAT_VERSION, MANIFEST_NAME
from repro.store.scan import AggregateCache
from repro.store.writer import legacy_copy

from tests.store.conftest import synthetic_columns

OPS = ("==", "!=", "<", "<=", ">", ">=")


def counter(obs, name):
    """Current value of one obs counter (0 if never incremented)."""
    return obs.registry.counter(name).value


def build_store(path, rows, seed=0, rows_per_shard=64):
    writer = StoreWriter(
        path, provenance={"seed": seed}, rows_per_shard=rows_per_shard
    )
    columns = synthetic_columns(rows, seed=seed)
    writer.append_columns(columns)
    writer.finalize()
    return columns


def full_scan_rows(columns, predicates, select):
    """Reference semantics: numpy mask over the whole columns."""
    mask = np.ones(len(columns["timestamp"]), dtype=bool)
    for predicate in predicates:
        mask &= predicate.mask(columns[predicate.column])
    return {name: columns[name][mask] for name in select}


def scanned_rows(scan, select):
    parts = {name: [] for name in select}
    for chunk in scan.chunks():
        for name in select:
            parts[name].append(np.asarray(chunk[name]))
    return {
        name: (
            np.concatenate(arrays)
            if arrays
            else np.empty(0, dtype=scan.reader.column(name).dtype)
        )
        for name, arrays in parts.items()
    }


def rows_equal(left, right):
    for name in left:
        a, b = np.asarray(left[name]), np.asarray(right[name])
        if len(a) != len(b) or a.tobytes() != b.tobytes():
            return False
    return True


class TestZoneMapFormat:
    def test_writer_records_zones_for_every_chunk(self, tmp_path):
        build_store(tmp_path / "s", rows=200)
        manifest = Manifest.load(tmp_path / "s")
        zoned, total = manifest.zone_map_coverage()
        assert zoned == total > 0

    def test_zone_values_match_chunk_contents(self, tmp_path):
        columns = build_store(tmp_path / "s", rows=200, rows_per_shard=64)
        reader = StoreReader(tmp_path / "s")
        cursor = 0
        for shard in reader.manifest.shards:
            stop = cursor + shard.rows
            zone = shard.chunks["rtt_min"].zone
            window = columns["rtt_min"][cursor:stop]
            finite = window[~np.isnan(window)]
            assert zone.nulls == int(np.isnan(window).sum())
            assert zone.minimum == float(finite.min())
            assert zone.maximum == float(finite.max())
            int_zone = shard.chunks["probe_id"].zone
            assert int_zone.nulls == 0
            assert isinstance(int_zone.minimum, int)
            cursor = stop

    def test_all_nan_chunk_has_null_bounds(self):
        zone = ZoneMap.from_array(np.asarray([np.nan, np.nan]))
        assert zone.minimum is None and zone.maximum is None
        assert zone.nulls == 2

    def test_empty_chunk_zone(self):
        zone = ZoneMap.from_array(np.asarray([], dtype="<f8"))
        assert zone == ZoneMap(minimum=None, maximum=None, nulls=0)

    def test_zone_round_trips_through_json(self):
        zone = ZoneMap.from_array(np.asarray([1.5, np.nan, 3.5]))
        assert ZoneMap.from_dict(
            json.loads(json.dumps(zone.as_dict()))
        ) == zone


predicate_strategy = st.builds(
    lambda column, op, q: ("rtt_min", op, q * 300.0)
    if column == "rtt_min"
    else ("timestamp", op, 1_500_000_000 + int(q * 10_800 * 256)),
    st.sampled_from(["rtt_min", "timestamp"]),
    st.sampled_from(OPS),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestPruningIsInvisible:
    @given(
        rows=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
        raw_predicates=st.lists(predicate_strategy, min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_pruned_scan_equals_full_scan_row_for_row(
        self, tmp_path_factory, rows, seed, raw_predicates
    ):
        path = tmp_path_factory.mktemp("scan") / "s"
        columns = build_store(path, rows=rows, seed=seed, rows_per_shard=32)
        predicates = [Predicate(c, o, v) for c, o, v in raw_predicates]
        select = ("timestamp", "rtt_min", "probe_id")
        scan = scan_store(path).select(*select)
        for predicate in predicates:
            scan = scan.filter(predicate.column, predicate.op, predicate.value)
        expected = full_scan_rows(columns, predicates, select)
        assert rows_equal(scanned_rows(scan, select), expected)
        assert scan.count() == len(expected["timestamp"])

    @given(
        values=st.lists(
            st.one_of(st.floats(-5.0, 5.0), st.just(float("nan"))),
            min_size=1, max_size=6,
        ),
        op=st.sampled_from(OPS),
        value=st.one_of(st.floats(-6.0, 6.0), st.just(float("nan"))),
    )
    @settings(max_examples=300, deadline=None)
    def test_covers_only_when_every_row_matches(self, values, op, value):
        """``covers`` lets a shard skip its predicate column, so it may
        never claim a row that the exact mask rejects."""
        array = np.asarray(values)
        predicate = Predicate("rtt_min", op, value)
        if predicate.covers(ZoneMap.from_array(array)):
            assert predicate.mask(array).all()
        assert not predicate.covers(None)

    def test_ne_predicate_keeps_nan_rows(self, tmp_path):
        """NaN != v is True: a != predicate must yield NaN rows, and an
        all-NaN chunk must not be pruned under it."""
        writer = StoreWriter(
            tmp_path / "s", provenance={"seed": 0}, rows_per_shard=4
        )
        rtt = np.asarray(
            [np.nan, np.nan, np.nan, np.nan, 10.0, 10.0, 10.0, 10.0]
        )
        n = len(rtt)
        writer.append_columns(
            {
                "probe_id": np.arange(n, dtype="<i4"),
                "target_index": np.zeros(n, dtype="<i4"),
                "timestamp": np.arange(n, dtype="<i8"),
                "rtt_min": rtt,
                "rtt_avg": rtt,
                "sent": np.full(n, 3, dtype="<i2"),
                "rcvd": np.full(n, 3, dtype="<i2"),
            }
        )
        writer.finalize()
        scan = scan_store(tmp_path / "s").select("rtt_min")
        kept = scanned_rows(scan.filter("rtt_min", "!=", 10.0), ("rtt_min",))
        # All four NaN rows survive; every 10.0 row is dropped.
        assert len(kept["rtt_min"]) == 4
        assert np.all(np.isnan(kept["rtt_min"]))
        # The uniform ==10 shard prunes wholesale under !=; the NaN
        # shard must not.
        obs = Obs()
        scan2 = scan_store(tmp_path / "s", obs=obs).select("rtt_min")
        scanned_rows(scan2.filter("rtt_min", "!=", 10.0), ("rtt_min",))
        assert counter(obs, "scan_rows_pruned_total") == 4

    def test_eq_nan_matches_nothing(self, tmp_path):
        build_store(tmp_path / "s", rows=64)
        scan = scan_store(tmp_path / "s").filter("rtt_min", "==", np.nan)
        assert scan.count() == 0

    def test_selective_predicate_skips_chunks(self, tmp_path):
        """Timestamps are monotone, so a narrow range prunes most
        shards — observable in the counters."""
        build_store(tmp_path / "s", rows=512, rows_per_shard=32)
        obs = Obs()
        scan = (
            scan_store(tmp_path / "s", obs=obs)
            .select("rtt_min")
            .filter("timestamp", ">=", 1_500_000_000)
            .filter("timestamp", "<", 1_500_000_000 + 32 * 10_800)
        )
        result = scanned_rows(scan, ("rtt_min",))
        assert len(result["rtt_min"]) == 32
        assert counter(obs, "scan_chunks_skipped_total") > 0
        assert counter(obs, "scan_rows_scanned_total") < 512

    def test_unknown_column_rejected(self, tmp_path):
        build_store(tmp_path / "s", rows=16)
        scan = scan_store(tmp_path / "s")
        with pytest.raises(StoreError):
            scan.filter("no_such", "<", 1)
        with pytest.raises(StoreError):
            scan.select("no_such")
        with pytest.raises(StoreError):
            Predicate("rtt_min", "~", 1.0)


class TestStreamingAggregatesOverStores:
    @pytest.fixture
    def store(self, tmp_path):
        columns = build_store(tmp_path / "s", rows=500, rows_per_shard=64)
        return tmp_path / "s", columns

    def test_summarize_matches_in_memory(self, store):
        path, columns = store
        result = scan_store(path).summarize("probe_id")
        expected = summarize(columns["probe_id"])
        assert result.count == expected.count
        assert result.minimum == expected.minimum
        assert result.maximum == expected.maximum
        assert np.isclose(result.mean, expected.mean)

    def test_ecdf_grid_matches_in_memory_at_every_edge(self, store):
        path, columns = store
        grid = scan_store(path).streaming_ecdf("rtt_min", bins=64)
        exact = ecdf(columns["rtt_min"])
        for edge in grid.edges:
            assert grid.fraction_below(edge) == exact.fraction_below(edge)

    def test_ecdf_refuses_a_nan_edge(self, store):
        path, _ = store
        with pytest.raises(FrameError, match="strictly ascending"):
            scan_store(path).ecdf("rtt_min", edges=[0.0, float("nan"), 100.0])

    def test_exact_quantile_matches_ecdf_quantile(self, store):
        path, columns = store
        scan = scan_store(path)
        exact = ecdf(columns["probe_id"].astype(np.float64))
        for q in (0.0, 0.1, 0.5, 0.9, 0.95, 1.0):
            assert scan.quantile("probe_id", q, exact=True) == exact.quantile(q)

    def test_exact_quantile_under_predicate(self, store):
        path, columns = store
        scan = scan_store(path).filter("rtt_min", "<=", 150.0)
        kept = columns["rtt_min"][columns["rtt_min"] <= 150.0]
        assert scan.quantile("rtt_min", 0.5, exact=True) == ecdf(
            kept
        ).quantile(0.5)

    def test_group_by_matches_aggregate(self, store):
        path, columns = store
        from repro.frame import Frame, aggregate

        spec = {"n": ("rtt_min", "count"), "hi": ("rtt_min", "max")}
        result = scan_store(path).group_by(["rcvd"], spec)
        frame = Frame(
            {"rcvd": columns["rcvd"], "rtt_min": columns["rtt_min"]}
        )
        expected = aggregate(frame, ["rcvd"], spec)
        assert list(result.col("rcvd").values) == list(
            expected.col("rcvd").values
        )
        assert list(result.col("n").values) == list(expected.col("n").values)

    def test_aggregate_cache_hits_on_second_pass(self, store, tmp_path):
        path, _ = store
        cache = AggregateCache(tmp_path / "agg")
        obs = Obs()
        scan = scan_store(path, obs=obs, cache=cache)
        first = scan.summarize("probe_id")
        misses = counter(obs, "scan_aggcache_misses_total")
        assert misses > 0
        second = scan.summarize("probe_id")
        assert counter(obs, "scan_aggcache_hits_total") == misses
        assert counter(obs, "scan_aggcache_misses_total") == misses
        assert second.as_dict() == first.as_dict()

    def test_partial_from_an_older_digest_revision_misses(self, store, tmp_path):
        """The digest's compaction revision is part of every key: a
        partial cached under the revision-free payload (an older
        compaction) is never merged, and cold and warm runs agree."""
        path, _ = store
        cache = AggregateCache(tmp_path / "agg")
        scan = scan_store(path, cache=cache).filter("rtt_min", ">=", 0.0)
        spec = {"kind": "summary", "compression": DEFAULT_COMPRESSION}
        poisoned = StreamingSummary()
        poisoned.update([1e9])
        for shard in scan.reader.manifest.shards:
            legacy = {
                "format": FORMAT_VERSION,
                "column": "rtt_min",
                "dtype": scan.reader.manifest.dtype_of("rtt_min"),
                "predicates": [p.describe() for p in scan.predicates],
                "chunks": {"rtt_min": shard.chunks["rtt_min"].sha256},
                "spec": spec,
            }
            current = AggregateCache.key({**legacy, "digest_revision": DIGEST_REVISION})
            assert scan._partial_key(shard, "rtt_min", spec) == current
            cache.put(AggregateCache.key(legacy), poisoned.state())
        shards = len(scan.reader.manifest.shards)

        cold_obs, warm_obs = Obs(), Obs()
        cold = scan_store(path, obs=cold_obs, cache=cache).filter(
            "rtt_min", ">=", 0.0
        ).summarize("rtt_min")
        assert counter(cold_obs, "scan_aggcache_hits_total") == 0
        assert counter(cold_obs, "scan_aggcache_misses_total") == shards
        assert cold.maximum < 1e9
        warm = scan_store(path, obs=warm_obs, cache=cache).filter(
            "rtt_min", ">=", 0.0
        ).summarize("rtt_min")
        assert counter(warm_obs, "scan_aggcache_hits_total") == shards
        assert warm.as_dict() == cold.as_dict()

    def test_append_only_recomputes_new_shards(self, tmp_path):
        """The incremental-recompute contract: extend a store's rows and
        the shared leading shards hit cache; only the tail misses."""
        cache = AggregateCache(tmp_path / "agg")
        columns = synthetic_columns(256, seed=3)
        small = {name: col[:128] for name, col in columns.items()}
        for label, cols in (("small", small), ("big", columns)):
            writer = StoreWriter(
                tmp_path / label, provenance={"seed": 3}, rows_per_shard=64
            )
            writer.append_columns(cols)
            writer.finalize()
        obs = Obs()
        scan_store(tmp_path / "small", obs=obs, cache=cache).summarize(
            "rtt_min"
        )
        assert counter(obs, "scan_aggcache_misses_total") == 2
        obs2 = Obs()
        scan_store(tmp_path / "big", obs=obs2, cache=cache).summarize(
            "rtt_min"
        )
        # 4 shards total: the 2 shared with "small" hit, 2 new miss.
        assert counter(obs2, "scan_aggcache_hits_total") == 2
        assert counter(obs2, "scan_aggcache_misses_total") == 2


class TestV1BackCompat:
    @pytest.fixture
    def v1_store(self, tmp_path):
        """A committed store as a build before zone maps wrote it."""
        columns = build_store(tmp_path / "current", rows=200, rows_per_shard=64)
        legacy_copy(tmp_path / "current", tmp_path / "s", version=1)
        return tmp_path / "s", columns

    def test_v1_manifest_opens_and_verifies(self, v1_store):
        path, _ = v1_store
        reader = StoreReader(path, verify="full")
        assert reader.rows == 200
        zoned, total = reader.manifest.zone_map_coverage()
        assert zoned == 0 and total > 0

    def test_v1_scan_prunes_nothing_but_matches(self, v1_store):
        path, columns = v1_store
        obs = Obs()
        predicates = [Predicate("timestamp", "<", 1_500_000_000 + 10 * 10_800)]
        scan = (
            scan_store(path, obs=obs)
            .select("rtt_min")
            .filter("timestamp", "<", 1_500_000_000 + 10 * 10_800)
        )
        result = scanned_rows(scan, ("rtt_min",))
        expected = full_scan_rows(columns, predicates, ("rtt_min",))
        assert rows_equal(result, expected)
        assert counter(obs, "scan_chunks_skipped_total") == 0

    def test_backfill_upgrades_v1_in_place(self, v1_store):
        path, _ = v1_store
        before = {
            name: (path / name).read_bytes()
            for name in Manifest.load(path).chunk_files()
        }
        manifest, updated = backfill_zone_maps(path)
        assert updated > 0
        zoned, total = manifest.zone_map_coverage()
        assert zoned == total
        reloaded = json.loads((path / MANIFEST_NAME).read_text())
        assert reloaded["version"] == FORMAT_VERSION
        # Data bytes untouched; the store still verifies fully.
        after = {
            name: (path / name).read_bytes()
            for name in Manifest.load(path).chunk_files()
        }
        assert before == after
        StoreReader(path, verify="full")
        # Second run is a no-op.
        _, again = backfill_zone_maps(path)
        assert again == 0

    def test_backfilled_store_prunes_like_a_native_one(self, v1_store):
        path, columns = v1_store
        backfill_zone_maps(path)
        obs = Obs()
        scan = (
            scan_store(path, obs=obs)
            .select("rtt_min")
            .filter("timestamp", "<", 1_500_000_000 + 10 * 10_800)
        )
        predicates = [Predicate("timestamp", "<", 1_500_000_000 + 10 * 10_800)]
        assert rows_equal(
            scanned_rows(scan, ("rtt_min",)),
            full_scan_rows(columns, predicates, ("rtt_min",)),
        )
        assert counter(obs, "scan_chunks_skipped_total") > 0

    def test_backfill_refuses_corrupt_chunks(self, v1_store):
        path, _ = v1_store
        victim = Manifest.load(path).chunk_files()[0]
        data = bytearray((path / victim).read_bytes())
        data[0] ^= 0xFF
        (path / victim).write_bytes(bytes(data))
        with pytest.raises(StoreIntegrityError):
            backfill_zone_maps(path)

    def test_unsupported_future_version_still_rejected(self, v1_store):
        path, _ = v1_store
        manifest_path = path / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(StoreError):
            Manifest.load(path)


class TestScrubChecksZoneMaps:
    def test_lying_zone_map_is_integrity_damage_and_repairable(self, tmp_path):
        from repro.store import scrub
        from repro.store.scan import backfill_zone_maps as backfill

        build_store(tmp_path / "s", rows=128, rows_per_shard=64)
        manifest_path = tmp_path / "s" / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        chunk = payload["shards"][0]["chunks"]["rtt_min"]
        chunk["zone"]["min"] = 250.0  # lies: prunes real rows
        manifest_path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        report = scrub(tmp_path / "s")
        assert not report.intact
        kinds = {d.kind for d in report.damage}
        assert kinds == {"zone_map_mismatch"}
        # The zone-damage repair path: recompute from verified bytes.
        _, rebuilt = backfill(tmp_path / "s", refresh=True)
        assert rebuilt > 0
        assert scrub(tmp_path / "s").ok

    def test_repair_entry_point_fixes_zone_damage(self, tmp_path):
        from repro.store import repair, scrub

        build_store(tmp_path / "s", rows=64, rows_per_shard=64)
        manifest_path = tmp_path / "s" / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["shards"][0]["chunks"]["rtt_min"]["zone"]["nulls"] = 9999
        manifest_path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        assert not scrub(tmp_path / "s").intact
        result = repair(tmp_path / "s")
        assert result.zone_maps_rebuilt > 0
        assert result.verified
        assert scrub(tmp_path / "s").ok


_QUANTILE_VALUES = st.lists(
    st.one_of(
        st.floats(-1e6, 1e6),
        # Duplicates, infinities, NaN and the float range's far ends.
        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.5, 2.25, -1.7e308, 1.7e308]),
    ),
    min_size=1,
    max_size=300,
)


def _float_store(path, values, rows_per_shard=32):
    columns = synthetic_columns(len(values), seed=5)
    columns["rtt_avg"] = np.asarray(values, dtype="<f8")
    writer = StoreWriter(path, rows_per_shard=rows_per_shard)
    writer.append_columns(columns)
    writer.finalize()
    return columns


def _passes(obs, rows):
    """Whole passes a scan made over an unfiltered ``rows``-row column."""
    scanned = counter(obs, "scan_rows_scanned_total")
    assert scanned % rows == 0
    return scanned // rows


class TestScansReadOnlyWhatTheyNeed:
    @pytest.mark.parametrize("materialize", [1 << 20, 8])
    @given(values=_QUANTILE_VALUES, q=st.sampled_from([0.0, 0.01, 0.5, 0.95, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_exact_quantile_equals_the_ecdf(self, materialize, values, q):
        """Over zoned stores with NaN, infinities and duplicates, and
        when the candidate range must be narrowed by histogram passes."""
        import tempfile
        from unittest import mock

        import repro.store.scan as scan_module

        with tempfile.TemporaryDirectory() as root, mock.patch.object(
            scan_module, "_EXACT_QUANTILE_MATERIALIZE", materialize
        ):
            columns = _float_store(f"{root}/s", values)
            scan = scan_store(f"{root}/s")
            expected = ecdf(columns["rtt_avg"]).quantile(q)
            answer = scan.quantile("rtt_avg", q, exact=True)
            assert answer == expected or (np.isnan(answer) and np.isnan(expected))
            kept = columns["rtt_avg"][columns["rtt_min"] <= 150.0]
            if len(kept):
                filtered = scan.filter("rtt_min", "<=", 150.0)
                expected = ecdf(kept).quantile(q)
                answer = filtered.quantile("rtt_avg", q, exact=True)
                assert answer == expected or (np.isnan(answer) and np.isnan(expected))

    def test_an_unfiltered_exact_quantile_reads_at_most_two_passes(self, tmp_path, monkeypatch):
        import repro.store.scan as scan_module

        monkeypatch.setattr(scan_module, "_EXACT_QUANTILE_MATERIALIZE", 256)
        rows = 4096
        values = np.round(np.random.default_rng(2).gamma(2.0, 40.0, rows), 3)
        values[::97] = np.nan
        columns = _float_store(tmp_path / "s", values, rows_per_shard=512)
        obs = Obs()
        answer = scan_store(tmp_path / "s", obs=obs).quantile("rtt_avg", 0.95, exact=True)
        assert answer == ecdf(columns["rtt_avg"]).quantile(0.95)
        # One histogram pass narrows the range; one more collects it.
        assert _passes(obs, rows) == 2

    def test_a_cached_summary_reads_no_chunk(self, tmp_path):
        path = tmp_path / "s"
        build_store(path, rows=500, rows_per_shard=64)
        cache = AggregateCache(tmp_path / "agg")
        scan = scan_store(path, cache=cache).filter("rtt_min", ">=", 0.0)
        first = scan.summarize("rtt_min")
        obs = Obs()
        again = scan_store(path, obs=obs, cache=cache).filter("rtt_min", ">=", 0.0)
        assert again.summarize("rtt_min").as_dict() == first.as_dict()
        assert counter(obs, "scan_aggcache_hits_total") > 0
        assert counter(obs, "scan_aggcache_misses_total") == 0
        assert counter(obs, "scan_rows_scanned_total") == 0
        assert counter(obs, "scan_chunks_scanned_total") == 0

"""The streaming-reducer parity property suite.

Every reducer in :mod:`repro.frame.streaming` must equal its in-memory
counterpart on the concatenated rows — *invariant to chunk boundaries
and merge order* — under the parity class documented in the module:

* exact: count, min, max, ECDF grid counts, group keys/order/counts;
* float-associative: sum, mean, std (``np.isclose`` tolerance);
* rank-bounded: digest quantiles land between the exact quantiles at
  ``q - eps`` and ``q + eps`` with ``eps = digest_rank_eps(compression)``.

Hypothesis drives random row streams, random chunkings of the same
stream, and random merge trees.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FrameError
from repro.frame import Frame, aggregate, aggregate_chunks, ecdf, summarize
from repro.frame.streaming import (
    COMPACT_FACTOR,
    QuantileDigest,
    StreamingECDF,
    StreamingGroupBy,
    StreamingSummary,
    digest_rank_eps,
    reduce_chunks,
)

values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=400,
)


def chunked(values, boundaries):
    """Split ``values`` at the (sorted, deduplicated) boundary indices."""
    array = np.asarray(values, dtype=np.float64)
    cuts = sorted({min(b, len(array)) for b in boundaries})
    return [part for part in np.split(array, cuts)]


chunking_strategy = st.lists(
    st.integers(min_value=0, max_value=400), max_size=8
)

#: Tie-heavy streams for the digest: a constant stream, or long runs of a
#: few distinct values.  Runs far longer than the weight cap compact into
#: centroids holding copies of one value, whose mean must be that value
#: exactly (a summed mean of 100k copies of 0.1 is one ULP off).
tied_value = st.sampled_from([0.1, 0.3, 1 / 3, -7.1, 2.675]) | st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, width=64
)
tied_values_strategy = st.one_of(
    st.builds(lambda value, n: [value] * n, tied_value, st.integers(1, 20_000)),
    st.lists(
        st.tuples(tied_value, st.integers(1, 5_000)), min_size=2, max_size=5
    ).map(lambda runs: [value for value, n in runs for _ in range(n)]),
)


class TestStreamingSummaryParity:
    @given(values_strategy, chunking_strategy)
    @settings(max_examples=150, deadline=None)
    def test_matches_in_memory_regardless_of_chunking(self, values, cuts):
        array = np.asarray(values, dtype=np.float64)
        streaming = StreamingSummary()
        for chunk in chunked(array, cuts):
            streaming.update(chunk)
        expected = summarize(array)
        result = streaming.result()
        # Exact class.
        assert result.count == expected.count
        assert result.minimum == expected.minimum
        assert result.maximum == expected.maximum
        # Float-associative class.
        assert np.isclose(result.mean, expected.mean, rtol=1e-6, atol=1e-9)
        assert np.isclose(result.std, expected.std, rtol=1e-6, atol=1e-6)
        assert np.isclose(
            streaming.sum, float(np.sum(array)), rtol=1e-6, atol=1e-6
        )

    @given(values_strategy, chunking_strategy, st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_merge_order_invariance(self, values, cuts, rotation):
        """A merge tree over rotated chunk order: exact fields agree
        with the linear fold bit for bit."""
        array = np.asarray(values, dtype=np.float64)
        chunks = chunked(array, cuts)
        chunks = chunks[rotation % len(chunks):] + chunks[: rotation % len(chunks)]
        partials = []
        for chunk in chunks:
            partial = StreamingSummary()
            partial.update(chunk)
            partials.append(partial)
        # Pairwise merge tree.
        while len(partials) > 1:
            merged = []
            for i in range(0, len(partials) - 1, 2):
                merged.append(partials[i].merge(partials[i + 1]))
            if len(partials) % 2:
                merged.append(partials[-1])
            partials = merged
        combined = partials[0]
        assert combined.count == len(array)
        assert combined.minimum == float(np.min(array))
        assert combined.maximum == float(np.max(array))
        assert np.isclose(
            combined.mean, float(np.mean(array)), rtol=1e-6, atol=1e-9
        )
        assert np.isclose(
            combined.std, float(np.std(array)), rtol=1e-6, atol=1e-6
        )

    def test_empty_stream_raises_like_summarize(self):
        streaming = StreamingSummary()
        with pytest.raises(FrameError):
            streaming.result()
        with pytest.raises(FrameError):
            streaming.mean

    def test_nan_poisons_min_max_mean_like_numpy(self):
        streaming = StreamingSummary()
        streaming.update([1.0, math.nan, 3.0])
        assert math.isnan(streaming.minimum)
        assert math.isnan(streaming.maximum)
        assert math.isnan(streaming.mean)
        expected = summarize([1.0, math.nan, 3.0])
        assert math.isnan(expected.minimum)  # same contract in-memory

    def test_state_round_trip(self):
        streaming = StreamingSummary()
        streaming.update([1.0, 2.0, math.inf])
        revived = StreamingSummary.from_state(streaming.state())
        assert revived.count == streaming.count
        assert revived.maximum == math.inf
        assert revived.minimum == 1.0


class TestQuantileDigestBounds:
    @given(
        values_strategy | tied_values_strategy,
        chunking_strategy,
        st.floats(min_value=0.01, max_value=0.99),
        st.sampled_from([50, 100, 200]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_error_within_documented_bound(
        self, values, cuts, q, compression
    ):
        array = np.asarray(values, dtype=np.float64)
        digest = QuantileDigest(compression=compression)
        for chunk in chunked(array, cuts):
            digest.update(chunk)
            assert np.all(np.diff(digest._means) >= 0)
        estimate = digest.quantile(q)
        assert np.all(np.diff(digest._means) >= 0)
        if np.all(array == array[0]):
            assert np.all(digest._means == array[0])
        eps = digest.rank_eps()
        assert eps == digest_rank_eps(compression, len(array))
        exact = ecdf(array)
        lo = exact.quantile(max(0.0, q - eps))
        hi = exact.quantile(min(1.0, q + eps))
        assert lo <= estimate <= hi

    @given(values_strategy)
    @settings(max_examples=100, deadline=None)
    def test_extremes_are_exact(self, values):
        array = np.asarray(values, dtype=np.float64)
        digest = QuantileDigest(compression=50)
        digest.update(array)
        assert digest.quantile(0.0) == float(np.min(array))
        assert digest.quantile(1.0) == float(np.max(array))

    def test_single_sample_every_q(self):
        digest = QuantileDigest()
        digest.update([42.0])
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert digest.quantile(q) == 42.0

    def test_empty_raises(self):
        with pytest.raises(FrameError):
            QuantileDigest().quantile(0.5)

    @given(values_strategy | tied_values_strategy, st.integers(2, 5))
    # Regression: compacting after every merge of this five-part chain
    # left 111 of the -0.03125 values in mixed centroids, so the median
    # came out above -0.03125 although the rank at q + eps is that run's
    # last.
    @example(
        [v for v, n in [(5.0, 1), (-0.03125, 3361), (2.675, 501),
                        (0.1, 1307), (0.0, 1292)] for _ in range(n)],
        5,
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_stays_within_bound(self, values, parts):
        array = np.asarray(values, dtype=np.float64)
        digests = []
        for chunk in np.array_split(array, parts):
            digest = QuantileDigest(compression=100)
            digest.update(chunk)
            digests.append(digest)
        merged = digests[0]
        for other in digests[1:]:
            merged = merged.merge(other)
            assert np.all(np.diff(merged._means) >= 0)
        assert merged.count == len(array)
        if np.all(array == array[0]):
            assert np.all(merged._means == array[0])
        eps = merged.rank_eps()
        exact = ecdf(array)
        for q in (0.1, 0.5, 0.9):
            estimate = merged.quantile(q)
            assert exact.quantile(max(0.0, q - eps)) <= estimate
            assert estimate <= exact.quantile(min(1.0, q + eps))

    def test_merges_compact_only_past_the_centroid_cap(self):
        values = np.random.default_rng(7).normal(size=40_000)
        exact = ecdf(values)
        merged = QuantileDigest(compression=20)
        sizes = []
        for chunk in np.array_split(values, 40):
            part = QuantileDigest(compression=20)
            part.update(chunk)
            before = len(merged._means) + len(part._means)
            merged.merge(part)
            sizes.append(len(merged._means))
            assert sizes[-1] == before or before > COMPACT_FACTOR * 20
            assert np.all(np.diff(merged._means) >= 0)
        assert max(sizes) <= COMPACT_FACTOR * 20
        assert min(sizes[10:]) < max(sizes)
        assert merged.count == len(values)
        eps = merged.rank_eps()
        for q in (0.01, 0.1, 0.5, 0.9, 0.99):
            estimate = merged.quantile(q)
            assert exact.quantile(max(0.0, q - eps)) <= estimate
            assert estimate <= exact.quantile(min(1.0, q + eps))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
                st.integers(1, 60),
            ),
            min_size=1,
            max_size=300,
        ),
        st.integers(2, 200),
    )
    @settings(max_examples=150, deadline=None)
    def test_compaction_matches_the_greedy_scan(self, centroids, compression):
        """Run cuts equal the left-to-right greedy merge over the stably
        sorted centroids: weights exactly, means to summation error."""
        means = np.asarray([m for m, _ in centroids], dtype=np.float64)
        weights = np.asarray([w for _, w in centroids], dtype=np.float64)
        digest = QuantileDigest.from_state({
            "compression": compression,
            "means": means.tolist(),
            "weights": weights.tolist(),
            "count": int(weights.sum()),
            "min": float(means.min()),
            "max": float(means.max()),
        })
        digest._compress(force=True)

        order = np.argsort(means, kind="stable")
        cap = max(1.0, math.ceil(weights.sum() / compression))
        runs = [[means[order[0]], weights[order[0]]]]
        for mean, weight in zip(means[order[1:]], weights[order[1:]]):
            acc_mean, acc_weight = runs[-1]
            if acc_weight + weight <= cap:
                total = acc_weight + weight
                runs[-1] = [acc_mean + (mean - acc_mean) * (weight / total), total]
            else:
                runs.append([mean, weight])
        expected = np.asarray(runs)
        assert np.array_equal(digest._weights, expected[:, 1])
        tolerance = 2 * len(means) * np.finfo(np.float64).eps * np.abs(means).max()
        assert np.allclose(digest._means, expected[:, 0], rtol=0.0, atol=tolerance)

    def test_subnormal_neighbours_do_not_cancel_to_zero(self):
        # Regression: with a centroid mean below one ULP of its neighbour,
        # the one-sided lerp a + (b - a) * frac collapsed to a + (-a) = 0.0
        # at frac == 1.0, overshooting the rank bound. The two-sided form
        # must return the centroid mean exactly.
        values = [0.0, -1.0, -1.0, -1.0, -5.65e-219, -5.65e-219, -8.7e-226]
        digests = []
        for chunk in np.array_split(np.asarray(values, dtype=np.float64), 2):
            digest = QuantileDigest(compression=100)
            digest.update(chunk)
            digests.append(digest)
        merged = digests[0].merge(digests[1])
        assert merged.quantile(0.5) == -5.65e-219

    def test_equal_endpoint_lerp_is_exact_to_the_ulp(self):
        # Regression: the two-sided lerp m*(1-f) + m*f rounds one ULP off
        # m; interpolating between equal centroid means must return the
        # mean bit-exactly or rank bounds fail on denormal-only data.
        m = -1.1163929638093614e-125
        digest = QuantileDigest(compression=50)
        digest.update(np.asarray([0.0, 0.0, m, m, m]))
        assert digest.quantile(0.03168444870336961) == m

    def test_state_round_trip_preserves_quantiles(self):
        digest = QuantileDigest(compression=100)
        digest.update(np.linspace(0, 100, 5000))
        revived = QuantileDigest.from_state(digest.state())
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert revived.quantile(q) == digest.quantile(q)


class TestStreamingECDFParity:
    @given(values_strategy, chunking_strategy, st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_grid_fractions_exactly_match_in_memory(self, values, cuts, bins):
        array = np.asarray(values, dtype=np.float64)
        grid = StreamingECDF.from_range(
            float(np.min(array)), float(np.max(array)), bins=bins
        )
        for chunk in chunked(array, cuts):
            grid.update(chunk)
        exact = ecdf(array)
        for edge in grid.edges:
            assert grid.fraction_below(edge) == exact.fraction_below(edge)

    def test_sub_ulp_range_collapses_duplicate_edges(self):
        # Regression: a [lo, hi] range spanning fewer representable
        # floats than bins makes linspace repeat edges; from_range must
        # dedupe instead of rejecting its own grid.
        grid = StreamingECDF.from_range(0.0, 5e-324, bins=4)
        assert np.all(np.diff(grid.edges) > 0)
        grid.update(np.asarray([0.0, 5e-324]))
        exact = ecdf(np.asarray([0.0, 5e-324]))
        for edge in grid.edges:
            assert grid.fraction_below(edge) == exact.fraction_below(edge)

    @given(values_strategy, chunking_strategy, chunking_strategy)
    @settings(max_examples=100, deadline=None)
    def test_chunking_invariance_is_bitwise(self, values, cuts_a, cuts_b):
        array = np.asarray(values, dtype=np.float64)
        lo, hi = float(np.min(array)), float(np.max(array))
        grid_a = StreamingECDF.from_range(lo, hi, bins=32)
        grid_b = StreamingECDF.from_range(lo, hi, bins=32)
        for chunk in chunked(array, cuts_a):
            grid_a.update(chunk)
        for chunk in chunked(array, cuts_b):
            grid_b.update(chunk)
        assert np.array_equal(grid_a.counts, grid_b.counts)
        assert grid_a.total == grid_b.total

    @given(values_strategy, st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_single_pass(self, values, parts):
        array = np.asarray(values, dtype=np.float64)
        lo, hi = float(np.min(array)), float(np.max(array))
        whole = StreamingECDF.from_range(lo, hi, bins=32)
        whole.update(array)
        pieces = []
        for chunk in np.array_split(array, parts):
            piece = StreamingECDF.from_range(lo, hi, bins=32)
            piece.update(chunk)
            pieces.append(piece)
        merged = pieces[0]
        for piece in pieces[1:]:
            merged = merged.merge(piece)
        assert np.array_equal(merged.counts, whole.counts)

    def test_nan_counts_toward_denominator_like_in_memory(self):
        values = [1.0, 2.0, math.nan, 4.0]
        grid = StreamingECDF(np.asarray([1.0, 2.0, 4.0]))
        grid.update(values)
        exact = ecdf(values)
        for edge in (1.0, 2.0, 4.0):
            assert grid.fraction_below(edge) == exact.fraction_below(edge)

    def test_mismatched_grids_refuse_to_merge(self):
        a = StreamingECDF(np.asarray([1.0, 2.0]))
        b = StreamingECDF(np.asarray([1.0, 3.0]))
        with pytest.raises(FrameError):
            a.merge(b)

    def test_result_is_a_real_ecdf(self):
        grid = StreamingECDF.from_range(0.0, 10.0, bins=11)
        grid.update(np.linspace(0, 10, 100))
        curve = grid.result()
        assert curve.p[-1] == 1.0
        assert curve.quantile(0.5) <= 10.0

    def test_degenerate_range_single_edge(self):
        grid = StreamingECDF.from_range(5.0, 5.0, bins=32)
        grid.update([5.0, 5.0, 5.0])
        assert grid.fraction_below(5.0) == 1.0


keys_strategy = st.lists(
    st.sampled_from(["ams", "fra", "gru", "iad", "sin"]),
    min_size=1,
    max_size=300,
)


class TestStreamingGroupByParity:
    @given(keys_strategy, chunking_strategy)
    @settings(max_examples=100, deadline=None)
    def test_matches_aggregate_exact_fields(self, keys, cuts):
        rng = np.random.default_rng(len(keys))
        values = rng.normal(50.0, 10.0, len(keys))
        frame = Frame({"site": keys, "rtt": values})
        spec = {
            "n": ("rtt", "count"),
            "lo": ("rtt", "min"),
            "hi": ("rtt", "max"),
            "avg": ("rtt", "mean"),
        }
        expected = aggregate(frame, ["site"], spec)
        cut_points = sorted({min(c, len(keys)) for c in cuts})
        key_chunks = np.split(np.asarray(keys, dtype=object), cut_points)
        val_chunks = np.split(values, cut_points)
        result = aggregate_chunks(
            (
                {"site": k, "rtt": v}
                for k, v in zip(key_chunks, val_chunks)
            ),
            ["site"],
            spec,
        )
        # Exact: group set, insertion order, counts, min, max.
        assert list(result.col("site").values) == list(
            expected.col("site").values
        )
        assert list(result.col("n").values) == list(expected.col("n").values)
        assert list(result.col("lo").values) == list(
            expected.col("lo").values
        )
        assert list(result.col("hi").values) == list(
            expected.col("hi").values
        )
        # Float-associative: mean.
        assert np.allclose(
            np.asarray(result.col("avg").values, dtype=np.float64),
            np.asarray(expected.col("avg").values, dtype=np.float64),
            rtol=1e-6,
        )

    @given(keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_group_quantiles_within_digest_bound(self, keys):
        rng = np.random.default_rng(7)
        values = rng.normal(50.0, 10.0, len(keys))
        frame = Frame({"site": keys, "rtt": values})
        engine = StreamingGroupBy(
            ["site"], {"med": ("rtt", "median")}, compression=100
        )
        engine.update({"site": np.asarray(keys, dtype=object), "rtt": values})
        result = engine.result()
        for site, med in zip(
            result.col("site").values, result.col("med").values
        ):
            group = values[np.asarray(keys, dtype=object) == site]
            eps = digest_rank_eps(100, len(group))
            exact = ecdf(group)
            assert exact.quantile(max(0.0, 0.5 - eps)) <= med
            assert med <= exact.quantile(min(1.0, 0.5 + eps))

    def test_multi_key_tuples_match_aggregate(self):
        frame = Frame(
            {
                "a": ["x", "x", "y", "y", "x"],
                "b": [1, 2, 1, 1, 1],
                "v": [10.0, 20.0, 30.0, 40.0, 50.0],
            }
        )
        spec = {"total": ("v", "sum"), "n": ("v", "count")}
        expected = aggregate(frame, ["a", "b"], spec)
        engine = StreamingGroupBy(["a", "b"], spec)
        engine.update(
            {
                "a": np.asarray(frame.col("a").values),
                "b": np.asarray(frame.col("b").values),
                "v": np.asarray(frame.col("v").values),
            }
        )
        result = engine.result()
        assert list(result.col("a").values) == list(expected.col("a").values)
        assert list(result.col("b").values) == list(expected.col("b").values)
        assert list(result.col("n").values) == list(expected.col("n").values)
        assert np.allclose(
            np.asarray(result.col("total").values, dtype=np.float64),
            np.asarray(expected.col("total").values, dtype=np.float64),
        )

    def test_merge_preserves_row_order_of_parts(self):
        spec = {"n": ("v", "count")}
        left = StreamingGroupBy(["k"], spec)
        left.update({"k": np.asarray(["a", "b"]), "v": np.asarray([1.0, 2.0])})
        right = StreamingGroupBy(["k"], spec)
        right.update(
            {"k": np.asarray(["b", "c"]), "v": np.asarray([3.0, 4.0])}
        )
        merged = left.merge(right)
        result = merged.result()
        assert list(result.col("k").values) == ["a", "b", "c"]
        assert list(result.col("n").values) == [1, 2, 1]

    def test_max_groups_is_enforced(self):
        engine = StreamingGroupBy(["k"], {"n": ("v", "count")}, max_groups=3)
        engine.update(
            {"k": np.arange(3), "v": np.zeros(3)}
        )
        with pytest.raises(FrameError):
            engine.update({"k": np.asarray([99]), "v": np.asarray([0.0])})

    def test_unknown_reducer_rejected_up_front(self):
        with pytest.raises(FrameError):
            StreamingGroupBy(["k"], {"x": ("v", "not_a_reducer")})

    def test_callable_reducers_are_rejected(self):
        with pytest.raises(FrameError):
            aggregate_chunks([], ["k"], {"x": ("v", np.mean)})


class TestReduceChunks:
    def test_drives_any_reducer_over_mappings(self):
        chunks = [
            {"rtt": np.asarray([1.0, 2.0])},
            {"rtt": np.asarray([3.0])},
        ]
        summary = reduce_chunks(iter(chunks), StreamingSummary(), column="rtt")
        assert summary.count == 3
        assert summary.maximum == 3.0

    def test_accepts_bare_arrays(self):
        summary = reduce_chunks(
            [np.asarray([1.0]), np.asarray([5.0])], StreamingSummary()
        )
        assert summary.count == 2

"""Streaming (out-of-core) reducers with explicit parity contracts.

Every reducer here consumes a column **chunk at a time** — the unit the
store's scan layer (:mod:`repro.store.scan`) serves — holds O(1) or
O(groups) state, and is *mergeable*: two reducers fed disjoint row
ranges combine into the reducer of the concatenation.  That is what
lets every paper figure run over a store 100x paper scale without ever
materializing a column.

Parity contracts (enforced by ``tests/frame/test_streaming_parity.py``):

* **exact** — ``count``, ``min``, ``max``, every
  :class:`StreamingECDF` grid count, and every group key/count of
  :class:`StreamingGroupBy` equal the in-memory result bit for bit,
  invariant to chunk size and merge order;
* **float-associative** — ``sum``, ``mean``, ``std`` are the same
  mathematical value accumulated in a different association order, so
  they match the in-memory result to relative tolerance (documented
  here as 1e-9 per merge step, tested at 1e-6 end to end);
* **rank-bounded** — :class:`QuantileDigest` quantiles land within
  ``RANK_ERROR_BOUND`` *rank* error of the exact sample quantile:
  the estimate at ``q`` always lies between the exact quantiles at
  ``q - eps`` and ``q + eps`` with
  ``eps = digest_rank_eps(compression, count)``.
  ``q=0`` / ``q=1`` and single-sample digests are exact (the digest
  tracks true extremes separately).

NaN handling mirrors :mod:`repro.frame.stats`: NaNs poison min/max/mean
(as ``np.min``/``np.mean`` do), count toward ECDF denominators but never
fall below a grid edge, and are never silently dropped.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FrameError
from repro.frame.stats import ECDF, Summary

#: Default t-digest compression (max ~2x this many centroids retained
#: after a compaction; merged digests hold up to ``COMPACT_FACTOR`` x).
DEFAULT_COMPRESSION = 200

#: A digest buffers up to this many times ``compression`` raw values, and
#: keeps up to as many merged centroids, before it compacts.
COMPACT_FACTOR = 8

#: Revision of :class:`QuantileDigest`'s compaction.  Serialized digest
#: states are only bit-compatible within one revision, so the store's
#: aggregate cache keys every partial by it; bump it whenever compaction
#: can produce different centroids from the same input.
DIGEST_REVISION = 2


def digest_rank_eps(compression: int, count: int) -> float:
    """Documented rank-error bound of :class:`QuantileDigest`.

    A centroid never exceeds ``cap = ceil(count / compression)`` weight,
    and linear interpolation over centroid mid-ranks can move an
    estimate by at most ~1.5 centroid weights of rank; ``2 * cap /
    count`` (~``2 / compression`` once ``count >> compression``, and
    never more than 1) covers that plus order-statistic rounding.  The
    property suite asserts every estimate at ``q`` lies between the
    exact sample quantiles at ``q - eps`` and ``q + eps``.
    """
    if count <= 0:
        return 1.0
    cap = math.ceil(count / compression)
    return min(1.0, 2.0 * cap / count)


class QuantileDigest:
    """A mergeable t-digest-style quantile sketch (uniform weight cap).

    Centroids are (mean, weight) pairs kept sorted by mean; compaction
    greedily merges adjacent centroids under a ``ceil(n/compression)``
    weight cap, which bounds the rank error of any quantile estimate by
    :func:`digest_rank_eps`.  Exact minimum and maximum are tracked
    separately so ``q=0``/``q=1`` are exact and every estimate is
    clamped into the true value range.  All operations are
    deterministic: the same chunks in the same order produce the same
    centroids.
    """

    __slots__ = ("compression", "_means", "_weights", "_buffer",
                 "_buffered", "_count", "_min", "_max", "_nan")

    def __init__(self, compression: int = DEFAULT_COMPRESSION):
        if compression < 2:
            raise FrameError(f"digest compression must be >= 2: {compression}")
        self.compression = int(compression)
        self._means = np.empty(0, dtype=np.float64)
        self._weights = np.empty(0, dtype=np.float64)
        self._buffer: List[np.ndarray] = []
        self._buffered = 0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._nan = 0

    @property
    def count(self) -> int:
        """Total values observed (NaNs excluded from rank space)."""
        return self._count

    def rank_eps(self) -> float:
        """This digest's rank-error bound (see :func:`digest_rank_eps`)."""
        return digest_rank_eps(self.compression, self._count)

    def update(self, values: Sequence[float]) -> None:
        """Fold one chunk of values into the sketch."""
        array = np.asarray(values, dtype=np.float64).ravel()
        if array.size == 0:
            return
        nan_mask = np.isnan(array)
        nans = int(nan_mask.sum())
        if nans:
            self._nan += nans
            array = array[~nan_mask]
            if array.size == 0:
                return
        self._count += array.size
        self._min = min(self._min, float(array.min()))
        self._max = max(self._max, float(array.max()))
        self._buffer.append(array)
        self._buffered += array.size
        if self._buffered >= COMPACT_FACTOR * self.compression:
            self._compress()

    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """Fold another digest in (returns self).

        Each side first compacts its own buffer under its own cap, then
        the two centroid lists are interleaved by mean *without* a new
        compaction until they hold more than ``COMPACT_FACTOR *
        compression`` centroids.  That keeps merges inside
        :func:`digest_rank_eps`: a list compacted once from raw values
        misplaces fewer than ``ceil(n_i / compression)`` values at any
        cut, so a union of such lists misplaces fewer than ``n /
        compression``, and interpolation adds at most half a centroid.
        Compacting the union would add up to another cap at every cut,
        once per merge.
        """
        other._compress()
        if other._count:
            self._compress()
            self._count += other._count
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
            means = np.concatenate([self._means, other._means])
            weights = np.concatenate([self._weights, other._weights])
            order = np.argsort(means, kind="stable")
            self._means, self._weights = means[order], weights[order]
            if len(self._means) > COMPACT_FACTOR * self.compression:
                self._compress(force=True)
        self._nan += other._nan
        return self

    def _compress(self, force: bool = False) -> None:
        """Sort buffered values into the centroid list under the cap.

        Greedy left-to-right over the sorted centroids: each run takes
        the longest stretch whose total weight fits under ``cap`` (a
        heavier centroid stands alone).  Weights are positive integers,
        so run ends are exact cumulative-weight cuts and the loop runs
        once per output centroid, not once per value.  A run's mean is
        its weighted mean clamped into its [first, last] value, so a run
        of ties keeps the tied value exactly and means stay sorted.
        """
        if not self._buffer and not force:
            return
        order = np.argsort(self._means, kind="stable")
        means, weights = self._means[order], self._weights[order]
        if self._buffer:
            # Unit-weight values are interchangeable, so a plain sort
            # orders them; existing centroids go before equal values.
            values = np.sort(np.concatenate(self._buffer))
            self._buffer = []
            self._buffered = 0
            at = np.searchsorted(values, means, side="left")
            weights = np.insert(np.ones(len(values), dtype=np.float64), at, weights)
            means = np.insert(values, at, means)
        if means.size == 0:
            return
        cap = max(1.0, math.ceil(self._count / self.compression))
        ends = np.cumsum(weights)
        starts: List[int] = []
        start = 0
        while start < len(ends):
            starts.append(start)
            before = ends[start - 1] if start else 0.0
            cut = int(ends.searchsorted(before + cap, side="right"))
            start = max(cut, start + 1)
        runs = np.asarray(starts, dtype=np.intp)
        sizes = np.diff(runs, append=len(means))
        totals = np.add.reduceat(weights, runs)
        # Weighted means as sums of weight shares: partial sums stay on
        # the values' scale, where sum(mean * weight) could overflow.
        shares = weights / np.repeat(totals, sizes)
        centroids = np.add.reduceat(means * shares, runs)
        self._means = np.clip(centroids, means[runs], means[runs + sizes - 1])
        self._weights = totals

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (rank error <= documented bound)."""
        if not 0.0 <= q <= 1.0:
            raise FrameError(f"quantile q must be in [0, 1], got {q}")
        if self._count == 0:
            if self._nan:
                return math.nan
            raise FrameError("quantile on empty digest")
        if q <= 0.0:
            return self._min
        if q >= 1.0:
            return self._max
        self._compress()
        means, weights = self._means, self._weights
        if len(means) == 1:
            return float(means[0])
        # Interpolate over centroid mid-ranks, clamped to true extremes.
        # _lerp must be exact in two regimes float arithmetic conflates:
        # at frac == 1.0 the one-sided a + (b-a)*frac cancels a
        # sub-ULP |b| to a + (-a) == 0.0, and for a == b the two-sided
        # a*(1-frac) + b*frac rounds one ULP off a. Short-circuiting the
        # endpoints keeps both exact.
        def _lerp(a: float, b: float, frac: float) -> float:
            if frac <= 0.0:
                return a
            if frac >= 1.0:
                return b
            return a + (b - a) * frac

        ends = np.cumsum(weights)
        mids = ends - weights / 2.0
        target = q * self._count
        if target <= mids[0]:
            span = mids[0]
            frac = target / span if span else 1.0
            value = _lerp(self._min, float(means[0]), frac)
        elif target >= mids[-1]:
            span = self._count - mids[-1]
            frac = (target - mids[-1]) / span if span else 0.0
            value = _lerp(float(means[-1]), self._max, frac)
        else:
            hi = int(np.searchsorted(mids, target, side="left"))
            lo = hi - 1
            span = mids[hi] - mids[lo]
            frac = (target - mids[lo]) / span if span else 0.0
            value = _lerp(float(means[lo]), float(means[hi]), frac)
        return min(max(value, self._min), self._max)

    # -- (de)serialization for the content-addressed aggregate cache --------

    def state(self) -> Dict[str, object]:
        self._compress()
        return {
            "compression": self.compression,
            "means": [float(m) for m in self._means],
            "weights": [float(w) for w in self._weights],
            "count": self._count,
            "min": None if self._count == 0 else self._min,
            "max": None if self._count == 0 else self._max,
            "nan": self._nan,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "QuantileDigest":
        digest = cls(compression=int(state["compression"]))
        digest._means = np.asarray(state["means"], dtype=np.float64)
        digest._weights = np.asarray(state["weights"], dtype=np.float64)
        digest._count = int(state["count"])
        digest._nan = int(state.get("nan", 0))
        if digest._count:
            digest._min = float(state["min"])
            digest._max = float(state["max"])
        return digest


class StreamingSummary:
    """Mergeable summary statistics over a value stream.

    ``count``/``min``/``max`` are exact; ``sum``/``mean``/``std`` use
    Chan's pairwise-merge moments (float-associative contract); the
    quantile fields of :meth:`result` come from an attached
    :class:`QuantileDigest` (rank-bounded contract).
    """

    __slots__ = ("count", "_min", "_max", "_sum", "_mean", "_m2", "digest")

    def __init__(self, compression: int = DEFAULT_COMPRESSION):
        self.count = 0
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self.digest = QuantileDigest(compression=compression)

    def update(self, values: Sequence[float]) -> None:
        array = np.asarray(values, dtype=np.float64).ravel()
        if array.size == 0:
            return
        # np.min/np.mean propagate NaN; so do these merges, matching the
        # in-memory `summarize` on the same rows.  (inf - inf in the
        # moment update is nan, exactly as np.std gives on inf input.)
        chunk_mean = float(np.mean(array))
        with np.errstate(invalid="ignore"):
            chunk_m2 = float(np.sum(np.square(array - chunk_mean)))
        self._merge_moments(array.size, chunk_mean, chunk_m2)
        self._sum += float(np.sum(array))
        self._min = float(np.minimum(self._min, np.min(array)))
        self._max = float(np.maximum(self._max, np.max(array)))
        self.digest.update(array)

    def _merge_moments(self, count: int, mean: float, m2: float) -> None:
        if count == 0:
            return
        if self.count == 0:
            self.count, self._mean, self._m2 = count, mean, m2
            return
        total = self.count + count
        delta = mean - self._mean
        self._mean += delta * (count / total)
        self._m2 += m2 + delta * delta * (self.count * count / total)
        self.count = total

    def merge(self, other: "StreamingSummary") -> "StreamingSummary":
        """Fold another summary in (returns self)."""
        self._merge_moments(other.count, other._mean, other._m2)
        self._sum += other._sum
        self._min = float(np.minimum(self._min, other._min))
        self._max = float(np.maximum(self._max, other._max))
        self.digest.merge(other.digest)
        return self

    @property
    def minimum(self) -> float:
        if self.count == 0:
            raise FrameError("minimum of empty stream")
        return self._min

    @property
    def maximum(self) -> float:
        if self.count == 0:
            raise FrameError("maximum of empty stream")
        return self._max

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise FrameError("mean of empty stream")
        return self._mean

    @property
    def std(self) -> float:
        """Population standard deviation, matching ``np.std``."""
        if self.count == 0:
            raise FrameError("std of empty stream")
        return math.sqrt(max(self._m2, 0.0) / self.count)

    def quantile(self, q: float) -> float:
        return self.digest.quantile(q)

    def result(self) -> Summary:
        """The :class:`~repro.frame.stats.Summary` of the stream so far."""
        if self.count == 0:
            raise FrameError("summarize on empty sample")
        return Summary(
            count=self.count,
            minimum=self.minimum,
            p25=self.quantile(0.25),
            median=self.quantile(0.5),
            p75=self.quantile(0.75),
            p95=self.quantile(0.95),
            maximum=self.maximum,
            mean=self.mean,
            std=self.std,
        )

    # -- (de)serialization ---------------------------------------------------

    def state(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "min": None if self.count == 0 else _json_float(self._min),
            "max": None if self.count == 0 else _json_float(self._max),
            "sum": _json_float(self._sum),
            "mean": _json_float(self._mean),
            "m2": _json_float(self._m2),
            "digest": self.digest.state(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "StreamingSummary":
        summary = cls()
        summary.count = int(state["count"])
        if summary.count:
            summary._min = _from_json_float(state["min"])
            summary._max = _from_json_float(state["max"])
        summary._sum = _from_json_float(state["sum"])
        summary._mean = _from_json_float(state["mean"])
        summary._m2 = _from_json_float(state["m2"])
        summary.digest = QuantileDigest.from_state(state["digest"])
        return summary


def _json_float(value: float) -> object:
    """NaN/inf-safe float for strict-JSON serialization."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(value)


def _from_json_float(value: object) -> float:
    if isinstance(value, str):
        return float(value)
    return float(value)


class StreamingECDF:
    """Exact-count ECDF over a fixed value grid.

    For every grid edge ``e`` the reported cumulative fraction is
    *exactly* ``count(values <= e) / count(values)`` — integer counts,
    so the result is bit-identical regardless of chunk boundaries or
    merge order.  Values above the last edge (and NaNs, which are never
    ``<=`` anything) land in an overflow slot that keeps the denominator
    honest, mirroring how :func:`repro.frame.stats.ecdf` counts NaNs.
    """

    __slots__ = ("edges", "counts", "total")

    def __init__(self, edges: Sequence[float]):
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size == 0:
            raise FrameError("StreamingECDF needs a non-empty 1-D edge grid")
        if np.any(np.diff(edges) <= 0):
            raise FrameError("StreamingECDF edges must be strictly ascending")
        self.edges = edges
        #: counts[i] = values in (edges[i-1], edges[i]]; final slot is overflow.
        self.counts = np.zeros(len(edges) + 1, dtype=np.int64)
        self.total = 0

    @classmethod
    def from_range(
        cls, lo: float, hi: float, bins: int = 512
    ) -> "StreamingECDF":
        """A uniform grid covering ``[lo, hi]`` with ``bins`` edges."""
        if bins < 1:
            raise FrameError(f"StreamingECDF needs bins >= 1: {bins}")
        if not (lo < hi):
            # Degenerate range (single distinct value): one exact edge.
            return cls(np.asarray([lo], dtype=np.float64))
        # A range spanning fewer representable floats than ``bins``
        # (e.g. lo=0.0, hi=5e-324) makes linspace repeat edges; collapse
        # duplicates so the grid stays strictly ascending.
        return cls(np.unique(np.linspace(lo, hi, bins)))

    def update(self, values: Sequence[float]) -> None:
        array = np.asarray(values, dtype=np.float64).ravel()
        if array.size == 0:
            return
        slots = np.searchsorted(self.edges, array, side="left")
        np.add.at(self.counts, slots, 1)
        self.total += array.size

    def merge(self, other: "StreamingECDF") -> "StreamingECDF":
        if len(self.edges) != len(other.edges) or not np.array_equal(
            self.edges, other.edges
        ):
            raise FrameError("cannot merge StreamingECDFs over different grids")
        self.counts += other.counts
        self.total += other.total
        return self

    def fraction_below(self, edge: float) -> float:
        """Exact fraction of values ``<= edge`` for a grid edge."""
        idx = int(np.searchsorted(self.edges, edge, side="left"))
        if idx >= len(self.edges) or self.edges[idx] != edge:
            raise FrameError(f"{edge} is not an edge of this ECDF grid")
        if self.total == 0:
            raise FrameError("fraction_below on empty ECDF")
        return float(np.sum(self.counts[: idx + 1]) / self.total)

    def result(self) -> ECDF:
        """A :class:`~repro.frame.stats.ECDF` evaluated at the grid edges."""
        if self.total == 0:
            return ECDF(np.empty(0), np.empty(0))
        cumulative = np.cumsum(self.counts[:-1], dtype=np.float64)
        return ECDF(self.edges.copy(), cumulative / self.total)

    def state(self) -> Dict[str, object]:
        return {
            "edges": [float(e) for e in self.edges],
            "counts": [int(c) for c in self.counts],
            "total": self.total,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "StreamingECDF":
        grid = cls(np.asarray(state["edges"], dtype=np.float64))
        grid.counts = np.asarray(state["counts"], dtype=np.int64)
        grid.total = int(state["total"])
        return grid


#: Reducer names a :class:`StreamingGroupBy` can serve, with their
#: parity class (see module docstring).
STREAMING_REDUCERS: Dict[str, Callable[[StreamingSummary], object]] = {
    "count": lambda s: s.count,
    "min": lambda s: s.minimum,
    "max": lambda s: s.maximum,
    "sum": lambda s: s.sum,
    "mean": lambda s: s.mean,
    "std": lambda s: s.std,
    "median": lambda s: s.quantile(0.5),
    "p25": lambda s: s.quantile(0.25),
    "p75": lambda s: s.quantile(0.75),
    "p90": lambda s: s.quantile(0.90),
    "p95": lambda s: s.quantile(0.95),
    "p99": lambda s: s.quantile(0.99),
}


class StreamingGroupBy:
    """Spill-free streaming group-by for low-cardinality keys.

    Holds one :class:`StreamingSummary` per ``(group, input column)``;
    group insertion order is row order, matching
    :func:`repro.frame.groupby.aggregate` on the same stream.  The
    ``max_groups`` guard keeps the "spill-free" promise honest: this
    engine is for keys like continent/country/provider, not for
    grouping by a unique id.
    """

    def __init__(
        self,
        keys: Sequence[str],
        spec: Mapping[str, Tuple[str, str]],
        max_groups: int = 100_000,
        compression: int = DEFAULT_COMPRESSION,
    ):
        if not keys:
            raise FrameError("StreamingGroupBy requires at least one key")
        for output, (_, reducer) in spec.items():
            if reducer not in STREAMING_REDUCERS:
                raise FrameError(
                    f"streaming reducer {reducer!r} for {output!r} unknown; "
                    f"known: {sorted(STREAMING_REDUCERS)}"
                )
            if output in keys:
                raise FrameError(
                    f"aggregate output {output!r} collides with a key"
                )
        self.keys = tuple(keys)
        self.spec = dict(spec)
        self.max_groups = int(max_groups)
        self.compression = int(compression)
        self._inputs = tuple(sorted({col for col, _ in spec.values()}))
        self._groups: Dict[object, Dict[str, StreamingSummary]] = {}

    def _group(self, key) -> Dict[str, StreamingSummary]:
        state = self._groups.get(key)
        if state is None:
            if len(self._groups) >= self.max_groups:
                raise FrameError(
                    f"streaming group-by exceeded max_groups="
                    f"{self.max_groups}; this engine is for "
                    f"low-cardinality keys"
                )
            state = {
                col: StreamingSummary(compression=self.compression)
                for col in self._inputs
            }
            self._groups[key] = state
        return state

    def update(self, columns: Mapping[str, Sequence]) -> None:
        """Fold one chunk (parallel key + value columns) in."""
        key_arrays = [np.asarray(columns[name]) for name in self.keys]
        rows = len(key_arrays[0])
        for array in key_arrays[1:]:
            if len(array) != rows:
                raise FrameError("ragged key columns in streaming group-by")
        values = {name: np.asarray(columns[name]) for name in self._inputs}
        for array in values.values():
            if len(array) != rows:
                raise FrameError("ragged value columns in streaming group-by")
        if rows == 0:
            return
        if len(key_arrays) == 1:
            self._update_single(key_arrays[0], values)
        else:
            self._update_tuple(key_arrays, values, rows)

    def _update_single(self, keys: np.ndarray, values) -> None:
        uniq, inverse = np.unique(keys, return_inverse=True)
        # Visit groups in first-occurrence (row) order so insertion
        # order matches the in-memory group_indices contract.
        first_pos = np.full(len(uniq), len(keys), dtype=np.intp)
        np.minimum.at(first_pos, inverse, np.arange(len(keys), dtype=np.intp))
        for j in np.argsort(first_pos, kind="stable"):
            mask = inverse == j
            state = self._group(uniq[j])
            for col, array in values.items():
                state[col].update(array[mask])

    def _update_tuple(self, key_arrays, values, rows: int) -> None:
        seen: Dict[object, List[int]] = {}
        for i in range(rows):
            key = tuple(array[i] for array in key_arrays)
            seen.setdefault(key, []).append(i)
        for key, indices in seen.items():
            state = self._group(key)
            idx = np.asarray(indices, dtype=np.intp)
            for col, array in values.items():
                state[col].update(array[idx])

    def merge(self, other: "StreamingGroupBy") -> "StreamingGroupBy":
        """Fold another group-by in (returns self).

        Groups unseen here append in the other's insertion order, so a
        merge of row-ordered parts keeps row order.
        """
        if self.keys != other.keys or self.spec != other.spec:
            raise FrameError("cannot merge group-bys over different specs")
        for key, states in other._groups.items():
            mine = self._groups.get(key)
            if mine is None:
                self._group(key)
                mine = self._groups[key]
            for col, summary in states.items():
                mine[col].merge(summary)
        return self

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    def result(self):
        """An aggregated :class:`~repro.frame.Frame`, insertion-ordered.

        Column layout matches
        ``repro.frame.groupby.aggregate(frame, keys, spec)`` on the same
        rows: key columns first, then one column per spec output.
        """
        from repro.frame.frame import Frame

        out: Dict[str, list] = {name: [] for name in self.keys}
        for output in self.spec:
            out[output] = []
        for key, states in self._groups.items():
            key_values = key if isinstance(key, tuple) else (key,)
            for name, value in zip(self.keys, key_values):
                out[name].append(value)
            for output, (col, reducer) in self.spec.items():
                out[output].append(STREAMING_REDUCERS[reducer](states[col]))
        return Frame(out)


def reduce_chunks(
    chunks,
    reducer,
    column: Optional[str] = None,
):
    """Drive one streaming reducer over an iterable of column chunks.

    ``chunks`` yields ``Dict[str, np.ndarray]`` (a scan) or bare arrays;
    ``reducer`` is any object with ``update``.  Returns the reducer.
    """
    for chunk in chunks:
        if isinstance(chunk, Mapping):
            if column is not None:
                reducer.update(chunk[column])
            else:
                reducer.update(chunk)
        else:
            reducer.update(chunk)
    return reducer

"""The collected measurement dataset.

A campaign produces millions of ping samples; holding them as dicts would
not scale, so :class:`CampaignDataset` stores them in compact numpy
columns keyed by integer probe ids and target indices, with small metadata
tables (probes, targets) carrying everything the analyses join against.

The paper published its raw dataset "for public use" [18];
:meth:`CampaignDataset.export_csv` / :meth:`load_csv` reproduce that
artifact for the synthetic equivalent.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from repro.atlas.probes import Probe
from repro.atlas.results.ping import PingColumns
from repro.atlas.tags import classify_lastmile, is_privileged
from repro.cloud.vm import TargetVM
from repro.constants import SAMPLE_SCHEMA
from repro.errors import CampaignError
from repro.frame import Frame, read_csv, write_csv
from repro.obs import ensure_obs

#: Marks a derived product not computed yet (a product may be ``None``).
_MISSING = object()

#: Probe attributes the analyses join against, by name: numeric ones
#: (one table value per probe) and string ones (coded, see :class:`Codes`).
_PROBE_NUMBERS = {
    "probe_id": lambda probe: probe.probe_id,
    "privileged": lambda probe: is_privileged(probe.tags),
    "longitude": lambda probe: probe.location.lon,
}
_PROBE_NAMES = {
    "continent": lambda probe: probe.continent,
    "country": lambda probe: probe.country_code,
    "cohort": lambda probe: classify_lastmile(probe.tags),
}
_TARGET_NAMES = {
    "continent": lambda vm: vm.region.continent,
    "provider": lambda vm: vm.region.provider_slug,
}


class Codes(NamedTuple):
    """A string attribute of each probe (or target) as small-int codes.

    ``names`` are the distinct values in ascending order and ``codes``
    hold one index into them per probe position (target index), so code
    order is name order.  Gathering codes through the sample rows costs
    a byte per sample where the strings cost 4 B per character.
    """

    names: Tuple[str, ...]
    codes: np.ndarray

    @classmethod
    def of(cls, values: Sequence[str]) -> "Codes":
        names, codes = np.unique(np.asarray(values), return_inverse=True)
        return cls(tuple(names.tolist()), codes.astype(small_int_dtype(len(names))))

    def flags(self, *values: str) -> np.ndarray:
        """Per-position bool table: the attribute is one of ``values``."""
        wanted = [self.names.index(value) for value in values if value in self.names]
        return np.isin(self.codes, wanted)


def small_int_dtype(size: int) -> np.dtype:
    """The smallest unsigned dtype holding ``0..size-1``: on 8- and 16-bit
    keys numpy's stable sort is a radix sort."""
    return np.min_scalar_type(max(size - 1, 0))


def split_by_code(codes: np.ndarray, values: np.ndarray, size: int):
    """Group ``values`` by their small-int ``codes`` in ``0..size-1``.

    Returns the codes present, ascending, and each one's values in row
    order (views of one reordered copy).  The stable sort of small keys
    runs as a radix sort and ``np.bincount`` gives the group bounds.
    """
    codes = codes.astype(small_int_dtype(size), copy=False)
    counts = np.bincount(codes, minlength=size)
    present = np.flatnonzero(counts)
    order = np.argsort(codes, kind="stable")
    groups = np.split(values[order], np.cumsum(counts[present])[:-1])
    return present, groups


def group_medians(codes: np.ndarray, values: np.ndarray, size: int):
    """The ``codes`` (in ``0..size-1``) present, ascending, and the median
    of each one's float ``values``, bit for bit as ``np.median`` gives it.

    Each group is partitioned in place, as ``np.median`` partitions its
    copy: at the middle one or two values and at the last, so a group
    holding NaN (sorted last) has a NaN median.  The middle values are
    averaged as ``np.mean`` averages them (``np.add.reduce``, then a
    division by their count).  That skips ``np.median``'s per-call
    overhead, which a loop over a thousand probes pays a thousand times.
    """
    present, groups = split_by_code(codes, values, size)
    medians = np.empty(len(groups))
    for index, group in enumerate(groups):
        half = len(group) // 2
        middle = [half] if len(group) % 2 else [half - 1, half]
        group.partition(middle + [-1])
        if np.isnan(group[-1]):
            medians[index] = group[-1]
        else:
            medians[index] = np.add.reduce(group[middle[0]:half + 1]) / len(middle)
    return present, medians


class _SampleBuffer:
    """Append-only sample columns on pre-allocated numpy storage.

    Columns live in their final dtypes from the first append; capacity
    grows geometrically (doubling), so a campaign's millions of rows cost
    O(log n) reallocations instead of one Python-list node per value, and
    bulk extends are single slice assignments.
    """

    _INITIAL_CAPACITY = 1024

    def __init__(self, obs=None) -> None:
        self.size = 0
        self._capacity = 0
        self.obs = ensure_obs(obs)
        self._columns: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype) for name, dtype in SAMPLE_SCHEMA
        }

    def reserve(self, extra: int) -> None:
        """Ensure capacity for ``extra`` more rows."""
        needed = self.size + extra
        if needed <= self._capacity:
            return
        capacity = max(self._INITIAL_CAPACITY, self._capacity)
        while capacity < needed:
            capacity *= 2
        for name in self._columns:
            grown = np.empty(capacity, dtype=self._columns[name].dtype)
            grown[: self.size] = self._columns[name][: self.size]
            self._columns[name] = grown
        self._capacity = capacity
        self.obs.inc("dataset_buffer_reallocs_total")
        self.obs.set_gauge("dataset_buffer_capacity_rows", capacity)

    def extend(self, columns: Dict[str, np.ndarray]) -> None:
        """Bulk-append sample-schema columns, one slice assignment each."""
        count = len(columns["probe_id"])
        if not count:
            return
        self.reserve(count)
        start, stop = self.size, self.size + count
        for name, _ in SAMPLE_SCHEMA:
            self._columns[name][start:stop] = columns[name]
        self.size = stop

    def finalize(self) -> Dict[str, np.ndarray]:
        """Right-sized copies of the filled prefix, ready to freeze."""
        return {
            name: self._columns[name][: self.size].copy() for name in self._columns
        }


class CampaignDataset:
    """Samples plus the probe/target metadata needed to analyze them."""

    def __init__(
        self,
        probes: Sequence[Probe],
        targets: Sequence[TargetVM],
        dedup: bool = False,
        obs=None,
    ):
        if not probes:
            raise CampaignError("dataset needs at least one probe")
        if not targets:
            raise CampaignError("dataset needs at least one target")
        self.obs = ensure_obs(obs)
        self.probes: Tuple[Probe, ...] = tuple(probes)
        self.targets: Tuple[TargetVM, ...] = tuple(targets)
        self._probe_by_id: Dict[int, Probe] = {
            probe.probe_id: probe for probe in self.probes
        }
        self._target_index: Dict[str, int] = {
            vm.key: index for index, vm in enumerate(self.targets)
        }
        self._buffer = _SampleBuffer(obs=self.obs)
        self._frozen: Dict[str, np.ndarray] = {}
        #: Memoized derived products (probe lookups, masks, per-probe
        #: maps), computed on the frozen columns only and dropped at the
        #: freeze transition — appends after freeze raise, so a cached
        #: product can never go stale.
        self._derived: Dict[str, object] = {}
        #: With ``dedup=True`` a re-appended (probe, target, timestamp)
        #: key is silently dropped and counted — the guard resilient
        #: collection relies on when windows might overlap.
        self._dedup_keys = set() if dedup else None
        self.duplicates_dropped = 0

    # -- building ------------------------------------------------------------

    def target_index_of(self, key: str) -> int:
        try:
            return self._target_index[key]
        except KeyError:
            raise CampaignError(f"unknown target {key!r}") from None

    def probe(self, probe_id: int) -> Probe:
        try:
            return self._probe_by_id[probe_id]
        except KeyError:
            raise CampaignError(f"unknown probe {probe_id}") from None

    def append(
        self,
        probe_id: int,
        target_key: str,
        timestamp: int,
        rtt_min: float,
        rtt_avg: float,
        sent: int,
        rcvd: int,
    ) -> None:
        """Append one sample, the one-row case of :meth:`extend_samples`.
        Failed pings carry NaN RTTs."""
        row = (probe_id, timestamp, rtt_min, rtt_avg, sent, rcvd)
        self.extend_samples(
            target_key, PingColumns(*(np.asarray([value]) for value in row))
        )

    def extend_samples(self, target_key: str, window: PingColumns) -> int:
        """Merge-append one measurement window's samples in bulk.

        The record sink's merge path: a window shares one target, so it
        lands with a single target lookup and one slice assignment per
        column.  Row order is preserved, the dedup guard (when enabled)
        is applied row by row, and the number of rows actually appended
        is returned.
        """
        if self._frozen:
            raise CampaignError("dataset is frozen; no further appends")
        target_index = self.target_index_of(target_key)
        if self._dedup_keys is not None:
            kept = []
            for row in range(len(window)):
                key = (
                    int(window.probe_ids[row]), target_index,
                    int(window.timestamps[row]),
                )
                if key in self._dedup_keys:
                    self.duplicates_dropped += 1
                    continue
                self._dedup_keys.add(key)
                kept.append(row)
            dropped = len(window) - len(kept)
            if dropped:
                self.obs.inc("dataset_duplicates_dropped_total", dropped)
            if not kept:
                return 0
            if dropped:
                window = window.take(np.asarray(kept, dtype=np.intp))
        self._buffer.extend(window.sample_columns(target_index))
        self.obs.inc("dataset_samples_appended_total", len(window))
        return len(window)

    def freeze(self) -> None:
        """Convert buffers to immutable numpy columns."""
        if self._frozen:
            return
        self._derived.clear()
        self._frozen = self._buffer.finalize()
        self._buffer = _SampleBuffer(obs=self.obs)
        rows = len(self._frozen["probe_id"])
        self.obs.set_gauge("dataset_frozen_rows", rows)
        self.obs.event("dataset.freeze", rows=rows)

    # -- access ---------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        self.freeze()
        try:
            return self._frozen[name]
        except KeyError:
            raise CampaignError(f"no sample column {name!r}") from None

    @property
    def num_samples(self) -> int:
        self.freeze()
        return len(self._frozen["probe_id"])

    def __len__(self) -> int:
        return self.num_samples

    # -- derived products ---------------------------------------------------------

    def _memoized(self, key: str, compute):
        """Cache a derived product of the frozen dataset under ``key``.

        Derived products (sample-aligned vectors and masks, per-probe
        tables and maps) are pure functions of the frozen columns and the
        immutable probe/target tables, so once computed they are reused
        for the dataset's lifetime (appends after freeze raise, and the
        freeze transition clears the cache).  Analyses re-derive them
        dozens of times over millions of rows — memoizing them removes
        the repeated cost outright.

        Every caller shares the cached product, so it is handed out
        read-only: arrays (top level, or dict or tuple members) are
        marked non-writeable, and a dict comes back as a fresh copy.  An
        in-place ``&=`` on a shared mask raises instead of silently
        corrupting every later analysis of the dataset.
        """
        cached = self._derived.get(key, _MISSING)
        if cached is _MISSING:
            self.freeze()
            cached = compute()
            if isinstance(cached, dict):
                members = cached.values()
            else:
                members = cached if isinstance(cached, tuple) else (cached,)
            for array in members:
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            self._derived[key] = cached
        return dict(cached) if isinstance(cached, dict) else cached

    def probe_positions(self) -> np.ndarray:
        """Each sample's position in :attr:`probes` (int32, memoized).

        Built from a dense table over the probe-id range: millions of
        samples map onto a few thousand probes.  A sample whose probe id
        is not in the probe table raises :class:`CampaignError` naming
        the id, however the dataset was built.
        """

        def compute() -> np.ndarray:
            ids = self.probe_table("probe_id")  # positive: Probe checks them
            table = np.full(int(ids.max()) + 1, -1, dtype=np.int32)
            table[ids] = np.arange(len(ids), dtype=np.int32)
            samples = self.column("probe_id")
            if not len(samples):
                return np.empty(0, dtype=np.int32)
            for extreme in (int(samples.min()), int(samples.max())):
                if not 0 <= extreme < len(table):
                    raise CampaignError(f"unknown probe {extreme} in the samples")
            positions = table[samples]
            if positions.min() < 0:
                unknown = int(samples[np.argmin(positions)])
                raise CampaignError(f"unknown probe {unknown} in the samples")
            return positions

        return self._memoized("probe_positions", compute)

    def probes_seen(self, mask: np.ndarray = None) -> int:
        """Distinct probes with samples (under ``mask``)."""
        positions = self.probe_positions()
        if mask is not None:
            positions = positions[mask]
        return int(np.count_nonzero(np.bincount(positions, minlength=1)))

    def probe_table(self, attribute: str) -> np.ndarray:
        """A numeric probe attribute (``probe_id``, ``privileged`` or
        ``longitude``), one value per probe position (memoized)."""
        return self._memoized(
            f"probe_table:{attribute}",
            lambda: np.asarray([_PROBE_NUMBERS[attribute](p) for p in self.probes]),
        )

    def probe_codes(self, attribute: str) -> "Codes":
        """A string probe attribute (``continent``, ``country`` or
        ``cohort``) as one small-int code per probe position (memoized)."""
        return self._memoized(
            f"probe_codes:{attribute}",
            lambda: Codes.of([_PROBE_NAMES[attribute](p) for p in self.probes]),
        )

    def target_codes(self, attribute: str) -> "Codes":
        """A string target attribute (``continent`` or ``provider``) as one
        small-int code per target index (memoized)."""
        return self._memoized(
            f"target_codes:{attribute}",
            lambda: Codes.of([_TARGET_NAMES[attribute](vm) for vm in self.targets]),
        )

    # -- per-sample string vectors (for Frames and callers outside core) ----------

    def _sample_names(self, owner: str, attribute: str) -> np.ndarray:
        """Memoized ``attribute`` of each sample's probe or target
        (``owner``), as strings gathered through its code table."""

        def compute() -> np.ndarray:
            if owner == "probe":
                codes, rows = self.probe_codes(attribute), self.probe_positions()
            else:
                codes = self.target_codes(attribute)
                rows = self.column("target_index")
            return np.asarray(codes.names)[codes.codes][rows]

        return self._memoized(f"{owner}_{attribute}", compute)

    def probe_continents(self) -> np.ndarray:
        return self._sample_names("probe", "continent")

    def probe_countries(self) -> np.ndarray:
        return self._sample_names("probe", "country")

    def probe_privileged(self) -> np.ndarray:
        """Privileged flag as the *analysis* sees it: from tags only."""
        return self._memoized(
            "probe_privileged",
            lambda: self.probe_table("privileged")[self.probe_positions()],
        )

    def probe_cohorts(self) -> np.ndarray:
        """wired / wireless / ambiguous / untagged, from tags only."""
        return self._sample_names("probe", "cohort")

    def target_continents(self) -> np.ndarray:
        return self._sample_names("target", "continent")

    def target_providers(self) -> np.ndarray:
        return self._sample_names("target", "provider")

    def succeeded_mask(self) -> np.ndarray:
        return self._memoized("succeeded", lambda: self.column("rcvd") > 0)

    # -- Frame views --------------------------------------------------------------

    def to_frame(self, mask: np.ndarray = None) -> Frame:
        """Materialize (a subset of) the samples as an analysis Frame."""
        self.freeze()
        columns = {
            "probe_id": self.column("probe_id"),
            "country": self.probe_countries(),
            "continent": self.probe_continents(),
            "cohort": self.probe_cohorts(),
            "privileged": self.probe_privileged(),
            "target": np.asarray([vm.key for vm in self.targets])[
                self.column("target_index")
            ],
            "provider": self.target_providers(),
            "target_continent": self.target_continents(),
            "timestamp": self.column("timestamp"),
            "rtt_min": self.column("rtt_min"),
            "rtt_avg": self.column("rtt_avg"),
            "sent": self.column("sent"),
            "rcvd": self.column("rcvd"),
        }
        frame = Frame(columns)
        if mask is not None:
            frame = frame.filter(mask)
        return frame

    # -- integrity / summary --------------------------------------------------------

    def integrity_report(self) -> Dict[str, float]:
        """Dataset-level sanity statistics."""
        self.freeze()
        rcvd = self.column("rcvd")
        sent = self.column("sent")
        rtt = self.column("rtt_min")
        ok = rcvd > 0
        return {
            "samples": int(len(rcvd)),
            "failed_share": float(np.mean(~ok)) if len(rcvd) else 0.0,
            "loss_share": float(1.0 - rcvd.sum() / sent.sum()) if sent.sum() else 0.0,
            "probes_seen": self.probes_seen(),
            "targets_seen": int(len(np.unique(self.column("target_index")))),
            "rtt_min_overall": float(np.nanmin(rtt)) if len(rtt) else float("nan"),
        }

    # -- persistent store ------------------------------------------------------------

    def save(self, path, provenance: Dict[str, object] = None):
        """Persist the frozen dataset as a columnar store directory.

        Checksummed little-endian column chunks plus a JSON manifest,
        written atomically; see :mod:`repro.store`.  ``provenance``
        (seed, fault profile, scale, schedule) is recorded in the
        manifest so :meth:`open` can rebuild the probe/target tables
        without being handed them.  Returns the store manifest.
        """
        from repro.store import write_dataset

        return write_dataset(self, path, provenance=provenance, obs=self.obs)

    @classmethod
    def open(
        cls,
        path,
        probes: Sequence[Probe] = None,
        targets: Sequence[TargetVM] = None,
        verify: str = "full",
        obs=None,
    ) -> "CampaignDataset":
        """Re-open a saved store as a frozen dataset (zero-copy mmap).

        Chunk checksums are verified on open (``verify="full"`` by
        default; ``"sampled"`` size-checks everything and hashes a
        deterministic subset); damaged stores raise
        :class:`~repro.errors.StoreIntegrityError` instead of returning
        data.  Probe/target metadata defaults to regeneration from the
        store's provenance seed.
        """
        from repro.store import open_dataset

        return open_dataset(
            path, probes=probes, targets=targets, verify=verify, obs=obs
        )

    @classmethod
    def from_columns(
        cls,
        probes: Sequence[Probe],
        targets: Sequence[TargetVM],
        columns: Dict[str, np.ndarray],
        obs=None,
    ) -> "CampaignDataset":
        """Build an already-frozen dataset directly from sample columns.

        The store reader's rebuild path: columns arrive as (possibly
        memmap-backed) arrays and are adopted without copying when their
        dtype already matches the schema.  The memoized derived-vector
        machinery works unchanged — it only ever reads the frozen
        columns.
        """
        dataset = cls(probes, targets, obs=obs)
        frozen: Dict[str, np.ndarray] = {}
        length = None
        for name, dtype in SAMPLE_SCHEMA:
            try:
                array = columns[name]
            except KeyError:
                raise CampaignError(f"missing sample column {name!r}") from None
            array = np.asarray(array)
            if array.dtype != np.dtype(dtype):
                array = array.astype(dtype)
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise CampaignError(
                    f"ragged sample columns: {name!r} has {len(array)} rows, "
                    f"expected {length}"
                )
            frozen[name] = array
        if length and frozen["target_index"].size:
            worst = int(frozen["target_index"].max())
            if worst >= len(dataset.targets) or int(frozen["target_index"].min()) < 0:
                raise CampaignError(
                    f"target_index {worst} out of range for "
                    f"{len(dataset.targets)} targets"
                )
        dataset._frozen = frozen
        dataset.obs.set_gauge("dataset_frozen_rows", length or 0)
        return dataset

    # -- export / load ---------------------------------------------------------------

    def export_csv(self, path) -> None:
        """Write the public-dataset artifact (samples with denormalized keys).

        Atomic (temp file + rename) and dtype-annotated: a crash
        mid-export can never leave a truncated CSV behind for
        :meth:`load_csv` to half-parse, and integer/bool columns survive
        the round trip with their exact dtypes.
        """
        write_csv(self.to_frame(), Path(path), dtypes=True)

    @staticmethod
    def load_csv(path) -> Frame:
        """Load an exported dataset back as an analysis Frame."""
        return read_csv(Path(path))

    @classmethod
    def from_frame(
        cls,
        frame: Frame,
        probes: Sequence[Probe],
        targets: Sequence[TargetVM],
        dedup: bool = False,
        obs=None,
    ) -> "CampaignDataset":
        """Rebuild an (unfrozen) dataset from an exported sample frame.

        The inverse of :meth:`to_frame` for the sample columns, given the
        probe/target metadata (regenerable from the platform seed).  Used
        to resume an interrupted collection from its exported partial
        dataset in a fresh process.
        """
        dataset = cls(probes, targets, dedup=dedup, obs=obs)
        samples = PingColumns(
            probe_ids=frame["probe_id"],
            timestamps=frame["timestamp"],
            rtt_min=frame["rtt_min"],
            rtt_avg=frame["rtt_avg"],
            sent=frame["sent"],
            rcvd=frame["rcvd"],
        )
        lo = 0
        for target, run in itertools.groupby(frame["target"]):
            hi = lo + sum(1 for _ in run)
            dataset.extend_samples(str(target), samples.take(slice(lo, hi)))
            lo = hi
        return dataset

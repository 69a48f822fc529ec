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

from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.atlas.probes import Probe
from repro.atlas.tags import classify_lastmile, is_privileged
from repro.cloud.vm import TargetVM
from repro.errors import CampaignError
from repro.frame import Frame, read_csv, write_csv
from repro.obs import ensure_obs

#: Sample columns and their storage dtypes, in canonical order.
SAMPLE_DTYPES: Tuple[Tuple[str, type], ...] = (
    ("probe_id", np.int32),
    ("target_index", np.int32),
    ("timestamp", np.int64),
    ("rtt_min", np.float64),
    ("rtt_avg", np.float64),
    ("sent", np.int16),
    ("rcvd", np.int16),
)


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
            name: np.empty(0, dtype=dtype) for name, dtype in SAMPLE_DTYPES
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

    def append_row(
        self,
        probe_id: int,
        target_index: int,
        timestamp: int,
        rtt_min: float,
        rtt_avg: float,
        sent: int,
        rcvd: int,
    ) -> None:
        self.reserve(1)
        row = self.size
        columns = self._columns
        columns["probe_id"][row] = probe_id
        columns["target_index"][row] = target_index
        columns["timestamp"][row] = timestamp
        columns["rtt_min"][row] = rtt_min
        columns["rtt_avg"][row] = rtt_avg
        columns["sent"][row] = sent
        columns["rcvd"][row] = rcvd
        self.size = row + 1

    def extend(
        self,
        probe_id,
        target_index,
        timestamp,
        rtt_min,
        rtt_avg,
        sent,
        rcvd,
    ) -> None:
        """Bulk-append parallel columns via one slice assignment each."""
        count = len(probe_id)
        if not count:
            return
        self.reserve(count)
        start, stop = self.size, self.size + count
        columns = self._columns
        columns["probe_id"][start:stop] = probe_id
        columns["target_index"][start:stop] = target_index
        columns["timestamp"][start:stop] = timestamp
        columns["rtt_min"][start:stop] = rtt_min
        columns["rtt_avg"][start:stop] = rtt_avg
        columns["sent"][start:stop] = sent
        columns["rcvd"][start:stop] = rcvd
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
        """Append one sample.  Failed pings carry NaN RTTs."""
        if self._frozen:
            raise CampaignError("dataset is frozen; no further appends")
        target_index = self.target_index_of(target_key)
        if self._dedup_keys is not None:
            key = (probe_id, target_index, timestamp)
            if key in self._dedup_keys:
                self.duplicates_dropped += 1
                self.obs.inc("dataset_duplicates_dropped_total")
                return
            self._dedup_keys.add(key)
        self._buffer.append_row(
            probe_id, target_index, timestamp, rtt_min, rtt_avg, sent, rcvd
        )
        self.obs.inc("dataset_samples_appended_total")

    def extend_samples(
        self,
        target_key: str,
        probe_ids: Sequence[int],
        timestamps: Sequence[int],
        rtt_min: Sequence[float],
        rtt_avg: Sequence[float],
        sent: Sequence[int],
        rcvd: Sequence[int],
    ) -> int:
        """Merge-append one measurement's sample columns in bulk.

        The shard-buffer path of the parallel collector: a worker returns
        a whole measurement window as parallel column lists sharing one
        target, and this appends them with a single target lookup instead
        of per-sample :meth:`append` calls.  Row order is preserved, the
        dedup guard (when enabled) is applied row by row exactly as
        :meth:`append` would, and the number of rows actually appended is
        returned.
        """
        if self._frozen:
            raise CampaignError("dataset is frozen; no further appends")
        count = len(probe_ids)
        for name, column in (
            ("timestamps", timestamps), ("rtt_min", rtt_min),
            ("rtt_avg", rtt_avg), ("sent", sent), ("rcvd", rcvd),
        ):
            if len(column) != count:
                raise CampaignError(
                    f"column {name} has {len(column)} rows, expected {count}"
                )
        target_index = self.target_index_of(target_key)
        buffer = self._buffer
        if self._dedup_keys is not None:
            kept = []
            for row in range(count):
                key = (int(probe_ids[row]), target_index, int(timestamps[row]))
                if key in self._dedup_keys:
                    self.duplicates_dropped += 1
                    continue
                self._dedup_keys.add(key)
                kept.append(row)
            dropped = count - len(kept)
            if dropped:
                self.obs.inc("dataset_duplicates_dropped_total", dropped)
            if not kept:
                return 0
            if len(kept) < count:
                rows = np.asarray(kept, dtype=np.intp)
                buffer.extend(
                    np.asarray(probe_ids)[rows],
                    np.full(len(rows), target_index, dtype=np.int32),
                    np.asarray(timestamps)[rows],
                    np.asarray(rtt_min)[rows],
                    np.asarray(rtt_avg)[rows],
                    np.asarray(sent)[rows],
                    np.asarray(rcvd)[rows],
                )
                self.obs.inc("dataset_samples_appended_total", len(kept))
                return len(kept)
        buffer.extend(
            probe_ids,
            np.full(count, target_index, dtype=np.int32),
            timestamps,
            rtt_min,
            rtt_avg,
            sent,
            rcvd,
        )
        self.obs.inc("dataset_samples_appended_total", count)
        return count

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

    # -- derived per-probe vectors (aligned with samples) ----------------------

    def _memoized(self, key: str, compute):
        """Cache a derived product of the frozen dataset under ``key``.

        Derived products (sample-aligned vectors and masks, per-probe
        maps) are pure functions of the frozen columns and the immutable
        probe/target tables, so once computed they are reused for the
        dataset's lifetime (appends after freeze raise, and the freeze
        transition clears the cache).  Analyses re-derive them dozens of
        times over millions of rows — memoizing them removes the
        repeated cost outright.

        Every caller shares the cached product, so it is handed out
        read-only: arrays (top level or dict values) are marked
        non-writeable, and a dict comes back as a fresh copy.  An
        in-place ``&=`` on a shared mask raises instead of silently
        corrupting every later analysis of the dataset.
        """
        cached = self._derived.get(key)
        if cached is None:
            self.freeze()
            cached = compute()
            for array in cached.values() if isinstance(cached, dict) else (cached,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            self._derived[key] = cached
        return dict(cached) if isinstance(cached, dict) else cached

    def _probe_lookup(self, key: str, fn) -> np.ndarray:
        """Memoized vector of ``fn(probe)`` aligned with the sample rows.

        Vectorized via a sorted-id lookup table: millions of samples map
        onto a few thousand probes.
        """

        def compute() -> np.ndarray:
            sorted_ids = np.asarray(sorted(self._probe_by_id), dtype=np.int64)
            table = np.asarray([fn(self._probe_by_id[pid]) for pid in sorted_ids])
            ids = self.column("probe_id")
            positions = np.searchsorted(sorted_ids, ids)
            return table[positions]

        return self._memoized(key, compute)

    def probe_continents(self) -> np.ndarray:
        return self._probe_lookup("probe_continent", lambda probe: probe.continent)

    def probe_countries(self) -> np.ndarray:
        return self._probe_lookup("probe_country", lambda probe: probe.country_code)

    def probe_privileged(self) -> np.ndarray:
        """Privileged flag as the *analysis* sees it: from tags only."""
        return self._probe_lookup(
            "probe_privileged", lambda probe: is_privileged(probe.tags)
        )

    def probe_cohorts(self) -> np.ndarray:
        """wired / wireless / ambiguous / untagged, from tags only."""
        return self._probe_lookup(
            "probe_cohort", lambda probe: classify_lastmile(probe.tags)
        )

    def target_continents(self) -> np.ndarray:
        return self._memoized(
            "target_continent",
            lambda: np.asarray([vm.region.continent for vm in self.targets])[
                self.column("target_index")
            ],
        )

    def target_providers(self) -> np.ndarray:
        return self._memoized(
            "target_provider",
            lambda: np.asarray([vm.region.provider_slug for vm in self.targets])[
                self.column("target_index")
            ],
        )

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
            "probes_seen": int(len(np.unique(self.column("probe_id")))),
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
        for name, dtype in SAMPLE_DTYPES:
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
        for probe_id, target, timestamp, rtt_min, rtt_avg, sent, rcvd in zip(
            frame["probe_id"],
            frame["target"],
            frame["timestamp"],
            frame["rtt_min"],
            frame["rtt_avg"],
            frame["sent"],
            frame["rcvd"],
        ):
            dataset.append(
                probe_id=int(probe_id),
                target_key=str(target),
                timestamp=int(timestamp),
                rtt_min=float(rtt_min),
                rtt_avg=float(rtt_avg),
                sent=int(sent),
                rcvd=int(rcvd),
            )
        return dataset

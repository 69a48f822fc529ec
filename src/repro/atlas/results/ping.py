"""Ping result parsing (sagan ``PingResult`` equivalent)."""

from __future__ import annotations

from dataclasses import dataclass, fields
from statistics import median
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.atlas.results.base import Result, register
from repro.constants import SAMPLE_SCHEMA
from repro.errors import ResultParseError


@dataclass(frozen=True)
class Packet:
    """One echo reply (or timeout) within a ping burst."""

    rtt: Optional[float]

    @property
    def timed_out(self) -> bool:
        return self.rtt is None


@register("ping")
class PingResult(Result):
    """Typed view over a raw ping result.

    Exposes the fields the paper's analysis consumes: minimum/average/
    median/maximum RTT, packet counts, and loss.  Failed measurements
    (no replies) have ``rtt_min is None`` and ``packet_loss == 1.0``.
    """

    def __init__(self, raw):
        super().__init__(raw)
        if raw.get("type") != "ping":
            raise ResultParseError(f"not a ping result: type={raw.get('type')!r}")
        self.destination_address = raw.get("dst_addr")
        self.destination_name = raw.get("dst_name")
        self.packets_sent = self._require(raw, "sent", int)
        self.packets_received = self._require(raw, "rcvd", int)
        self.packet_size = int(raw.get("size", 0))
        self.protocol = raw.get("proto", "ICMP")
        self.step = raw.get("step")
        self.packets = self._parse_packets(raw.get("result", []))
        rtts = [packet.rtt for packet in self.packets if packet.rtt is not None]
        if len(rtts) != self.packets_received:
            raise ResultParseError(
                f"rcvd={self.packets_received} but {len(rtts)} RTTs present"
            )
        self.rtt_min = min(rtts) if rtts else None
        self.rtt_max = max(rtts) if rtts else None
        self.rtt_average = sum(rtts) / len(rtts) if rtts else None
        self.rtt_median = median(rtts) if rtts else None

    @staticmethod
    def _parse_packets(entries) -> List[Packet]:
        packets: List[Packet] = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise ResultParseError(f"malformed packet entry: {entry!r}")
            if "rtt" in entry:
                rtt = float(entry["rtt"])
                if rtt < 0:
                    raise ResultParseError(f"negative RTT: {rtt}")
                packets.append(Packet(rtt=rtt))
            else:
                packets.append(Packet(rtt=None))
        return packets

    @property
    def packet_loss(self) -> float:
        """Fraction of echo requests that went unanswered."""
        if self.packets_sent == 0:
            return 0.0
        return 1.0 - self.packets_received / self.packets_sent

    @property
    def succeeded(self) -> bool:
        return self.packets_received > 0


@dataclass(frozen=True)
class PingColumns:
    """A window of ping results as parallel columns — no per-sample dicts.

    The columnar counterpart of a list of :class:`PingResult`: exactly
    the fields the campaign dataset ingests, one numpy array per column.
    ``rtt_min`` / ``rtt_avg`` are NaN where the burst lost every packet
    (where a parsed result would have ``rtt_min is None``).
    """

    probe_ids: np.ndarray   # int64
    timestamps: np.ndarray  # int64
    rtt_min: np.ndarray     # float64, NaN on failure
    rtt_avg: np.ndarray     # float64, NaN on failure
    sent: np.ndarray        # int64
    rcvd: np.ndarray        # int64

    def __post_init__(self) -> None:
        lengths = {
            len(self.probe_ids), len(self.timestamps), len(self.rtt_min),
            len(self.rtt_avg), len(self.sent), len(self.rcvd),
        }
        if len(lengths) != 1:
            raise ResultParseError(f"ragged ping columns: lengths {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.probe_ids)

    def take(self, rows: np.ndarray) -> "PingColumns":
        """The given rows, in the given order."""
        return PingColumns(
            *(getattr(self, column.name)[rows] for column in fields(self))
        )

    def sample_columns(self, target_index: int) -> Dict[str, np.ndarray]:
        """The window as the dataset's sample columns, in the
        :data:`~repro.constants.SAMPLE_SCHEMA` dtypes, with
        ``target_index`` on every row: the one mapping from a fetched
        window to the sample row, shared by the dataset buffer, the
        store writers and repair."""
        columns = {
            "probe_id": self.probe_ids,
            "target_index": np.full(len(self), target_index),
            "timestamp": self.timestamps,
            "rtt_min": self.rtt_min,
            "rtt_avg": self.rtt_avg,
            "sent": self.sent,
            "rcvd": self.rcvd,
        }
        return {
            name: np.asarray(columns[name], dtype=dtype)
            for name, dtype in SAMPLE_SCHEMA
        }

    @classmethod
    def from_results(cls, results: Sequence[PingResult]) -> "PingColumns":
        """Columnar-ize parsed scalar results (the parity reference)."""
        return cls(
            probe_ids=np.asarray([r.probe_id for r in results], dtype=np.int64),
            timestamps=np.asarray(
                [r.created_timestamp for r in results], dtype=np.int64
            ),
            rtt_min=np.asarray(
                [r.rtt_min if r.succeeded else np.nan for r in results],
                dtype=np.float64,
            ),
            rtt_avg=np.asarray(
                [r.rtt_average if r.succeeded else np.nan for r in results],
                dtype=np.float64,
            ),
            sent=np.asarray([r.packets_sent for r in results], dtype=np.int64),
            rcvd=np.asarray([r.packets_received for r in results], dtype=np.int64),
        )

    @classmethod
    def from_raw(cls, raws: Iterable) -> "PingWindow":
        """Clean and columnar-ize a raw result stream (the dict-path reference).

        The collector's cleaning contract, written out over dicts: a blob
        that fails :meth:`Result.get` or is not a ping is quarantined,
        and of the rest the first occurrence of each ``(probe_id,
        timestamp)`` is kept in stream order — the platform's canonical
        probe-major order — while later ones count as duplicates.  The
        collector never calls this: its transport replays the same
        contract over row indices
        (:func:`repro.atlas.faults.surviving_rows`), and the parity suite
        holds the two equal.
        """
        quarantined = 0
        duplicates = 0
        cleaned: Dict[Tuple[int, int], PingResult] = {}
        for raw in raws:
            try:
                parsed = Result.get(raw)
            except ResultParseError:
                quarantined += 1
                continue
            if not isinstance(parsed, PingResult):
                quarantined += 1
                continue
            key = (parsed.probe_id, parsed.created_timestamp)
            if key in cleaned:
                duplicates += 1
                continue
            cleaned[key] = parsed
        return PingWindow(
            cls.from_results(list(cleaned.values())), quarantined, duplicates
        )


class PingWindow(NamedTuple):
    """One fetched window as columns, with what cleaning took out of it."""

    columns: PingColumns
    #: Malformed blobs dropped from the window.
    quarantined: int
    #: Repeated ``(probe_id, timestamp)`` entries dropped from the window.
    duplicates: int

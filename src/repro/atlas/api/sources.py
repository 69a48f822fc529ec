"""Probe selection, in the style of cousteau's ``AtlasSource``.

A source expression selects which probes run a measurement: by country, by
area (continent or worldwide), by explicit probe id list, or by ASN —
optionally constrained by include/exclude tags, exactly like the real API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Sequence, Tuple, Union

from repro.atlas.probes import Probe, ProbeStatus
from repro.errors import AtlasError, ProbeSelectionError
from repro.geo.continents import CONTINENT_CODES

_VALID_TYPES = ("country", "area", "probes", "asn")

#: Area values accepted by the real API, plus our continent codes.
_AREAS = ("WW",) + CONTINENT_CODES


@dataclass
class AtlasSource:
    """One probe-selection clause."""

    type: str
    value: str
    requested: int
    tags_include: Tuple[str, ...] = ()
    tags_exclude: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.type not in _VALID_TYPES:
            raise AtlasError(
                f"source type must be one of {_VALID_TYPES}, got {self.type!r}"
            )
        if self.requested <= 0:
            raise AtlasError(f"requested probe count must be positive: {self.requested}")
        if self.type == "area" and self.value not in _AREAS:
            raise AtlasError(f"unknown area {self.value!r}; valid: {_AREAS}")
        self.tags_include = tuple(tag.lower() for tag in self.tags_include)
        self.tags_exclude = tuple(tag.lower() for tag in self.tags_exclude)

    def build_api_struct(self) -> dict:
        struct = {
            "type": self.type,
            "value": self.value,
            "requested": self.requested,
        }
        if self.tags_include or self.tags_exclude:
            struct["tags"] = {
                "include": list(self.tags_include),
                "exclude": list(self.tags_exclude),
            }
        return struct

    # -- selection -----------------------------------------------------------

    def _wanted_probe_ids(self) -> frozenset:
        try:
            return frozenset(int(part) for part in self.value.split(","))
        except ValueError:
            raise AtlasError(
                f"probes source value must be comma-separated ids: {self.value!r}"
            ) from None

    def _matches_locality(self, probe: Probe, wanted_ids: frozenset = None) -> bool:
        if self.type == "country":
            return probe.country_code == self.value.upper()
        if self.type == "area":
            return self.value == "WW" or probe.continent == self.value
        if self.type == "probes":
            if wanted_ids is None:
                wanted_ids = self._wanted_probe_ids()
            return probe.probe_id in wanted_ids
        if self.type == "asn":
            return probe.asn == int(self.value)
        raise AtlasError(f"unhandled source type {self.type!r}")  # pragma: no cover

    def _matches_tags(self, probe: Probe) -> bool:
        if not (self.tags_include or self.tags_exclude):
            return True
        tags = set(probe.tags)
        if self.tags_include and not set(self.tags_include).issubset(tags):
            return False
        if self.tags_exclude and set(self.tags_exclude).intersection(tags):
            return False
        return True

    def select(self, probes: Union[Iterable[Probe], Mapping[int, Probe]]) -> List[Probe]:
        """Resolve this source against a probe pool: probes, or a
        ``{probe_id: probe}`` mapping, in which a ``probes``-type source
        looks its ids up instead of walking the pool.

        Returns up to ``requested`` connected probes, in stable probe-id
        order (the simulator's stand-in for the platform's allocator).
        Raises :class:`ProbeSelectionError` when nothing matches.
        """
        wanted_ids = self._wanted_probe_ids() if self.type == "probes" else None
        if isinstance(probes, Mapping):
            if wanted_ids is None:
                probes = probes.values()
            else:
                probes = [probes[pid] for pid in sorted(wanted_ids) if pid in probes]
        matching = [
            probe
            for probe in probes
            if probe.status is ProbeStatus.CONNECTED
            and self._matches_locality(probe, wanted_ids)
            and self._matches_tags(probe)
        ]
        if not matching:
            raise ProbeSelectionError(
                f"source {self.type}={self.value!r} matched no connected probes"
            )
        matching.sort(key=lambda probe: probe.probe_id)
        return matching[: self.requested]


def select_all(
    sources: Sequence[AtlasSource], probes: Union[Sequence[Probe], Mapping[int, Probe]]
) -> List[Probe]:
    """Union of all source selections, deduplicated, probe-id ordered;
    ``probes`` is a pool as :meth:`AtlasSource.select` takes it."""
    if not sources:
        raise AtlasError("at least one source is required")
    chosen = {}
    for source in sources:
        for probe in source.select(probes):
            chosen[probe.probe_id] = probe
    return [chosen[pid] for pid in sorted(chosen)]

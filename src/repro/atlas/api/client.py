"""Cousteau-style request objects.

Mirrors the ``ripe.atlas.cousteau`` API surface the paper's tooling used:

* :class:`AtlasCreateRequest` — register measurements;
* :class:`AtlasResultsRequest` — download results for a window;
* :class:`AtlasStopRequest` — stop an ongoing measurement;
* :class:`MeasurementRequest` — measurement metadata;
* :class:`ProbeRequest` — iterate the probe directory.

Each ``create()`` returns ``(is_success, response)`` exactly like
cousteau, so analysis code ports across with only the import changed.
Requests reach the in-process :class:`~repro.atlas.platform.AtlasPlatform`
through a :class:`~repro.atlas.api.transport.Transport` seam (where a
live deployment would put HTTPS, and where chaos testing injects
faults); pass a platform or transport explicitly or rely on the
process-wide default.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.atlas.api.measurements import MeasurementDefinition
from repro.atlas.api.sources import AtlasSource
from repro.atlas.api.transport import (
    Transport,
    default_platform,
    reset_default_platform,
)
from repro.atlas.platform import DEFAULT_KEY, AtlasPlatform
from repro.errors import AtlasAPIError, AtlasError, TransportError


class _BaseRequest:
    """Shared plumbing: resolve the transport to talk through."""

    def __init__(self, platform: AtlasPlatform = None, transport: Transport = None):
        if transport is not None:
            self._transport = transport
        else:
            self._transport = Transport(platform)

    @property
    def transport(self) -> Transport:
        return self._transport

    @property
    def platform(self) -> AtlasPlatform:
        return self._transport.platform


class AtlasCreateRequest(_BaseRequest):
    """Register one or more measurements (cousteau-compatible shape)."""

    def __init__(
        self,
        *,
        measurements: Sequence[MeasurementDefinition],
        sources: Sequence[AtlasSource],
        start_time: int,
        stop_time: int,
        key: str = DEFAULT_KEY,
        is_oneoff: bool = False,
        platform: AtlasPlatform = None,
        transport: Transport = None,
    ):
        super().__init__(platform, transport)
        if not measurements:
            raise AtlasError("at least one measurement is required")
        if not sources:
            raise AtlasError("at least one source is required")
        self.measurements = list(measurements)
        self.sources = list(sources)
        self.start_time = int(start_time)
        self.stop_time = int(stop_time)
        self.key = key
        self.is_oneoff = is_oneoff

    def create(self) -> Tuple[bool, dict]:
        """Returns ``(True, {"measurements": [ids...]})`` or ``(False, error)``."""
        created: List[int] = []
        try:
            for definition in self.measurements:
                if self.is_oneoff:
                    definition.is_oneoff = True
                    definition.interval = None
                struct = definition.build_api_struct()
                msm_id = self.transport.create_measurement(
                    struct,
                    self.sources,
                    self.start_time,
                    self.stop_time,
                    key=self.key,
                )
                created.append(msm_id)
        except (AtlasAPIError, AtlasError) as exc:
            return False, {"error": {"detail": str(exc)}, "measurements": created}
        return True, {"measurements": created}


class AtlasResultsRequest(_BaseRequest):
    """Fetch results of a measurement, optionally windowed."""

    def __init__(
        self,
        *,
        msm_id: int,
        start: int = None,
        stop: int = None,
        probe_ids: Sequence[int] = None,
        platform: AtlasPlatform = None,
        transport: Transport = None,
    ):
        super().__init__(platform, transport)
        self.msm_id = int(msm_id)
        self.start = start
        self.stop = stop
        self.probe_ids = list(probe_ids) if probe_ids is not None else None

    def create(self) -> Tuple[bool, List[dict]]:
        try:
            results = self.transport.results(
                self.msm_id, self.start, self.stop, self.probe_ids
            )
        except (AtlasAPIError, TransportError) as exc:
            return False, [{"error": {"detail": str(exc)}}]
        return True, results

    def columns(self):
        """Columnar fetch: ``(True, PingColumns)`` for a ping window,
        ``(False, reason)`` when the caller must fall back to
        :meth:`create` — a non-ping measurement or an API error.  Under a
        chaos transport the columns are already cleaned: malformed
        entries quarantined and duplicates dropped, as a collector would
        clean :meth:`create`'s dicts.  Cousteau has no such verb; it
        exists so bulk consumers can skip the per-sample dict
        round-trip."""
        try:
            window = self.transport.results_columns(
                self.msm_id, self.start, self.stop, self.probe_ids
            )
        except (AtlasAPIError, TransportError) as exc:
            return False, {"error": {"detail": str(exc)}}
        if window is None:
            return False, {"error": {"detail": "no columnar path for this fetch"}}
        return True, window.columns


class AtlasStopRequest(_BaseRequest):
    """Stop an ongoing measurement.

    ``at`` is the Unix timestamp at which the stop takes effect (results
    scheduled after it are never generated); omit it to cancel outright.
    """

    def __init__(
        self,
        *,
        msm_id: int,
        key: str = DEFAULT_KEY,
        at: int = None,
        platform: AtlasPlatform = None,
        transport: Transport = None,
    ):
        super().__init__(platform, transport)
        self.msm_id = int(msm_id)
        self.key = key
        self.at = at

    def create(self) -> Tuple[bool, dict]:
        try:
            self.transport.stop_measurement(self.msm_id, key=self.key, at=self.at)
        except (AtlasAPIError, TransportError) as exc:
            return False, {"error": {"detail": str(exc)}}
        return True, {}


class MeasurementRequest(_BaseRequest):
    """Measurement metadata lookup."""

    def __init__(
        self,
        *,
        msm_id: int,
        platform: AtlasPlatform = None,
        transport: Transport = None,
    ):
        super().__init__(platform, transport)
        self.msm_id = int(msm_id)

    def get(self) -> dict:
        return self.transport.measurement(self.msm_id).as_api_dict()


class ProbeRequest(_BaseRequest):
    """Iterate probe metadata, cousteau-generator style.

    Example::

        for probe in ProbeRequest(country_code="DE", tags=["lte"]):
            print(probe["id"], probe["tags"])
    """

    def __init__(
        self,
        country_code: str = None,
        tags: Sequence[str] = None,
        is_anchor: bool = None,
        platform: AtlasPlatform = None,
        transport: Transport = None,
    ):
        super().__init__(platform, transport)
        self.country_code = country_code
        self.tags = list(tags) if tags else None
        self.is_anchor = is_anchor

    def _matches(self) -> List:
        return self.transport.filter_probes(
            country_code=self.country_code,
            tags=self.tags,
            is_anchor=self.is_anchor,
        )

    def __iter__(self) -> Iterator[dict]:
        for probe in self._matches():
            yield probe.as_api_dict()

    def total_count(self) -> int:
        """Matching-probe count in one directory pass (no dict building)."""
        return len(self._matches())

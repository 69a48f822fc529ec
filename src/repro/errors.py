"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GeoError(ReproError):
    """Invalid geographic input (unknown country, bad coordinates, ...)."""


class UnknownCountryError(GeoError):
    """A country lookup failed."""

    def __init__(self, code: str):
        super().__init__(f"unknown country: {code!r}")
        self.code = code


class FrameError(ReproError):
    """Invalid dataframe operation."""


class ColumnError(FrameError):
    """A column lookup or column-shape constraint failed."""


class NetworkModelError(ReproError):
    """The latency model was asked for an impossible path or parameter."""


class AtlasError(ReproError):
    """Base class for RIPE-Atlas-simulator errors."""


class AtlasAPIError(AtlasError):
    """The simulated Atlas API rejected a request.

    Mirrors the error envelope of the real REST API: a status code plus a
    human-readable detail string.
    """

    def __init__(self, status: int, detail: str):
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail


class QuotaExceededError(AtlasAPIError):
    """The requesting account ran out of credits or hit a rate limit."""

    def __init__(self, detail: str = "credit quota exceeded"):
        super().__init__(402, detail)


class MeasurementNotFoundError(AtlasAPIError):
    """A measurement id does not exist on the platform."""

    def __init__(self, msm_id: int):
        super().__init__(404, f"measurement {msm_id} not found")
        self.msm_id = msm_id


class TransportError(AtlasError):
    """The transport layer between client and platform failed.

    These model the HTTP-level failures a live REST API exhibits (rate
    limits, 5xx storms, timeouts, resets) rather than semantic API
    rejections, which stay :class:`AtlasAPIError`.
    """


class TransientTransportError(TransportError):
    """A transport failure that a retry may resolve."""

    #: Server-suggested wait before retrying (``Retry-After``), seconds.
    retry_after: float = 0.0


class RateLimitedError(TransientTransportError):
    """HTTP 429: the endpoint's rate limit tripped."""

    def __init__(self, retry_after: float):
        super().__init__(f"HTTP 429: rate limited, retry after {retry_after:.0f}s")
        self.retry_after = float(retry_after)


class ServerWobbleError(TransientTransportError):
    """A transient 5xx from the platform."""

    def __init__(self, status: int = 502):
        super().__init__(f"HTTP {status}: transient server error")
        self.status = status


class RequestTimeoutError(TransientTransportError):
    """The request exceeded the client's read timeout."""

    def __init__(self, timeout_s: float = 30.0):
        super().__init__(f"request timed out after {timeout_s:.0f}s")
        self.timeout_s = timeout_s


class ConnectionDroppedError(TransientTransportError):
    """The connection reset mid-request."""

    def __init__(self):
        super().__init__("connection reset by peer")


class MaintenanceError(TransientTransportError):
    """HTTP 503: the platform is inside a maintenance window."""

    def __init__(self, retry_after: float):
        super().__init__(
            f"HTTP 503: maintenance window, retry after {retry_after:.0f}s"
        )
        self.retry_after = float(retry_after)


class TruncatedPageError(TransientTransportError):
    """A result page arrived shorter than its declared length.

    Models a content-length mismatch: the client detects the truncation
    and must re-fetch the whole page.
    """

    def __init__(self, got: int, declared: int):
        super().__init__(f"result page truncated: got {got} of {declared} entries")
        self.got = got
        self.declared = declared


class CircuitOpenError(TransportError):
    """The per-endpoint circuit breaker is open; calls are refused."""

    def __init__(self, endpoint: str, remaining_s: float):
        super().__init__(
            f"circuit open for endpoint {endpoint!r}; {remaining_s:.0f}s of cooldown left"
        )
        self.endpoint = endpoint
        self.remaining_s = remaining_s


class RetryExhaustedError(TransportError):
    """A single call failed every allowed attempt."""

    def __init__(self, endpoint: str, attempts: int, last: Exception):
        super().__init__(
            f"endpoint {endpoint!r} failed after {attempts} attempts: {last}"
        )
        self.endpoint = endpoint
        self.attempts = attempts
        self.last = last


class RetryBudgetExhaustedError(TransportError):
    """The collection-wide retry budget ran dry."""

    def __init__(self, endpoint: str, budget: int):
        super().__init__(
            f"retry budget of {budget} exhausted (last failing endpoint {endpoint!r})"
        )
        self.endpoint = endpoint
        self.budget = budget


class ProbeSelectionError(AtlasError):
    """A probe source expression matched no usable probes."""


class ResultParseError(AtlasError):
    """A raw result blob could not be parsed (sagan-style)."""


class CampaignError(ReproError):
    """Campaign configuration or execution failed."""


class CollectionInterruptedError(CampaignError):
    """Collection died mid-campaign but left a resumable checkpoint.

    Carries the checkpoint and the partial (unfrozen) dataset so the
    caller can resume with ``campaign.collect(checkpoint=..., dataset=...)``,
    plus the id of the measurement whose fetch failed terminally —
    without it the re-raise would lose which measurement's partial fetch
    was abandoned (its samples are *not* in the dataset; the checkpoint
    never advanced past it).
    """

    def __init__(self, detail: str, checkpoint=None, dataset=None, msm_id=None):
        super().__init__(f"collection interrupted: {detail}")
        self.checkpoint = checkpoint
        self.dataset = dataset
        self.msm_id = msm_id


class WorkerCrashError(CampaignError):
    """A collection range's worker died mid-range (injected or real)."""

    def __init__(self, range_id: int, msm_id: int):
        super().__init__(f"worker for range {range_id} crashed at measurement {msm_id}")
        self.range_id = range_id
        self.msm_id = msm_id


class WorkerHungError(CampaignError):
    """A range's worker exceeded its watchdog deadline and was reaped."""

    def __init__(self, range_id: int, msm_id: int, elapsed_s: float, deadline_s: float):
        super().__init__(
            f"worker for range {range_id} hung at measurement {msm_id} "
            f"({elapsed_s:.0f}s simulated, deadline {deadline_s:.0f}s)"
        )
        self.range_id = range_id
        self.msm_id = msm_id
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s


class StoreError(ReproError):
    """Persistent campaign store misuse or unsupported layout.

    Covers API misuse (writing to a finalized writer, opening a path
    that is not a store) and format-version mismatches; data damage is
    the stricter :class:`StoreIntegrityError`.
    """


class StoreIntegrityError(StoreError):
    """A store's on-disk bytes do not match its manifest.

    Raised whenever a chunk is missing, truncated, or fails its SHA-256
    check, or the manifest itself is truncated or unparseable — the
    contract is that damaged data is *reported*, never silently
    analyzed.
    """


class StoreRepairError(StoreError):
    """A damaged store cannot be (or failed to be) surgically repaired.

    Raised when the manifest itself is damaged, the store carries no
    provenance or window index to re-synthesize from, or a re-synthesized
    chunk does not hash back to the manifest's recorded checksum.
    """


class SimulatedCrashError(ReproError):
    """The filesystem fault injector killed the simulated process.

    Raised by :mod:`repro.store.fsim` at an injected crash point, after
    applying its power-loss model (unsynced data dropped, un-dirsynced
    renames rolled back).  Code under test must treat it like a real
    crash: no cleanup handlers get to run against the modeled disk.
    """

    def __init__(self, op: str, point: str, step: int, kind: str):
        super().__init__(
            f"simulated crash [{kind}] at step {step}: {op} ({point})"
        )
        self.op = op
        self.point = point
        self.step = step
        self.kind = kind


class CrawlerError(ReproError):
    """The scholar crawler hit a terminal condition (e.g. blocked)."""

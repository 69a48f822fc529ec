"""Deterministic fault injection for the Atlas transport seam.

The paper's nine-month campaign ran against the *live* RIPE Atlas REST
API, where rate limits, 5xx storms, timeouts, truncated pages, and
malformed blobs were the operating reality.  The simulated platform is
perfectly reliable, so this module re-introduces those failures — on
purpose, and deterministically.

A :class:`FaultInjector` sits inside the transport
(:mod:`repro.atlas.api.transport`) and intercepts every outbound call.
Each intercept draws from :func:`repro.net.rng.stream` keyed by
``(seed, "faults", *scope, endpoint, call_index)``, so a run with the
same seed replays the identical fault schedule byte for byte; chaos
tests can assert exact-dataset identity across runs.

**Order independence (the parallel-collection contract).**  The call
counter and the maintenance window are *scoped*: entering
:meth:`FaultInjector.scope` with a label path (the transport uses
``("msm", msm_id, start, stop)`` around each result-window fetch) resets
both and mixes the labels into the RNG key.  Inside a scope the fault
schedule is therefore a pure function of ``(seed, profile, scope
labels, call sequence within the scope)`` — independent of which
worker, thread, or position in the campaign performs the fetch.  Two
transports with the same seed and profile inject byte-identical faults
for the same measurement window regardless of interleaving, which is
what lets a sharded parallel collector converge to the exact dataset a
serial run produces.

Two fault classes exist:

* **transport faults** (:meth:`FaultInjector.before_call`) — raised as
  :class:`~repro.errors.TransientTransportError` subclasses before the
  platform is reached: HTTP 429 with ``Retry-After``, transient 5xx,
  timeouts, connection resets, and clock-driven maintenance windows;
* **data faults** (:meth:`FaultInjector.plan_page`) — decided per
  result page: truncation (detected client-side and retried),
  duplicated entries (caught by the collector's dedup guard), and
  malformed blobs (quarantined by the collector).

A data-fault draw depends only on the page length and on positions, so
one :class:`PagePlan` has two renderings: :meth:`PagePlan.apply` mangles
the page's dicts (the client API's :meth:`FaultInjector.mangle_page`),
and :func:`surviving_rows` replays the same plan over row indices, which
is how the columnar fetch runs under chaos without building a dict.
"""

from __future__ import annotations

import itertools
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    AtlasError,
    ConnectionDroppedError,
    MaintenanceError,
    RateLimitedError,
    RequestTimeoutError,
    ServerWobbleError,
    TruncatedPageError,
)
from repro.net.rng import stream
from repro.obs import NULL_OBS


@dataclass(frozen=True)
class FaultProfile:
    """Per-call fault probabilities for one chaos level.

    All probabilities are per intercepted call; data-fault probabilities
    are per fetched result page.  ``maintenance`` is the chance a
    maintenance window *opens* at a call; while one is open every call
    fails with 503 until the (simulated) clock passes its end.
    """

    name: str = "none"
    rate_limit: float = 0.0
    server_error: float = 0.0
    timeout: float = 0.0
    connection_reset: float = 0.0
    maintenance: float = 0.0
    maintenance_duration_s: float = 0.0
    truncate_page: float = 0.0
    duplicate_page: float = 0.0
    malformed: float = 0.0
    #: Range the injected ``Retry-After`` header is drawn from (seconds).
    retry_after_min_s: float = 5.0
    retry_after_max_s: float = 45.0

    @property
    def is_noop(self) -> bool:
        return (
            self.rate_limit == self.server_error == self.timeout
            == self.connection_reset == self.maintenance
            == self.truncate_page == self.duplicate_page == self.malformed
            == 0.0
        )


#: Named chaos levels.  ``flaky`` injects only *recoverable* faults, so a
#: retrying + deduplicating collector must converge to the exact
#: fault-free dataset.  ``outage`` adds maintenance windows; ``hostile``
#: adds malformed blobs (unrecoverable: those samples are quarantined).
PROFILES: Dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "flaky": FaultProfile(
        name="flaky",
        rate_limit=0.06,
        server_error=0.06,
        timeout=0.03,
        connection_reset=0.02,
        truncate_page=0.04,
        duplicate_page=0.04,
    ),
    "outage": FaultProfile(
        name="outage",
        rate_limit=0.02,
        server_error=0.03,
        maintenance=0.01,
        maintenance_duration_s=900.0,
        truncate_page=0.02,
        duplicate_page=0.02,
    ),
    "hostile": FaultProfile(
        name="hostile",
        rate_limit=0.08,
        server_error=0.08,
        timeout=0.04,
        connection_reset=0.03,
        maintenance=0.005,
        maintenance_duration_s=600.0,
        truncate_page=0.05,
        duplicate_page=0.05,
        malformed=0.04,
    ),
}


def get_profile(profile) -> FaultProfile:
    """Resolve a profile name (or pass a :class:`FaultProfile` through)."""
    if isinstance(profile, FaultProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise AtlasError(
            f"unknown fault profile {profile!r}; choose from {sorted(PROFILES)}"
        ) from None


@dataclass(frozen=True)
class WorkerFaultProfile:
    """Per-window worker-process fault probabilities for one chaos level.

    Where :class:`FaultProfile` fails the *transport*, this fails the
    *collector itself*: ``crash`` is the chance a worker dies outright
    mid-window, ``hang`` the chance it wedges for ``hang_duration_s``
    simulated seconds (reaped by the supervisor's watchdog when that
    exceeds the shard deadline).  Decisions are drawn per measurement
    window *and respawn attempt* — window-keyed so outcomes are
    worker-count-invariant, attempt-keyed so a respawned worker re-rolls
    instead of dying at the same spot forever.
    """

    name: str = "steady"
    crash: float = 0.0
    hang: float = 0.0
    hang_duration_s: float = 0.0

    @property
    def is_noop(self) -> bool:
        return self.crash == self.hang == 0.0


#: Named worker-chaos levels, the supervisor-side analogue of
#: :data:`PROFILES`.  All profiles are fully recoverable given enough
#: respawn attempts; ``pathological`` exists to exercise the quarantine
#: path in a bounded number of rounds.
WORKER_PROFILES: Dict[str, WorkerFaultProfile] = {
    "steady": WorkerFaultProfile(name="steady"),
    "crashy": WorkerFaultProfile(name="crashy", crash=0.05),
    "wedged": WorkerFaultProfile(name="wedged", hang=0.03, hang_duration_s=600.0),
    "pathological": WorkerFaultProfile(
        name="pathological", crash=0.08, hang=0.05, hang_duration_s=900.0
    ),
}


def get_worker_profile(profile) -> WorkerFaultProfile:
    """Resolve a worker profile name (or pass one through)."""
    if isinstance(profile, WorkerFaultProfile):
        return profile
    try:
        return WORKER_PROFILES[profile]
    except KeyError:
        raise AtlasError(
            f"unknown worker fault profile {profile!r}; "
            f"choose from {sorted(WORKER_PROFILES)}"
        ) from None


@dataclass(frozen=True)
class PagePlan:
    """The data faults of one result page, in terms of positions only.

    The page delivers its ``size`` entries in order, then copies of the
    duplicated slice ``[lo, hi)`` (empty when ``lo == hi``).  ``corrupt``
    is the delivery position replaced by a malformed blob of shape
    ``kind``, or ``None``.  :meth:`apply` renders the plan onto dicts;
    :meth:`order` gives the same delivery as page positions, which is
    how the columnar fetch replays chaos without building a dict.
    """

    size: int
    lo: int = 0
    hi: int = 0
    corrupt: Optional[int] = None
    kind: Optional[int] = None

    def order(self) -> np.ndarray:
        """Page position of every delivered entry, in delivery order."""
        return np.concatenate(
            [np.arange(self.size, dtype=np.int64),
             np.arange(self.lo, self.hi, dtype=np.int64)]
        )

    def apply(self, page: Sequence[dict]) -> List[object]:
        """The page as delivered: duplicates as copies, one blob mangled."""
        mangled: List[object] = list(page)
        mangled += [dict(entry) for entry in page[self.lo : self.hi]]
        if self.corrupt is not None:
            mangled[self.corrupt] = _corrupt(mangled[self.corrupt], self.kind)
        return mangled


def _corrupt(entry: dict, kind: int) -> object:
    """One malformed result blob, in a shape real campaigns saw."""
    if kind == 0:
        blob = dict(entry)
        blob.pop("type", None)  # undispatchable
        return blob
    if kind == 1:
        blob = dict(entry)
        blob["timestamp"] = "not-a-timestamp"
        return blob
    return '{"truncated": '  # invalid JSON string blob


def surviving_rows(
    pages: Sequence[Tuple[int, PagePlan]]
) -> Tuple[np.ndarray, int, int]:
    """Rows a cleaning reader keeps from one window's planned pages.

    ``pages`` pairs each page's first row with its plan, in fetch order.
    Every malformed blob fails to parse and is quarantined; of the rest,
    the first occurrence of each row is kept in delivery order and later
    ones count as duplicates — the dict path's cleaning contract
    (:meth:`repro.atlas.results.ping.PingColumns.from_raw`), replayed
    over row indices.  Returns ``(rows, quarantined, duplicates)``.
    """
    delivered = []
    quarantined = 0
    for first_row, plan in pages:
        order = plan.order() + first_row
        if plan.corrupt is not None:
            order = np.delete(order, plan.corrupt)
            quarantined += 1
        delivered.append(order)
    stream_rows = np.concatenate(delivered)
    _, first_seen = np.unique(stream_rows, return_index=True)
    rows = stream_rows[np.sort(first_seen)]
    return rows, quarantined, len(stream_rows) - len(rows)


class FaultInjector:
    """Seeded fault source for one transport instance.

    Every intercepted call consumes one slot of a global call counter;
    the decision for call *n* is drawn from
    ``stream(seed, "faults", endpoint, n)``, which makes the schedule a
    pure function of ``(seed, call sequence)`` — and the call sequence of
    a deterministic collector is itself reproducible.
    """

    def __init__(self, seed: int, profile="flaky", clock=None, obs=None):
        self.seed = int(seed)
        self.profile = get_profile(profile)
        self.clock = clock
        self.obs = obs if obs is not None else NULL_OBS
        self.counts: Counter = Counter()
        self._scope_labels: Tuple = ()
        self._calls = itertools.count()
        self._maintenance_until: Optional[float] = None

    def _record(self, kind: str) -> None:
        """Account one injected fault (local counts + metrics registry)."""
        self.counts[kind] += 1
        self.obs.inc("faults_injected_total", kind=kind)

    @contextmanager
    def scope(self, *labels):
        """Run a block under a label-derived fault scope.

        Resets the call counter and any open maintenance window for the
        duration of the block and keys every RNG draw inside it by
        ``labels`` — the schedule becomes a pure function of
        ``(seed, profile, labels, call sequence)``, independent of what
        was injected before or concurrently elsewhere.  Fault *counts*
        keep accumulating across scopes.  Scopes restore the previous
        state on exit, so unscoped callers are unaffected.
        """
        saved = (self._scope_labels, self._calls, self._maintenance_until)
        self._scope_labels = tuple(labels)
        self._calls = itertools.count()
        self._maintenance_until = None
        try:
            yield self
        finally:
            self._scope_labels, self._calls, self._maintenance_until = saved

    # -- transport faults ---------------------------------------------------

    def before_call(self, endpoint: str) -> None:
        """Raise a transient transport fault, or return to let the call pass."""
        profile = self.profile
        rng = stream(
            self.seed, "faults", *self._scope_labels, endpoint, next(self._calls)
        )
        now = self.clock.now() if self.clock is not None else 0.0
        if self._maintenance_until is not None:
            if now < self._maintenance_until:
                self._record("maintenance_hit")
                raise MaintenanceError(retry_after=self._maintenance_until - now)
            self._maintenance_until = None
        draw = float(rng.random())
        edge = profile.rate_limit
        if draw < edge:
            self._record("rate_limit")
            raise RateLimitedError(
                retry_after=float(
                    rng.uniform(profile.retry_after_min_s, profile.retry_after_max_s)
                )
            )
        edge += profile.server_error
        if draw < edge:
            self._record("server_error")
            raise ServerWobbleError(status=int(rng.choice([500, 502, 503])))
        edge += profile.timeout
        if draw < edge:
            self._record("timeout")
            raise RequestTimeoutError()
        edge += profile.connection_reset
        if draw < edge:
            self._record("connection_reset")
            raise ConnectionDroppedError()
        edge += profile.maintenance
        if draw < edge:
            self._record("maintenance_open")
            self._maintenance_until = now + profile.maintenance_duration_s
            raise MaintenanceError(retry_after=profile.maintenance_duration_s)

    # -- data faults --------------------------------------------------------

    def plan_page(self, size: int, endpoint: str = "results") -> PagePlan:
        """Decide one result page's data faults from its length alone.

        Every draw depends on ``size`` and on positions, never on the
        page's contents, so the plan fixes which rows a page delivers,
        in what order, and which one arrives corrupted before any row
        exists.  Truncation raises (the client detects the short page
        and retries); the fault counts are recorded here.
        """
        profile = self.profile
        rng = stream(
            self.seed, "faults", *self._scope_labels, endpoint, "page",
            next(self._calls),
        )
        if not size:
            return PagePlan(0)
        if float(rng.random()) < profile.truncate_page:
            self._record("truncate_page")
            got = int(rng.integers(0, size))
            raise TruncatedPageError(got=got, declared=size)
        lo = hi = 0
        if float(rng.random()) < profile.duplicate_page:
            self._record("duplicate_page")
            lo = int(rng.integers(0, size))
            hi = min(size, lo + 1 + int(rng.integers(0, 4)))
        if float(rng.random()) < profile.malformed:
            self._record("malformed")
            corrupt = int(rng.integers(0, size + hi - lo))
            return PagePlan(size, lo, hi, corrupt, int(rng.integers(0, 3)))
        return PagePlan(size, lo, hi)

    def mangle_page(self, page: List[dict], endpoint: str = "results") -> List[dict]:
        """Apply data faults to one fetched result page.

        Truncation raises (the client detects the short page and
        retries); duplication and malformed blobs return a mangled copy —
        the platform's canonical dicts are never mutated.
        """
        return self.plan_page(len(page), endpoint).apply(page)

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Injected-fault counts by kind (stable key order)."""
        return {kind: self.counts[kind] for kind in sorted(self.counts)}

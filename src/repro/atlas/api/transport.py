"""The transport seam between the client API and the platform.

Every cousteau-style request (:mod:`repro.atlas.api.client`,
:mod:`repro.atlas.api.stream`) and the campaign collector route their
platform calls through a :class:`Transport` instead of invoking
:class:`~repro.atlas.platform.AtlasPlatform` methods directly.  The seam
is where a live deployment would put HTTPS; here it is where chaos lives:

* with no fault injector attached (the default), every method is a
  direct delegation — the seam adds no measurable overhead and behavior
  is byte-identical to calling the platform;
* with a :class:`~repro.atlas.faults.FaultInjector` attached, every call
  can fail the way the real REST API failed (429/5xx/timeout/reset/
  maintenance), result fetches are paginated and pages can arrive
  truncated, duplicated, or malformed, and a
  :class:`~repro.atlas.api.retry.RetryEngine` drives recovery on a
  simulated clock.  The columnar fetch runs the same page schedule
  over row indices (:class:`~repro.atlas.faults.PagePlan`), so both
  fetches see the same faults and retries.

Faults and retry jitter both derive from the platform seed, so a chaos
run replays byte-identically under the same seed.  Each result-window
fetch additionally runs under a ``(msm_id, start, stop)`` fault/retry
*scope* (:meth:`~repro.atlas.faults.FaultInjector.scope`), which makes
the fetch outcome a pure function of ``(seed, profile, policy, msm_id,
window)`` — independent of fetch order or thread interleaving.  A
sharded parallel collector exploits this: every worker gets its own
:meth:`Transport.worker_clone` (fresh clock, injector, and retry
state) and still reproduces exactly the faults a serial run would have
injected for the same windows.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Dict, List, Optional, Sequence

from repro.atlas.api.retry import RetryEngine, RetryPolicy, SimulatedClock
from repro.atlas.faults import (
    FaultInjector,
    FaultProfile,
    PagePlan,
    get_profile,
    surviving_rows,
)
from repro.atlas.platform import AtlasPlatform
from repro.atlas.results.ping import PingWindow
from repro.obs import ensure_obs

#: Result-page size the transport fetches under fault injection, mirroring
#: the real API's paginated ``/results`` endpoint.
DEFAULT_PAGE_SIZE = 500


@lru_cache(maxsize=1)
def default_platform() -> AtlasPlatform:
    """Process-wide default platform (seed 0), built on first use."""
    return AtlasPlatform(seed=0)


def reset_default_platform() -> None:
    """Drop the cached default platform (test isolation helper)."""
    default_platform.cache_clear()


class Transport:
    """Routes client requests to a platform, optionally through chaos.

    ``faults`` accepts a profile name (``"none"``/``"flaky"``/
    ``"outage"``/``"hostile"``), a :class:`FaultProfile`, a ready-made
    :class:`FaultInjector`, or ``None`` for the zero-overhead pass-through.
    """

    def __init__(
        self,
        platform: AtlasPlatform = None,
        faults=None,
        retry: RetryPolicy = None,
        clock: SimulatedClock = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        obs=None,
    ):
        self.platform = platform if platform is not None else default_platform()
        self.page_size = int(page_size)
        self.clock = clock if clock is not None else SimulatedClock()
        self.obs = ensure_obs(obs)
        if isinstance(faults, FaultInjector):
            injector = faults
            injector.clock = self.clock
        elif faults is None:
            injector = None
        else:
            profile = get_profile(faults)
            injector = (
                None
                if profile.is_noop
                else FaultInjector(self.platform.seed, profile, clock=self.clock)
            )
        self.injector = injector
        self.retry = RetryEngine(retry, self.clock, seed=self.platform.seed)
        self.bind_obs(self.obs)

    def bind_obs(self, obs) -> None:
        """Attach an observability context to the whole seam.

        One context serves the transport, its retry engine, and its fault
        injector, and span timestamps follow this transport's simulated
        clock.  Called at construction; a campaign that owns its own
        context rebinds the transport it was handed.
        """
        self.obs = ensure_obs(obs)
        self.retry.obs = self.obs
        if self.injector is not None:
            self.injector.obs = self.obs
        self.obs.bind_clock(self.clock.now)

    @property
    def fault_profile(self) -> FaultProfile:
        return self.injector.profile if self.injector else get_profile("none")

    def worker_clone(self) -> "Transport":
        """A transport for one parallel-collection worker.

        Same platform, fault profile, retry policy, and page size — but a
        fresh simulated clock, fault injector, and retry engine, so
        workers never share mutable chaos state.  Because fault and
        jitter schedules are scoped per result window, a clone injects
        exactly the faults the original would have for the same window.
        """
        profile = self.fault_profile
        return Transport(
            self.platform,
            faults=None if profile.is_noop else profile,
            retry=self.retry.policy,
            clock=SimulatedClock(),
            page_size=self.page_size,
            obs=self.obs.child(),
        )

    # -- plumbing -----------------------------------------------------------

    def _call(self, endpoint: str, fn):
        self.obs.inc("transport_calls_total", endpoint=endpoint)
        if self.injector is None:
            return fn()

        def attempt():
            self.injector.before_call(endpoint)
            return fn()

        return self.retry.call(endpoint, attempt)

    # -- the API surface ----------------------------------------------------

    def create_measurement(
        self, definition: dict, sources, start_time: int, stop_time: int, key: str
    ) -> int:
        return self._call(
            "create",
            lambda: self.platform.create_measurement(
                definition, sources, start_time, stop_time, key=key
            ),
        )

    def stop_measurement(self, msm_id: int, key: str, at: int = None) -> None:
        return self._call(
            "stop", lambda: self.platform.stop_measurement(msm_id, key=key, at=at)
        )

    def measurement(self, msm_id: int):
        return self._call("measurement", lambda: self.platform.measurement(msm_id))

    def filter_probes(self, **query) -> List:
        return self._call("probes", lambda: self.platform.filter_probes(**query))

    def results(
        self,
        msm_id: int,
        start: int = None,
        stop: int = None,
        probe_ids: Sequence[int] = None,
    ) -> List[dict]:
        """Fetch a measurement's results for a window.

        Pass-through mode delegates straight to the platform.  Under
        fault injection the fetch is paginated; each page call can fail
        or arrive mangled, and the retry engine re-fetches pages whose
        truncation was detected.  Duplicated entries and malformed blobs
        are *returned* — cleaning them up is the collector's job, exactly
        as with the real API.
        """
        self.obs.inc("transport_calls_total", endpoint="results")
        fetch = partial(
            self.platform.results, msm_id, start, stop, probe_ids, obs=self.obs
        )
        if self.injector is None:
            return fetch()
        full, pages = self._paged(msm_id, start, stop, fetch)
        out: List[dict] = []
        for first_row, plan in pages:
            out.extend(plan.apply(full[first_row : first_row + plan.size]))
        return out

    def results_columns(
        self,
        msm_id: int,
        start: int = None,
        stop: int = None,
        probe_ids: Sequence[int] = None,
    ) -> Optional[PingWindow]:
        """Columnar window fetch, cleaned; ``None`` for non-ping measurements.

        Returns the window's columns as a collector keeps them, with the
        malformed entries it quarantined and the duplicates it dropped.
        On a clean wire this is a direct delegation.  Under fault
        injection the window is synthesized once, the page, fault and
        retry schedule of :meth:`results` is replayed over row indices
        (same scopes, same calls in the same order, so the same faults
        and retries), and the rows a cleaning reader of the dict stream
        would keep are gathered in its order
        (:func:`~repro.atlas.faults.surviving_rows`).
        """
        self.obs.inc("transport_calls_total", endpoint="results_columns")
        fetch = partial(
            self.platform.results_columns,
            msm_id, start, stop, probe_ids, obs=self.obs,
        )
        if self.injector is None:
            columns = fetch()
            return None if columns is None else PingWindow(columns, 0, 0)
        columns, pages = self._paged(msm_id, start, stop, fetch)
        if columns is None:
            return None
        rows, quarantined, duplicates = surviving_rows(pages)
        return PingWindow(columns.take(rows), quarantined, duplicates)

    def _paged(self, msm_id: int, start, stop, fetch):
        """One window fetch under chaos: ``(window, [(first_row, plan)])``.

        The whole fetch runs under a ``(measurement, window)`` scope, so
        the fault and jitter schedules below depend only on these labels,
        never on what was fetched before — see the module docstring.
        The call order is: the measurement lookup, then one retried
        ``results`` call per page of ``page_size`` rows (one empty page
        for an empty window).  ``fetch`` synthesizes the window once; a
        ``None`` window (no columnar path) makes no page calls.
        """
        labels = (
            "msm",
            msm_id,
            "-" if start is None else int(start),
            "-" if stop is None else int(stop),
        )
        with self.injector.scope(*labels), self.retry.scope(*labels):
            # Validate the measurement id through the chaos path first so
            # a 404 surfaces as an API error, not a per-page fault.
            self.measurement(msm_id)
            window = fetch()
            if window is None:
                return None, []
            rows = len(window)
            pages = []
            for first_row in range(0, rows, self.page_size) if rows else (0,):
                page = partial(self._page, min(self.page_size, rows - first_row))
                pages.append((first_row, self.retry.call("results", page)))
            return window, pages

    def _page(self, size: int) -> PagePlan:
        """One page call: a transport fault, or the page's data-fault plan."""
        self.injector.before_call("results")
        return self.injector.plan_page(size)

    def results_count(
        self,
        msm_id: int,
        start: int = None,
        stop: int = None,
        probe_ids: Sequence[int] = None,
    ) -> Optional[int]:
        """Exact row count a columnar window fetch would yield, or ``None``.

        With a fault injector attached this returns ``None``: quarantined
        and duplicated entries shape the row stream, which is known only
        once the window's page schedule has run, so chaos runs leave
        direct-to-store planning and take the stitched record path.
        ``None`` also for non-ping measurements, like
        :meth:`results_columns`.
        """
        if self.injector is not None:
            return None
        count = self.platform.results_count(msm_id, start, stop, probe_ids)
        if count is not None:
            self.obs.inc("transport_calls_total", endpoint="results_count")
        return count

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Fault and retry accounting for benchmarks / health reports."""
        return {
            "profile": self.fault_profile.name,
            "faults": self.injector.stats() if self.injector else {},
            **self.retry.stats(),
        }

"""The simulated RIPE Atlas backend.

:class:`AtlasPlatform` plays the role of the REST service behind
``atlas.ripe.net``: it owns the probe fleet, accepts measurement
specifications (the JSON structs the cousteau-style client builds),
resolves probe sources, meters credits, and *materializes results on
demand* by driving the latency simulator.

Results are a pure function of ``(platform seed, measurement, probe,
tick)``: fetching the same window twice returns byte-identical data, and
extending a window only appends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.atlas.credits import (
    PING_COST_PER_PACKET,
    TRACEROUTE_COST,
    CreditAccount,
)
from repro.atlas.population import generate_population
from repro.atlas.probes import Probe, ProbeStatus
from repro.atlas.results.ping import PingColumns
from repro.cloud.vm import TargetVM, deploy_fleet
from repro.errors import AtlasAPIError, MeasurementNotFoundError
from repro.net.pathmodel import (
    EndpointAdjustment,
    LatencyModel,
    PingDrawStreams,
    PingFlow,
    PingObservation,
)
from repro.net.physics import estimate_hop_count
from repro.net.rng import stream

#: Default API key registered on a fresh platform.
DEFAULT_KEY = "REPRO-0000-DEFAULT-KEY"

#: Firmware version stamped on generated results (a real Atlas value).
_FIRMWARE = 5020

#: First measurement id handed out.
_FIRST_MSM_ID = 100_001

#: IPv6 paths run a hair longer than IPv4 (sparser peering, occasional
#: tunnels) — the familiar small v6 penalty of the late 2010s.
_V6_PATH_FACTOR = 1.03
_V6_PEERING_FACTOR = 1.20
_V6_EXTRA_MS = 1.5

#: Most rows one synthesis call composes.  A window is cut into blocks of
#: whole flows of up to this many rows (a single larger flow is its own
#: block), which bounds the kernel's working set, about 500 B a row, to
#: some 60 MB; every window up to MEDIUM scale fits in one block.
KERNEL_BLOCK_ROWS = 1 << 17


@dataclass
class StoredMeasurement:
    """A measurement registered on the platform."""

    msm_id: int
    definition: dict
    probes: Tuple[Probe, ...]
    start_time: int
    stop_time: int
    key: str
    status: str = "Ongoing"
    #: Moment a stop request took effect (None while running).  Result
    #: generation truncates here; results scheduled later never existed.
    stopped_at: Optional[int] = None

    @property
    def effective_stop_time(self) -> int:
        """Scheduled stop, or the stop request's moment if that came first."""
        if self.stopped_at is None:
            return self.stop_time
        return min(self.stop_time, self.stopped_at)

    @property
    def measurement_type(self) -> str:
        return self.definition["type"]

    @property
    def interval(self) -> int:
        return self.definition.get("interval", 0)

    @property
    def is_oneoff(self) -> bool:
        return bool(self.definition.get("is_oneoff"))

    def as_api_dict(self) -> dict:
        return {
            "id": self.msm_id,
            "type": self.measurement_type,
            "target": self.definition["target"],
            "description": self.definition.get("description", ""),
            "af": self.definition.get("af", 4),
            "interval": self.interval or None,
            "is_oneoff": self.is_oneoff,
            "start_time": self.start_time,
            "stop_time": self.stop_time,
            "status": {"name": self.status},
            "participant_count": len(self.probes),
        }


@dataclass(frozen=True)
class WindowSchedule:
    """A window's online ticks, flow-major: a flow index and a timestamp
    per row.

    The vectorized form of walking :meth:`AtlasPlatform._tick_times` with
    :meth:`~repro.atlas.probes.Probe.is_online` for every flow of a
    window: same spread offsets, same churn formula evaluated elementwise,
    so the rows are exactly the ticks that loop keeps, in probe-major
    order.  One schedule serves synthesis, row counts and completeness
    accounting.
    """

    probes: Tuple[Probe, ...]
    scheduled: np.ndarray   # (flows,) ticks before the window stop, online or not
    prefix: np.ndarray      # (flows,) online ticks before the window start
    counts: np.ndarray      # (flows,) online ticks inside the window
    flows: np.ndarray       # (rows,) flow index of each row
    timestamps: np.ndarray  # (rows,) int64

    def __len__(self) -> int:
        return len(self.timestamps)

    def blocks(self, limit: int) -> Iterator[Tuple[int, int]]:
        """``[first, stop)`` flow ranges of whole flows, up to ``limit``
        rows each (a single larger flow is a block of its own)."""
        ends = np.cumsum(self.counts)
        first, done = 0, 0
        while first < len(ends):
            stop = max(first + 1, int(np.searchsorted(ends, done + limit, "right")))
            yield first, stop
            first, done = stop, int(ends[stop - 1])


class AtlasPlatform:
    """The measurement platform backend."""

    def __init__(
        self,
        seed: int = 0,
        probes: Sequence[Probe] = None,
        fleet: Sequence[TargetVM] = None,
        model: LatencyModel = None,
    ):
        self.seed = int(seed)
        self.probes: Tuple[Probe, ...] = (
            tuple(probes) if probes is not None else generate_population(seed)
        )
        self.fleet: Tuple[TargetVM, ...] = (
            tuple(fleet) if fleet is not None else deploy_fleet()
        )
        self.model = model if model is not None else LatencyModel(seed=seed)
        self.accounts: Dict[str, CreditAccount] = {
            DEFAULT_KEY: CreditAccount(key=DEFAULT_KEY)
        }
        self._measurements: Dict[int, StoredMeasurement] = {}
        self._next_msm_id = itertools.count(_FIRST_MSM_ID)
        self._probe_by_id = {probe.probe_id: probe for probe in self.probes}
        self._vm_by_address = {vm.address: vm for vm in self.fleet}
        self._vm_by_hostname = {self.hostname_for(vm): vm for vm in self.fleet}

    # -- naming ----------------------------------------------------------------

    @staticmethod
    def hostname_for(vm: TargetVM) -> str:
        """Synthetic DNS name of a target VM."""
        return f"{vm.region.code}.{vm.region.provider_slug}.repro.cloud"

    def resolve_target(self, target: str) -> TargetVM:
        """Resolve a measurement target (address or hostname) to a VM."""
        vm = self._vm_by_address.get(target) or self._vm_by_hostname.get(target)
        if vm is None:
            raise AtlasAPIError(400, f"unresolvable measurement target {target!r}")
        return vm

    # -- accounts ------------------------------------------------------------

    def register_account(self, account: CreditAccount) -> None:
        self.accounts[account.key] = account

    def account_for(self, key: str) -> CreditAccount:
        try:
            return self.accounts[key]
        except KeyError:
            raise AtlasAPIError(403, "invalid API key") from None

    # -- probes ------------------------------------------------------------------

    def probe(self, probe_id: int) -> Probe:
        try:
            return self._probe_by_id[probe_id]
        except KeyError:
            raise AtlasAPIError(404, f"probe {probe_id} not found") from None

    def filter_probes(
        self,
        country_code: str = None,
        tags: Iterable[str] = None,
        is_anchor: bool = None,
    ) -> List[Probe]:
        """Probe directory query (backs the cousteau ``ProbeRequest``)."""
        wanted_tags = {tag.lower() for tag in tags} if tags else set()
        out = []
        for probe in self.probes:
            if country_code is not None and probe.country_code != country_code.upper():
                continue
            if wanted_tags and not wanted_tags.issubset(probe.tags):
                continue
            if is_anchor is not None and probe.is_anchor != is_anchor:
                continue
            out.append(probe)
        return out

    # -- measurement lifecycle -----------------------------------------------------

    def create_measurement(
        self,
        definition: dict,
        sources,
        start_time: int,
        stop_time: int,
        key: str = DEFAULT_KEY,
    ) -> int:
        """Register a measurement; charges the account up front.

        Returns the new measurement id.  Raises
        :class:`~repro.errors.QuotaExceededError` when the account cannot
        cover the scheduled results (partial charges are not rolled back,
        mirroring the real platform's day-by-day metering).
        """
        if stop_time <= start_time:
            raise AtlasAPIError(400, "stop_time must be after start_time")
        # Imported here: the api package imports this module at load time.
        from repro.atlas.api.sources import select_all

        account = self.account_for(key)
        self.resolve_target(definition["target"])  # validate early
        probes = select_all(sources, self._probe_by_id)
        if definition.get("af") == 6:
            probes = [probe for probe in probes if probe.has_ipv6]
            if not probes:
                raise AtlasAPIError(
                    400, "no selected probe has working IPv6 for an af=6 measurement"
                )
        msm = StoredMeasurement(
            msm_id=next(self._next_msm_id),
            definition=dict(definition),
            probes=tuple(probes),
            start_time=int(start_time),
            stop_time=int(stop_time),
            key=key,
        )
        self._charge_for(msm, account)
        self._measurements[msm.msm_id] = msm
        return msm.msm_id

    def _charge_for(self, msm: StoredMeasurement, account: CreditAccount) -> None:
        if msm.measurement_type == "ping":
            per_result = PING_COST_PER_PACKET * msm.definition.get("packets", 3)
        elif msm.measurement_type == "traceroute":
            per_result = TRACEROUTE_COST
        else:
            raise AtlasAPIError(
                400, f"unsupported measurement type {msm.measurement_type!r}"
            )
        if msm.is_oneoff:
            account.charge(per_result * len(msm.probes), msm.start_time)
            return
        # Periodic: charge day by day so daily limits bite realistically.
        day_s = 86_400
        results_per_day_per_probe = max(1, day_s // msm.interval)
        daily_cost = per_result * results_per_day_per_probe * len(msm.probes)
        for day_start in range(msm.start_time, msm.stop_time, day_s):
            remaining = min(day_s, msm.stop_time - day_start)
            fraction = remaining / day_s
            account.charge(int(daily_cost * fraction), day_start)

    def measurement(self, msm_id: int) -> StoredMeasurement:
        try:
            return self._measurements[msm_id]
        except KeyError:
            raise MeasurementNotFoundError(msm_id) from None

    def list_measurements(
        self, key: str = None, measurement_type: str = None, status: str = None
    ) -> List[StoredMeasurement]:
        """Directory of registered measurements, optionally filtered."""
        out = []
        for msm in self._measurements.values():
            if key is not None and msm.key != key:
                continue
            if measurement_type is not None and msm.measurement_type != measurement_type:
                continue
            if status is not None and msm.status != status:
                continue
            out.append(msm)
        return out

    def tick_counts(
        self, msm_id: int, probe_ids: Sequence[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(probe ids, scheduled ticks, online ticks)`` per probe of a
        measurement, from one schedule pass.

        Online ticks are the results a probe *should* deliver; the gap to
        the delivered count is probe churn — the completeness analysis
        consumes the pair.
        """
        schedule = self._schedule(self.measurement(msm_id), probe_ids=probe_ids)
        ids = np.asarray([probe.probe_id for probe in schedule.probes], dtype=np.int64)
        return ids, schedule.scheduled, schedule.prefix + schedule.counts

    def _probe_counts(self, msm_id: int, probe_id: int) -> Tuple[int, int]:
        self.probe(probe_id)
        ids, scheduled, online = self.tick_counts(msm_id, [probe_id])
        if not len(ids):
            raise AtlasAPIError(404, f"probe {probe_id} not on measurement {msm_id}")
        return int(scheduled[0]), int(online[0])

    def expected_result_count(self, msm_id: int, probe_id: int) -> int:
        """Results a probe *should* deliver for a measurement (online ticks)."""
        return self._probe_counts(msm_id, probe_id)[1]

    def scheduled_tick_count(self, msm_id: int, probe_id: int) -> int:
        """All scheduled ticks for a probe, online or not."""
        return self._probe_counts(msm_id, probe_id)[0]

    def stop_measurement(
        self, msm_id: int, key: str = DEFAULT_KEY, at: int = None
    ) -> None:
        """Stop a measurement, truncating result generation.

        ``at`` is the Unix timestamp the stop takes effect: results with
        ``timestamp >= at`` are never generated (the real platform keeps
        results collected before the stop and nothing after).  The
        simulator has no wall clock, so an untimed stop (``at=None``)
        cancels generation outright.  Repeated stops only ever move the
        effective stop earlier.
        """
        msm = self.measurement(msm_id)
        if msm.key != key:
            raise AtlasAPIError(403, "measurement belongs to a different key")
        effective = msm.start_time if at is None else max(int(at), msm.start_time)
        if msm.stopped_at is None or effective < msm.stopped_at:
            msm.stopped_at = effective
        msm.status = "Stopped"

    # -- result materialization ------------------------------------------------------

    def _tick_times(self, msm: StoredMeasurement, probe: Probe) -> Iterator[Tuple[int, int]]:
        """(tick_index, timestamp) pairs for a probe on a measurement.

        The platform spreads probes across the interval (as real Atlas
        does) with a stable per-probe offset.
        """
        if msm.is_oneoff:
            if msm.start_time < msm.effective_stop_time:
                yield 0, msm.start_time
            return
        spread = (probe.probe_id * 2_654_435_761) % msm.interval
        tick = 0
        timestamp = msm.start_time + spread
        while timestamp < msm.effective_stop_time:
            yield tick, timestamp
            tick += 1
            timestamp += msm.interval

    @staticmethod
    def _window(msm: StoredMeasurement, start, stop) -> Tuple[int, int]:
        """A fetch window clamped to the measurement's life."""
        window_start = msm.start_time if start is None else max(start, msm.start_time)
        window_stop = (
            msm.effective_stop_time
            if stop is None
            else min(stop, msm.effective_stop_time)
        )
        return window_start, window_stop

    @staticmethod
    def _window_probes(
        msm: StoredMeasurement, probe_ids: Optional[Sequence[int]]
    ) -> Tuple[Probe, ...]:
        if probe_ids is None:
            return msm.probes
        wanted = set(probe_ids)
        return tuple(p for p in msm.probes if p.probe_id in wanted)

    def iter_results(
        self,
        msm_id: int,
        start: int = None,
        stop: int = None,
        probe_ids: Sequence[int] = None,
    ) -> Iterator[dict]:
        """Lazily generate raw results for a window, probe-major order.

        A ping window's draw streams are seeded in one pass
        (:meth:`_ping_draws`), the same streams the batch path consumes;
        traceroute keeps a single interleaved Generator per flow (hop
        synthesis is data-dependent and has no batch path).
        """
        msm = self.measurement(msm_id)
        vm = self.resolve_target(msm.definition["target"])
        window_start, window_stop = self._window(msm, start, stop)
        probes = self._window_probes(msm, probe_ids)
        if msm.measurement_type == "ping":
            draws = self._ping_draws(msm, probes)
        else:
            draws = (
                stream(self.seed, "results", msm.msm_id, probe.probe_id)
                for probe in probes
            )
        for probe, rng in zip(probes, draws):
            for tick, timestamp in self._tick_times(msm, probe):
                if not probe.is_online(tick):
                    # Offline ticks draw nothing: whether a probe is
                    # online depends only on (probe, tick), never on the
                    # query window, so skipping without consuming RNG
                    # keeps later ticks aligned across any windowing.
                    continue
                if timestamp < window_start or timestamp >= window_stop:
                    if timestamp >= window_stop:
                        break
                    # Before the window: still consume this tick's RNG so
                    # in-window results are window-independent.
                    self._generate(msm, probe, vm, timestamp, rng)
                    continue
                yield self._generate(msm, probe, vm, timestamp, rng)

    def results(
        self,
        msm_id: int,
        start: int = None,
        stop: int = None,
        probe_ids: Sequence[int] = None,
        obs=None,
    ) -> List[dict]:
        out = list(self.iter_results(msm_id, start, stop, probe_ids))
        if obs is not None and out:
            obs.inc("platform_results_served_total", len(out), path="dict")
        return out

    # -- batch result materialization ---------------------------------------------------

    def _ping_draws(
        self, msm: StoredMeasurement, probes: Sequence[Probe]
    ) -> List[PingDrawStreams]:
        """Each probe's ping draw streams on ``msm``, seeded in one pass."""
        return PingDrawStreams.window(
            self.seed, [("results", msm.msm_id, probe.probe_id) for probe in probes]
        )

    def _schedule(
        self,
        msm: StoredMeasurement,
        start: int = None,
        stop: int = None,
        probe_ids: Sequence[int] = None,
    ) -> WindowSchedule:
        """The window's :class:`WindowSchedule`, built in one vectorized
        pass over all of its flows."""
        window_start, window_stop = self._window(msm, start, stop)
        probes = self._window_probes(msm, probe_ids)
        if msm.is_oneoff:
            interval = 0
            firsts = np.full(len(probes), msm.start_time, dtype=np.int64)
            scheduled = np.full(
                len(probes), int(msm.start_time < window_stop), dtype=np.int64
            )
        else:
            interval = msm.interval
            firsts = np.asarray(
                [
                    msm.start_time + (probe.probe_id * 2_654_435_761) % interval
                    for probe in probes
                ],
                dtype=np.int64,
            )
            scheduled = np.maximum(0, -((firsts - window_stop) // interval))
        flows = np.repeat(np.arange(len(probes)), scheduled)
        ticks = np.arange(len(flows)) - np.repeat(
            np.cumsum(scheduled) - scheduled, scheduled
        )
        timestamps = firsts[flows] + ticks * interval
        # Probe.is_online, elementwise: the same low-discrepancy phase
        # (in [0, 1), so an abandoned probe's -1 keeps it offline).
        offsets = np.asarray([probe.probe_id * 0.382 for probe in probes])
        stability = np.asarray(
            [
                probe.stability if probe.status is not ProbeStatus.ABANDONED else -1.0
                for probe in probes
            ]
        )
        phase = (ticks * 0.618033988749895 + offsets[flows]) % 1.0
        online = phase < stability[flows]
        rows = online & (timestamps >= window_start)
        counts = np.bincount(flows[rows], minlength=len(probes))
        return WindowSchedule(
            probes=probes,
            scheduled=scheduled,
            prefix=np.bincount(flows[online], minlength=len(probes)) - counts,
            counts=counts,
            flows=flows[rows],
            timestamps=timestamps[rows],
        )

    def supports_batch(self, msm_id: int) -> bool:
        """Whether :meth:`results_columns` can serve this measurement."""
        return self.measurement(msm_id).measurement_type == "ping"

    def results_columns(
        self,
        msm_id: int,
        start: int = None,
        stop: int = None,
        probe_ids: Sequence[int] = None,
        obs=None,
    ) -> Optional[PingColumns]:
        """A ping measurement's window as columns (None for non-ping).

        The vectorized counterpart of :meth:`iter_results` + parsing,
        **bit-identical** to parsing the scalar dict stream.  The window's
        :class:`WindowSchedule` is cut into blocks of whole flows
        (:data:`KERNEL_BLOCK_ROWS`), and each block is one
        :meth:`~repro.net.pathmodel.LatencyModel.ping_batch` call.  The
        streams of every flow with rows in the window are seeded up front
        in one pass (:meth:`_ping_draws`).  Online ticks before the window
        start consume their draws
        (:meth:`~repro.net.pathmodel.PingDrawStreams.skip`) but are never
        composed.
        """
        if not self.supports_batch(msm_id):
            return None
        msm = self.measurement(msm_id)
        vm = self.resolve_target(msm.definition["target"])
        packets = msm.definition.get("packets", 3)
        af = msm.definition.get("af", 4)
        adjustment = self._af_adjustment(vm, af)
        target_id = vm.key if af == 4 else f"{vm.key}#v6"
        schedule = self._schedule(msm, start, stop, probe_ids)
        rows = len(schedule)
        rtt_min, rtt_avg = np.empty(rows), np.empty(rows)
        rcvd = np.empty(rows, dtype=np.int64)
        streams = iter(
            self._ping_draws(
                msm,
                [schedule.probes[index] for index in np.flatnonzero(schedule.counts)],
            )
        )
        row = 0
        for first, stop_flow in schedule.blocks(KERNEL_BLOCK_ROWS):
            flows, counts = [], []
            for index in range(first, stop_flow):
                count = int(schedule.counts[index])
                if not count:
                    continue
                probe = schedule.probes[index]
                draws = next(streams)
                draws.skip(int(schedule.prefix[index]), packets, probe.access)
                flows.append(
                    PingFlow(
                        probe.location, probe.country, probe.access,
                        vm.region.location, vm.region.country,
                        probe.probe_id, target_id, adjustment, draws,
                    )
                )
                counts.append(count)
            if not flows:
                continue
            end = row + sum(counts)
            batch = self.model.ping_batch(
                flows, schedule.timestamps[row:end], counts, packets=packets
            )
            rtt_min[row:end] = batch.rtt_min
            rtt_avg[row:end] = batch.rtt_avg
            rcvd[row:end] = batch.received
            row = end
        ids = np.asarray([probe.probe_id for probe in schedule.probes], dtype=np.int64)
        columns = PingColumns(
            probe_ids=ids[schedule.flows],
            timestamps=schedule.timestamps,
            rtt_min=rtt_min,
            rtt_avg=rtt_avg,
            sent=np.full(rows, packets, dtype=np.int64),
            rcvd=rcvd,
        )
        if obs is not None and rows:
            obs.inc("platform_results_served_total", rows, path="columnar")
        return columns

    def results_count(
        self,
        msm_id: int,
        start: int = None,
        stop: int = None,
        probe_ids: Sequence[int] = None,
    ) -> Optional[int]:
        """Exact row count :meth:`results_columns` would return — no synthesis.

        Counting online ticks is pure schedule arithmetic (the same
        :class:`WindowSchedule` synthesis reads), so the count costs
        microseconds where synthesis costs milliseconds.  This is what
        lets a multiprocess collection plan global store-row offsets
        *before* any worker synthesizes a sample.  ``None`` for
        measurements with no batch path, mirroring :meth:`results_columns`.
        """
        if not self.supports_batch(msm_id):
            return None
        return len(self._schedule(self.measurement(msm_id), start, stop, probe_ids))

    # -- result synthesis ---------------------------------------------------------------

    def _generate(
        self,
        msm: StoredMeasurement,
        probe: Probe,
        vm: TargetVM,
        timestamp: int,
        rng,
    ) -> dict:
        if msm.measurement_type == "ping":
            return self._ping_result(msm, probe, vm, timestamp, rng)
        return self._traceroute_result(msm, probe, vm, timestamp, rng)

    @staticmethod
    def _af_adjustment(vm: TargetVM, af: int) -> EndpointAdjustment:
        """The target's endpoint adjustment for an address family."""
        adjustment = vm.adjustment
        if af == 6:
            adjustment = EndpointAdjustment(
                path_factor=adjustment.path_factor * _V6_PATH_FACTOR,
                peering_factor=adjustment.peering_factor * _V6_PEERING_FACTOR,
                extra_ms=adjustment.extra_ms + _V6_EXTRA_MS,
            )
        return adjustment

    def _observe(
        self,
        probe: Probe,
        vm: TargetVM,
        timestamp: int,
        packets: int,
        rng=None,
        af: int = 4,
        draws=None,
    ) -> PingObservation:
        return self.model.ping(
            probe.location,
            probe.country,
            probe.access,
            vm.region.location,
            vm.region.country,
            timestamp,
            origin_id=probe.probe_id,
            target_id=vm.key if af == 4 else f"{vm.key}#v6",
            packets=packets,
            adjustment=self._af_adjustment(vm, af),
            rng=rng,
            draws=draws,
        )

    def _ping_result(
        self, msm: StoredMeasurement, probe: Probe, vm: TargetVM, timestamp: int, draws
    ) -> dict:
        packets = msm.definition.get("packets", 3)
        af = msm.definition.get("af", 4)
        obs = self._observe(probe, vm, timestamp, packets, af=af, draws=draws)
        entries: List[dict] = [{"rtt": rtt} for rtt in obs.rtts_ms]
        entries += [{"x": "*"}] * (obs.sent - obs.received)
        return {
            "af": af,
            "avg": round(obs.rtt_avg, 3) if obs.succeeded else -1,
            "dst_addr": vm.address,
            "dst_name": msm.definition["target"],
            "dup": 0,
            "from": probe.address_v6 if af == 6 else probe.address,
            "fw": _FIRMWARE,
            "group_id": msm.msm_id,
            "lts": 20,
            "max": round(obs.rtt_max, 3) if obs.succeeded else -1,
            "min": round(obs.rtt_min, 3) if obs.succeeded else -1,
            "msm_id": msm.msm_id,
            "msm_name": "Ping",
            "prb_id": probe.probe_id,
            "proto": "ICMP",
            "rcvd": obs.received,
            "result": entries,
            "sent": obs.sent,
            "size": msm.definition.get("size", 48),
            "step": msm.interval or None,
            "timestamp": timestamp,
            "ttl": 54,
            "type": "ping",
        }

    def _traceroute_result(
        self, msm: StoredMeasurement, probe: Probe, vm: TargetVM, timestamp: int, rng
    ) -> dict:
        obs = self._observe(probe, vm, timestamp, 1, rng)
        route = self.model.route(
            probe.location, probe.country, vm.region.location, vm.region.country
        )
        total_rtt = obs.rtts_ms[0] if obs.succeeded else None
        hop_count = estimate_hop_count(route.path_km)
        access_ms = None
        if total_rtt is not None:
            # Hop 2 is the ISP access concentrator: it carries the whole
            # last-mile contribution, so path decomposition can attribute
            # delay to access vs core exactly as tcptraceroute users do.
            transit = self.model.transit_floor_ms(
                probe.location,
                probe.country,
                vm.region.location,
                vm.region.country,
                vm.adjustment,
            )
            access_ms = max(total_rtt - transit, 0.2)
        hops: List[dict] = []
        for hop_index in range(1, hop_count + 1):
            hops.append(
                self._traceroute_hop(
                    probe, vm, hop_index, hop_count, total_rtt, access_ms, rng
                )
            )
        return {
            "af": msm.definition.get("af", 4),
            "dst_addr": vm.address,
            "dst_name": msm.definition["target"],
            "from": probe.address,
            "fw": _FIRMWARE,
            "msm_id": msm.msm_id,
            "msm_name": "Traceroute",
            "paris_id": msm.definition.get("paris", 16),
            "prb_id": probe.probe_id,
            "proto": msm.definition.get("protocol", "ICMP"),
            "result": hops,
            "size": 40,
            "timestamp": timestamp,
            "type": "traceroute",
        }

    def _traceroute_hop(
        self,
        probe: Probe,
        vm: TargetVM,
        hop_index: int,
        hop_count: int,
        total_rtt: Optional[float],
        access_ms: Optional[float],
        rng,
    ) -> dict:
        if total_rtt is None or rng.random() < 0.04:
            # Silent hop (filtered ICMP) or failed path.
            return {"hop": hop_index, "result": [{"x": "*"}] * 3}
        # Cumulative RTT profile: the home gateway answers in ~1 ms, the
        # access concentrator (hop 2) already carries the last mile, and
        # the remaining hops spread the wide-area transit evenly.
        if hop_index == 1:
            base = min(1.0, total_rtt * 0.5)
        elif hop_index == 2 or hop_count <= 2:
            base = min(access_ms + 1.0, total_rtt)
        else:
            core = max(total_rtt - access_ms - 1.0, 0.0)
            progress = (hop_index - 2) / max(1, hop_count - 2)
            base = access_ms + 1.0 + core * progress
        if hop_index == hop_count:
            hop_addr = vm.address
        elif hop_index == 1:
            hop_addr = "192.168.0.1"
        else:
            hop_addr = f"10.{hop_index}.{probe.probe_id % 250}.{(hop_index * 7) % 250}"
        replies = []
        for _ in range(3):
            rtt = base + float(rng.exponential(0.4)) + float(rng.uniform(0.0, 0.3))
            replies.append(
                {"from": hop_addr, "rtt": round(rtt, 3), "size": 28, "ttl": 64 - hop_index}
            )
        return {"hop": hop_index, "result": replies}

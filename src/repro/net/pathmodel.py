"""End-to-end RTT composition: the :class:`LatencyModel`.

One ping RTT decomposes as::

    rtt = transit floor            (propagation + hops + peering, Route)
        * backbone path factor     (private backbones route tighter)
        + last-mile contribution   (access technology, tier, congestion)
        + queueing delay           (diurnal utilization)
        + core path noise

The *floor* — what a nine-month minimum converges towards — is the transit
floor plus the last-mile floor.  Everything else is per-sample noise drawn
from deterministic, label-derived RNG streams, so two runs with the same
seed produce the same dataset sample-for-sample.

**Draw layout (the batch-parity contract).**  Every stochastic component
of a ping burst draws from one of a flow's three family streams
(:class:`PingDrawStreams` — uniforms, gammas, exponentials) at a *fixed*
per-tick rate and a *fixed* column position.  Because rate and position
are fixed and the streams are independent,
the draws for ``n`` ticks pool into one Generator call per family, and
:meth:`LatencyModel.ping_batch` synthesizes the RTT columns of many flows
— a whole measurement window — with numpy while remaining
**bit-identical** to ``n`` scalar :meth:`LatencyModel.ping` calls per flow
consuming the same streams tick by tick.  Only the draws are per flow:
each flow's pooled draws land in its slice of window-wide arrays, and its
scalars (transit floor, path noise scale, tier and access constants) are
computed once in Python and indexed out per row.  Every call shape runs
the same composition kernel (:func:`synthesize_blocks`) on per-row
parameters; a one-flow call and the scalar one-tick path are cases of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetworkModelError
from repro.geo.coordinates import LatLon
from repro.geo.countries import Country
from repro.net import congestion, lastmile, loss
from repro.net import rng as rng_mod
from repro.net.lastmile import AccessTechnology
from repro.net.rng import Label, stream
from repro.net.topology import Route, TransitModel, default_transit_model


def quantize_rtts(rtts_ms: np.ndarray) -> np.ndarray:
    """Quantize RTTs to the platform's reporting precision (3 decimals).

    The single quantizer both the scalar and the batch path run, so one
    sample rounds identically no matter which path produced it.
    """
    return np.round(rtts_ms, 3)


#: The three label-derived streams behind one flow, by draw family.  Per
#: tick of ``p`` packets a flow consumes ``3p+1`` uniforms (``2p+1`` for
#: bursty loss, ``p`` for bufferbloat gating), ``p`` standard gammas
#: (access excess), and ``3p`` standard exponentials (bufferbloat spike,
#: queueing, core path noise).  Draws of one family share a stream —
#: within a tick they split by *column position*, which is just as fixed
#: as a separate stream would be and costs a third of the Generator
#: setup.
_STREAM_FAMILIES = ("uniform", "gamma", "exponential")


@dataclass(frozen=True)
class PingDrawBlocks:
    """Pre-drawn randomness for ``n`` consecutive ticks of one flow."""

    loss_u: np.ndarray        # (n, 2*packets + 1)
    access_gamma: np.ndarray  # (n, packets)
    bloat_u: np.ndarray       # (n, packets)
    bloat_e: np.ndarray       # (n, packets)
    queue_e: np.ndarray       # (n, packets)
    noise_e: np.ndarray       # (n, packets)

    def __len__(self) -> int:
        return len(self.loss_u)


def _family_widths(packets: int) -> Tuple[int, int, int]:
    """Draws per tick of each family stream, in ``_STREAM_FAMILIES`` order."""
    return 3 * packets + 1, packets, 3 * packets


def _split_draws(
    uniforms: np.ndarray,
    gammas: np.ndarray,
    exponentials: np.ndarray,
    packets: int,
) -> PingDrawBlocks:
    """Slice the per-family matrices into named component blocks.

    The single place the column layout lives: both the pooled batch draw
    and the tick-by-tick single-stream draw route through it, so the two
    consumption orders cannot drift apart.
    """
    burst = loss.fixed_uniforms_per_burst(packets)
    return PingDrawBlocks(
        loss_u=uniforms[:, :burst],
        bloat_u=uniforms[:, burst:],
        access_gamma=gammas,
        bloat_e=exponentials[:, :packets],
        queue_e=exponentials[:, packets : 2 * packets],
        noise_e=exponentials[:, 2 * packets :],
    )


class PingDrawStreams:
    """One flow's three family streams, consumed in tick order.

    Drawing blocks for ``a`` ticks and then ``b`` ticks yields the same
    arrays as drawing ``a + b`` at once (numpy Generators fill pooled
    requests sequentially, into a fresh array or a given one alike), which
    is what lets scalar tick-by-tick consumption and pooled batch
    consumption coexist bit-identically — and lets a window fetch skip
    its pre-window prefix with one pooled discard instead of composing it.

    A window's flows are seeded together (:meth:`window`); this
    constructor is its one-flow case.
    """

    __slots__ = ("_uniform", "_gamma", "_exponential")

    def __init__(self, root: int, *labels: Label):
        ((self._uniform, self._gamma, self._exponential),) = rng_mod.stream_blocks(
            root, (labels,), len(_STREAM_FAMILIES)
        )

    @classmethod
    def window(
        cls, root: int, label_paths: Sequence[Sequence[Label]]
    ) -> List["PingDrawStreams"]:
        """Every flow's streams, one label path each, seeded in one pass
        (:func:`repro.net.rng.stream_blocks`)."""
        flows = []
        for families in rng_mod.stream_blocks(
            root, label_paths, len(_STREAM_FAMILIES)
        ):
            draws = cls.__new__(cls)
            draws._uniform, draws._gamma, draws._exponential = families
            flows.append(draws)
        return flows

    def draw_into(
        self,
        uniforms: np.ndarray,
        gammas: np.ndarray,
        exponentials: np.ndarray,
        tech: AccessTechnology,
    ) -> None:
        """Fill the next ``len(uniforms)`` ticks' draws, tick-major, into
        C-contiguous ``(ticks, width)`` blocks — e.g. one flow's row slice
        of window-wide arrays."""
        self._uniform.random(out=uniforms)
        self._gamma.standard_gamma(lastmile.gamma_shape(tech), out=gammas)
        self._exponential.standard_exponential(out=exponentials)

    def blocks(
        self, ticks: int, packets: int, tech: AccessTechnology
    ) -> PingDrawBlocks:
        """Draw the next ``ticks`` ticks' randomness, tick-major."""
        uniform_width, gamma_width, exponential_width = _family_widths(packets)
        return _split_draws(
            self._uniform.random((ticks, uniform_width)),
            self._gamma.standard_gamma(
                lastmile.gamma_shape(tech), (ticks, gamma_width)
            ),
            self._exponential.standard_exponential((ticks, exponential_width)),
            packets,
        )

    def skip(self, ticks: int, packets: int, tech: AccessTechnology) -> None:
        """Consume (and discard) ``ticks`` ticks' draws.

        Keeps later ticks aligned when a fetch window starts mid-flow:
        the pre-window prefix burns exactly the draws it would have used,
        and composes nothing.
        """
        if ticks > 0:
            self.blocks(ticks, packets, tech)


class SingleStreamDraws:
    """Adapter: the fixed per-tick draw layout fed from one Generator.

    For callers that bring their own flow Generator (the anchor mesh, the
    core-vs-access decomposition).  The draw families interleave within a
    tick, so blocks cannot pool across ticks — scalar use only.
    """

    __slots__ = ("_rng",)

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def blocks(
        self, ticks: int, packets: int, tech: AccessTechnology
    ) -> PingDrawBlocks:
        rng = self._rng
        shape = lastmile.gamma_shape(tech)
        uniform_width, gamma_width, exponential_width = _family_widths(packets)
        rows = [
            (
                rng.random(uniform_width),
                rng.standard_gamma(shape, gamma_width),
                rng.standard_exponential(exponential_width),
            )
            for _ in range(ticks)
        ]
        return _split_draws(
            *(np.stack(cols) for cols in zip(*rows)), packets
        )


class RowParams(NamedTuple):
    """Per-row parameters of the composition kernel, each ``(n,)``.

    All but ``utilization`` are per-flow constants (:meth:`LatencyModel.
    _flow_constants`), computed once per flow in Python exactly as the
    scalar component functions compute them and indexed out per row, so
    the kernel sees the same doubles whichever call shape built the rows.
    """

    transit_ms: np.ndarray
    noise_scale_ms: np.ndarray
    loss_base: np.ndarray
    queue_scale_ms: np.ndarray
    access_floor_ms: np.ndarray
    access_excess_ms: np.ndarray
    tier_scale: np.ndarray
    bloat_probability: np.ndarray
    bloat_scale_ms: np.ndarray
    utilization: np.ndarray


#: Per-flow constants in a :class:`RowParams` (every field but utilization).
_FLOW_CONSTANTS = len(RowParams._fields) - 1


def synthesize_blocks(
    blocks: PingDrawBlocks, rows: RowParams, packets: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The shared composition kernel: draws -> (received, quantized RTTs).

    Returns ``received`` of shape ``(n,)`` and the quantized per-packet
    RTT matrix of shape ``(n, packets)`` (entries beyond a tick's received
    count are surplus draws and carry no meaning).  Every arithmetic step
    mirrors the scalar component functions operation for operation and
    is elementwise over rows, so a row's bits do not depend on which
    other rows, of which flows, share the call.
    """
    utilization = rows.utilization
    p_loss = loss.packet_loss_probability_batch(rows.loss_base, utilization)
    lost = loss.gilbert_elliott_losses_fixed(blocks.loss_u, p_loss)
    received = packets - lost
    access = lastmile.access_ms_from_draws(
        rows.access_floor_ms,
        rows.access_excess_ms,
        rows.tier_scale,
        rows.bloat_probability,
        rows.bloat_scale_ms,
        blocks.access_gamma,
        blocks.bloat_u,
        blocks.bloat_e,
        utilization,
    )
    queue = blocks.queue_e * congestion.queue_mean_ms(
        utilization, rows.queue_scale_ms
    )[:, None]
    noise = blocks.noise_e * rows.noise_scale_ms[:, None]
    rtts = rows.transit_ms[:, None] + access + queue + noise
    return received, quantize_rtts(rtts)


@dataclass(frozen=True)
class PingBatch:
    """Columnar outcome of ping bursts over many ticks (of one or many flows).

    ``rtts_ms[i, :received[i]]`` are row ``i``'s quantized echo RTTs;
    the reduced ``rtt_min`` / ``rtt_avg`` columns are NaN where the whole
    burst was lost, matching how the dataset stores failed pings.
    """

    timestamps: np.ndarray  # (n,) int64
    sent: int
    received: np.ndarray    # (n,) int64
    rtts_ms: np.ndarray     # (n, sent) float64, quantized
    rtt_min: np.ndarray     # (n,) float64, NaN on failure
    rtt_avg: np.ndarray     # (n,) float64, NaN on failure

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def succeeded(self) -> np.ndarray:
        return self.received > 0

    def observation(self, index: int) -> "PingObservation":
        """Tick ``index`` as the scalar :class:`PingObservation`."""
        received = int(self.received[index])
        return PingObservation(
            timestamp=int(self.timestamps[index]),
            sent=self.sent,
            received=received,
            rtts_ms=tuple(float(v) for v in self.rtts_ms[index, :received]),
        )


def _reduce_batch(
    timestamps: np.ndarray, packets: int, received: np.ndarray, rtts: np.ndarray
) -> PingBatch:
    """Fold a synthesized block into the columnar :class:`PingBatch`.

    The row-wise min/avg reductions run over the first ``received[i]``
    entries only (trailing entries masked to +inf / 0.0, which leaves the
    result bits untouched for finite positive RTTs), matching the scalar
    ``min`` / ``sum``-then-divide on the observation tuple exactly.
    """
    mask = np.arange(packets)[None, :] < received[:, None]
    ok = received > 0
    rtt_min = np.where(mask, rtts, np.inf).min(axis=1, initial=np.inf)
    rtt_min = np.where(ok, rtt_min, np.nan)
    totals = np.where(mask, rtts, 0.0).sum(axis=1)
    rtt_avg = np.divide(
        totals,
        received,
        out=np.full(len(received), np.nan),
        where=ok,
    )
    return PingBatch(
        timestamps=timestamps,
        sent=packets,
        received=np.asarray(received, dtype=np.int64),
        rtts_ms=rtts,
        rtt_min=rtt_min,
        rtt_avg=rtt_avg,
    )


@dataclass(frozen=True)
class PingObservation:
    """Outcome of one simulated ping (a burst of echo requests)."""

    timestamp: int
    sent: int
    received: int
    rtts_ms: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.received != len(self.rtts_ms):
            raise NetworkModelError(
                f"received={self.received} but {len(self.rtts_ms)} RTTs recorded"
            )
        if self.received > self.sent:
            raise NetworkModelError("received more packets than sent")

    @property
    def succeeded(self) -> bool:
        return self.received > 0

    @property
    def rtt_min(self) -> float:
        return min(self.rtts_ms) if self.rtts_ms else float("nan")

    @property
    def rtt_max(self) -> float:
        return max(self.rtts_ms) if self.rtts_ms else float("nan")

    @property
    def rtt_avg(self) -> float:
        if not self.rtts_ms:
            return float("nan")
        return sum(self.rtts_ms) / len(self.rtts_ms)

    @property
    def loss_rate(self) -> float:
        return 1.0 - self.received / self.sent


@dataclass(frozen=True)
class EndpointAdjustment:
    """Target-side adjustments (provider backbone quality, address family).

    ``path_factor`` scales the transit path length (private backbones take
    tighter routes and peer more widely); ``peering_factor`` scales the
    peering penalty; ``extra_ms`` adds a fixed RTT cost (e.g. the small
    IPv6 tunnelling/peering overhead of the late 2010s).  The defaults
    mean the IPv4 public Internet.
    """

    path_factor: float = 1.0
    peering_factor: float = 1.0
    extra_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.path_factor <= 0 or self.peering_factor < 0 or self.extra_ms < 0:
            raise NetworkModelError(
                f"invalid adjustment: path_factor={self.path_factor}, "
                f"peering_factor={self.peering_factor}, extra_ms={self.extra_ms}"
            )


PUBLIC_INTERNET = EndpointAdjustment()


@dataclass(frozen=True)
class PingFlow:
    """One probe-to-target flow of a :meth:`LatencyModel.ping_batch` call.

    ``draws`` are the flow's family streams, positioned at its first row
    (a windowed fetch has already skipped its pre-window prefix).  When
    omitted they are derived from ``(seed, "ping", origin_id,
    target_id)``.
    """

    origin: LatLon
    origin_country: Country
    tech: AccessTechnology
    target: LatLon
    target_country: Country
    origin_id: int
    target_id: str
    adjustment: EndpointAdjustment = PUBLIC_INTERNET
    draws: Optional[PingDrawStreams] = None


class LatencyModel:
    """The full probe-to-target latency simulator."""

    def __init__(self, seed: int = 0, transit: TransitModel = None):
        self.seed = int(seed)
        self.transit = transit if transit is not None else default_transit_model()
        # Route lookups are pure in their endpoints; pings repeat the same
        # probe-target pairs thousands of times over a campaign, so a
        # process-lifetime cache removes nearly all routing cost.
        self._route_cache = {}
        # Utilization per (day position, weekend, longitude, tier): a probe
        # meets the same few keys in every window of a campaign.
        self._utilization = congestion.UtilizationMemo()

    # -- deterministic components ------------------------------------------

    def route(
        self,
        origin: LatLon,
        origin_country: Country,
        target: LatLon,
        target_country: Country,
    ) -> Route:
        key = (origin, origin_country.iso2, target, target_country.iso2)
        route = self._route_cache.get(key)
        if route is None:
            route = self.transit.route(origin, origin_country, target, target_country)
            self._route_cache[key] = route
        return route

    def transit_floor_ms(
        self,
        origin: LatLon,
        origin_country: Country,
        target: LatLon,
        target_country: Country,
        adjustment: EndpointAdjustment = PUBLIC_INTERNET,
    ) -> float:
        """Floor RTT of the wide-area segment, after backbone adjustment."""
        route = self.route(origin, origin_country, target, target_country)
        adjusted = Route(
            path_km=route.path_km * adjustment.path_factor,
            kind=route.kind,
            via=route.via,
            peering_ms=route.peering_ms * adjustment.peering_factor,
        )
        return adjusted.floor_rtt_ms + adjustment.extra_ms

    def floor_rtt_ms(
        self,
        origin: LatLon,
        origin_country: Country,
        tech: AccessTechnology,
        target: LatLon,
        target_country: Country,
        adjustment: EndpointAdjustment = PUBLIC_INTERNET,
    ) -> float:
        """Best RTT this probe can ever observe towards this target."""
        transit = self.transit_floor_ms(
            origin, origin_country, target, target_country, adjustment
        )
        return transit + lastmile.floor_ms(tech, origin_country.infra_tier)

    # -- sampling ------------------------------------------------------------

    def _flow_constants(
        self,
        origin: LatLon,
        origin_country: Country,
        tech: AccessTechnology,
        target: LatLon,
        target_country: Country,
        adjustment: EndpointAdjustment,
    ) -> Tuple[float, ...]:
        """A flow's constants, in :class:`RowParams` field order."""
        tier = origin_country.infra_tier
        route = self.route(origin, origin_country, target, target_country)
        return (
            self.transit_floor_ms(
                origin, origin_country, target, target_country, adjustment
            ),
            congestion.path_noise_scale_ms(route.path_km),
            loss.base_loss_probability(tech, tier),
            congestion.queue_scale_ms(tier),
            *lastmile.access_constants(tech, tier),
        )

    def ping(
        self,
        origin: LatLon,
        origin_country: Country,
        tech: AccessTechnology,
        target: LatLon,
        target_country: Country,
        timestamp: int,
        origin_id: int,
        target_id: str,
        packets: int = 3,
        adjustment: EndpointAdjustment = PUBLIC_INTERNET,
        rng=None,
        draws: Optional[PingDrawStreams] = None,
    ) -> PingObservation:
        """Simulate one ping burst at ``timestamp`` (Unix seconds).

        When neither ``draws`` nor ``rng`` is given a fresh stream is
        derived from ``(seed, origin_id, target_id, timestamp)``.  Callers
        looping over many ticks pass the flow's :class:`PingDrawStreams`
        as ``draws`` — consuming one tick per call, bit-identical to
        :meth:`ping_batch` over the same streams — or a plain Generator as
        ``rng`` (the legacy per-flow form, scalar-only layout).
        """
        if packets <= 0:
            raise NetworkModelError(f"packets must be positive: {packets}")
        if draws is None:
            if rng is None:
                rng = stream(self.seed, "ping", origin_id, target_id, timestamp)
            draws = SingleStreamDraws(rng)
        constants = self._flow_constants(
            origin, origin_country, tech, target, target_country, adjustment
        )
        rho = congestion.utilization(timestamp, origin.lon, origin_country.infra_tier)
        received, rtts = synthesize_blocks(
            draws.blocks(1, packets, tech),
            RowParams(*np.asarray(constants)[:, None], np.asarray([rho])),
            packets,
        )
        count = int(received[0])
        return PingObservation(
            timestamp=timestamp,
            sent=packets,
            received=count,
            rtts_ms=tuple(float(value) for value in rtts[0, :count]),
        )

    def ping_batch(
        self,
        flows: Sequence[PingFlow],
        timestamps,
        counts=None,
        packets: int = 3,
    ) -> PingBatch:
        """Simulate the ping bursts of many flows at once — a whole window.

        ``timestamps`` holds every row, flow-major: flow ``i`` owns the
        next ``counts[i]`` rows (``counts`` may be omitted for one flow).
        Each flow draws its rows' randomness from its own streams into
        its slice of window-wide arrays; everything else is one numpy
        pass per component over all rows.  Fed the same streams, the
        result is **bit-identical** to one call per flow and to calling
        :meth:`ping` per timestamp in order (all run
        :func:`synthesize_blocks`; utilization routes through the scalar
        :func:`~repro.net.congestion.utilization` once per distinct key,
        so even the transcendentals agree).
        """
        if packets <= 0:
            raise NetworkModelError(f"packets must be positive: {packets}")
        timestamps = np.asarray(timestamps, dtype=np.int64)
        if counts is None:
            if len(flows) != 1:
                raise NetworkModelError("counts are required for several flows")
            counts = [len(timestamps)]
        counts = np.asarray(counts, dtype=np.int64)
        if len(counts) != len(flows) or counts.sum() != len(timestamps):
            raise NetworkModelError(
                f"{len(flows)} flows with counts summing to {counts.sum()} "
                f"do not cover {len(timestamps)} rows"
            )
        families = [
            np.empty((len(timestamps), width)) for width in _family_widths(packets)
        ]
        underived = [
            ("ping", flow.origin_id, flow.target_id)
            for flow, count in zip(flows, counts)
            if count and flow.draws is None
        ]
        derived = iter(
            PingDrawStreams.window(self.seed, underived) if underived else ()
        )
        start = 0
        for flow, stop in zip(flows, np.cumsum(counts).tolist()):
            if stop > start:
                draws = next(derived) if flow.draws is None else flow.draws
                draws.draw_into(
                    *(family[start:stop] for family in families), flow.tech
                )
            start = stop
        flow_rows = np.repeat(np.arange(len(flows)), counts)
        places = np.asarray(
            [
                self._utilization.place(flow.origin.lon, flow.origin_country.infra_tier)
                for flow in flows
            ],
            dtype=np.int64,
        )
        # Each flow's constants, indexed out to its rows.
        constants = np.asarray(
            [
                self._flow_constants(
                    flow.origin, flow.origin_country, flow.tech,
                    flow.target, flow.target_country, flow.adjustment,
                )
                for flow in flows
            ],
            dtype=np.float64,
        ).reshape(len(flows), _FLOW_CONSTANTS)
        received, rtts = synthesize_blocks(
            _split_draws(*families, packets),
            RowParams(
                *constants.T[:, flow_rows],
                self._utilization.rows(timestamps, places[flow_rows]),
            ),
            packets,
        )
        return _reduce_batch(timestamps, packets, received, rtts)
